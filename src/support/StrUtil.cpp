//===- support/StrUtil.cpp - Small string helpers -------------------------===//

#include "support/StrUtil.h"

#include <cassert>
#include <charconv>
#include <cstdarg>
#include <cstdio>

using namespace seldon;

std::vector<std::string> seldon::splitString(std::string_view Text, char Sep) {
  std::vector<std::string> Parts;
  size_t Start = 0;
  for (size_t I = 0; I <= Text.size(); ++I) {
    if (I == Text.size() || Text[I] == Sep) {
      Parts.emplace_back(Text.substr(Start, I - Start));
      Start = I + 1;
    }
  }
  return Parts;
}

std::string seldon::joinStrings(const std::vector<std::string> &Parts,
                                std::string_view Sep) {
  std::string Out;
  for (size_t I = 0; I < Parts.size(); ++I) {
    if (I != 0)
      Out += Sep;
    Out += Parts[I];
  }
  return Out;
}

std::string_view seldon::trim(std::string_view Text) {
  auto IsSpace = [](char C) {
    return C == ' ' || C == '\t' || C == '\r' || C == '\n' || C == '\f' ||
           C == '\v';
  };
  while (!Text.empty() && IsSpace(Text.front()))
    Text.remove_prefix(1);
  while (!Text.empty() && IsSpace(Text.back()))
    Text.remove_suffix(1);
  return Text;
}

std::string seldon::formatString(const char *Fmt, ...) {
  va_list Args;
  va_start(Args, Fmt);
  va_list Args2;
  va_copy(Args2, Args);
  int N = std::vsnprintf(nullptr, 0, Fmt, Args);
  va_end(Args);
  std::string Out;
  if (N > 0) {
    Out.resize(static_cast<size_t>(N));
    std::vsnprintf(Out.data(), Out.size() + 1, Fmt, Args2);
  }
  va_end(Args2);
  return Out;
}

std::string seldon::jsonEscape(std::string_view Text) {
  std::string Out;
  Out.reserve(Text.size());
  appendJsonEscaped(Out, Text);
  return Out;
}

void seldon::appendJsonEscaped(std::string &Out, std::string_view Text) {
  // Copy runs of characters that need no escape in one append each.
  size_t Run = 0;
  for (size_t I = 0; I < Text.size(); ++I) {
    unsigned char C = static_cast<unsigned char>(Text[I]);
    if (C >= 0x20 && C != '"' && C != '\\')
      continue;
    Out.append(Text.data() + Run, I - Run);
    Run = I + 1;
    switch (C) {
    case '"': Out += "\\\""; break;
    case '\\': Out += "\\\\"; break;
    case '\n': Out += "\\n"; break;
    case '\r': Out += "\\r"; break;
    case '\t': Out += "\\t"; break;
    default: {
      static const char Hex[] = "0123456789abcdef";
      const char Esc[] = {'\\', 'u', '0', '0', Hex[C >> 4], Hex[C & 0xf]};
      Out.append(Esc, sizeof(Esc));
      break;
    }
    }
  }
  Out.append(Text.data() + Run, Text.size() - Run);
}

namespace {

void appendToChars(std::string &Out, double V, std::chars_format Format,
                   int Precision) {
  // %.<P>f of a finite double has at most 309 integer digits; the
  // precisions used here are small, so this bound is never reached.
  char Buf[352];
  assert(Precision >= 0 && Precision <= 17 && "precision out of range");
  std::to_chars_result R =
      std::to_chars(Buf, Buf + sizeof(Buf), V, Format, Precision);
  assert(R.ec == std::errc() && "to_chars buffer too small");
  Out.append(Buf, R.ptr);
}

} // namespace

void seldon::appendFixed(std::string &Out, double V, int Precision) {
  appendToChars(Out, V, std::chars_format::fixed, Precision);
}

void seldon::appendGeneral(std::string &Out, double V, int Precision) {
  appendToChars(Out, V, std::chars_format::general, Precision);
}
