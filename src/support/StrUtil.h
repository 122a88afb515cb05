//===- support/StrUtil.h - Small string helpers ------------------*- C++ -*-===//
//
// Part of seldon-cpp, a reproduction of "Scalable Taint Specification
// Inference with Big Code" (PLDI 2019).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// String helpers shared across the project: splitting, joining, trimming,
/// and a printf-style formatter returning std::string.
///
//===----------------------------------------------------------------------===//

#ifndef SELDON_SUPPORT_STRUTIL_H
#define SELDON_SUPPORT_STRUTIL_H

#include <string>
#include <string_view>
#include <vector>

namespace seldon {

/// Splits \p Text on \p Sep. Adjacent separators yield empty elements;
/// splitting the empty string yields one empty element.
std::vector<std::string> splitString(std::string_view Text, char Sep);

/// Joins \p Parts with \p Sep between consecutive elements.
std::string joinStrings(const std::vector<std::string> &Parts,
                        std::string_view Sep);

/// Removes leading and trailing ASCII whitespace.
std::string_view trim(std::string_view Text);

/// printf-style formatting into a std::string.
std::string formatString(const char *Fmt, ...)
    __attribute__((format(printf, 1, 2)));

/// Escapes \p Text for inclusion inside a JSON string literal (quotes,
/// backslashes, control characters).
std::string jsonEscape(std::string_view Text);

/// Appends jsonEscape(\p Text) to \p Out without a temporary string.
void appendJsonEscaped(std::string &Out, std::string_view Text);

/// Appends \p V exactly as printf's `%.<Precision>f` prints it in the C
/// locale (std::to_chars with fixed precision is specified to match it,
/// including `-0.000000`, `inf` and `nan`), without a format-string pass.
void appendFixed(std::string &Out, double V, int Precision);

/// Appends \p V exactly as printf's `%.<Precision>g` prints it in the C
/// locale, through std::to_chars.
void appendGeneral(std::string &Out, double V, int Precision);

} // namespace seldon

#endif // SELDON_SUPPORT_STRUTIL_H
