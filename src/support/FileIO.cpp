//===- support/FileIO.cpp - Whole-file writes and publish temps -----------===//

#include "support/FileIO.h"

#include "support/StrUtil.h"

#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <system_error>

using namespace seldon;

namespace fs = std::filesystem;

namespace {

constexpr const char *TempMarker = ".tmp";

} // namespace

std::optional<std::string> seldon::readWholeFile(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  if (!In)
    return std::nullopt;
  std::ostringstream Buffer;
  Buffer << In.rdbuf();
  if (In.bad())
    return std::nullopt;
  return Buffer.str();
}

std::string seldon::writeWholeFile(const std::string &Path,
                                   const std::string &Content) {
  std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
  if (!Out)
    return "cannot open " + Path + " for writing";
  Out << Content;
  Out.flush();
  if (!Out)
    return "write to " + Path + " failed";
  return std::string();
}

std::string seldon::uniqueTempPath(const std::string &Path) {
  static std::atomic<uint64_t> Seq{0};
  return formatString("%s%s%llu", Path.c_str(), TempMarker,
                      static_cast<unsigned long long>(
                          Seq.fetch_add(1, std::memory_order_relaxed)));
}

size_t seldon::sweepStaleTemps(const std::string &Dir, const char *Suffix,
                               unsigned MaxAgeSeconds) {
  const std::string Marker = std::string(Suffix) + TempMarker;
  const auto Now = fs::file_time_type::clock::now();
  size_t Removed = 0;
  std::error_code Ec;
  for (fs::directory_iterator It(Dir, Ec), End; !Ec && It != End;
       It.increment(Ec)) {
    const fs::path &P = It->path();
    const std::string Name = P.filename().string();
    size_t At = Name.find(Marker);
    // The marker must be followed by the sequence digits only — an entry
    // legitimately named "...tmp..." earlier in the stem is not a temp.
    if (At == std::string::npos ||
        Name.find_first_not_of("0123456789", At + Marker.size()) !=
            std::string::npos)
      continue;
    std::error_code FileEc;
    fs::file_time_type Mtime = fs::last_write_time(P, FileEc);
    if (FileEc ||
        Now - Mtime < std::chrono::seconds(MaxAgeSeconds))
      continue; // Possibly a live writer in another process.
    if (fs::remove(P, FileEc) && !FileEc)
      ++Removed;
  }
  return Removed;
}
