//===- support/FileIO.h - Whole-file writes and publish temps ---*- C++ -*-===//
//
// Part of seldon-cpp, a reproduction of "Scalable Taint Specification
// Inference with Big Code" (PLDI 2019).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// File helpers shared across the project: a whole-file read, a checked
/// whole-file write, and the temp-file rule behind every atomic publish
/// (the blob stores and the daemon's state directory). A publish writes
/// "<path>.tmp<seq>" and renames it over "<path>"; a writer that dies in
/// between leaks the temp, which sweepStaleTemps() removes on the next
/// open. Both halves of the rule live here so the name and the sweep
/// pattern cannot drift apart.
///
//===----------------------------------------------------------------------===//

#ifndef SELDON_SUPPORT_FILEIO_H
#define SELDON_SUPPORT_FILEIO_H

#include <cstddef>
#include <optional>
#include <string>

namespace seldon {

/// Reads a whole file into a string; std::nullopt when it cannot be opened
/// or read.
std::optional<std::string> readWholeFile(const std::string &Path);

/// Writes \p Content to \p Path (truncating), flushes, and checks the
/// stream: a full disk or a closed pipe is an error, not a silent loss.
/// A plain write, not a publish — \p Path may name a device or a pipe.
/// Returns an error message, or an empty string on success.
std::string writeWholeFile(const std::string &Path,
                           const std::string &Content);

/// "<Path>.tmp<seq>" with a process-wide sequence number, so concurrent
/// publishes of the same path (two workers storing byte-identical
/// projects) never share a temp file.
std::string uniqueTempPath(const std::string &Path);

/// Removes crash-leaked publish temps from \p Dir: files named
/// "<stem><Suffix>.tmp<seq>" (see uniqueTempPath) whose mtime is at least
/// \p MaxAgeSeconds old. The age guard keeps a concurrent process's
/// in-flight publish alive; a crashed writer's leftovers are far older by
/// the time anything reopens the directory. Returns the number removed.
size_t sweepStaleTemps(const std::string &Dir, const char *Suffix,
                       unsigned MaxAgeSeconds = 15 * 60);

} // namespace seldon

#endif // SELDON_SUPPORT_FILEIO_H
