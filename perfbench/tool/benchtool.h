//===- benchtool.h - The benchmark's helper binary ---------------*- C++ -*-===//
//
// Subcommands of `benchtool`, the benchmark's own helper binary. It links
// the repository's libraries but is never part of the program under test:
//
//   gen-corpus  write a seeded synthetic corpus, its seed spec, its ground
//               truth and the relearn_edit edit sequence to disk
//   host        print the host row (cores, SIMD tier) as JSON
//   load        drive a running `seldond` over its socket from one thread
//   trace       repeat a workload's operations in-process with spans
//
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_BENCHTOOL_H
#define PERFBENCH_BENCHTOOL_H

#include <string>
#include <vector>

namespace perfbench {

int cmdGenCorpus(int Argc, char **Argv);
int cmdHost(int Argc, char **Argv);
int cmdLoad(int Argc, char **Argv);
int cmdTrace(int Argc, char **Argv);

/// Seconds on the monotonic clock.
double nowSeconds();

/// Reads a whole file; false when it cannot be read.
bool readWholeFile(const std::string &Path, std::string &Out);

/// Writes a whole file; false on any IO failure.
bool writeWholeFile(const std::string &Path, const std::string &Content);

/// The lines of \p Path without their newline; empty lines are dropped.
std::vector<std::string> readLines(const std::string &Path);

/// "tier" the solver's SIMD dispatch would pick on this host:
/// avx512, avx2 or scalar.
std::string hostSimdTier();

} // namespace perfbench

#endif // PERFBENCH_BENCHTOOL_H
