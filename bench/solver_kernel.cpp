//===- bench/solver_kernel.cpp - Solver kernel bench ----------------------===//
//
// Times the solve stage on the Fig. 10 corpus: the production kernel
// (Session::solve, which evaluates on the blocked SimdObjective) against
// the legacy reference Objective driven by the same Adam loop, each at
// Jobs=1 and at SELDON_JOBS threads. Verifies the equivalence contract:
// all four runs emit byte-identical learned specifications. Emits a JSON
// summary to stdout (scripts/bench_solver.sh redirects it into
// BENCH_solver.json) and a human-readable table to stderr. Exits non-zero
// if the contract is violated.
//
//===----------------------------------------------------------------------===//

#include "eval/ExperimentDriver.h"
#include "spec/SpecIO.h"
#include "support/Metrics.h"
#include "support/StrUtil.h"
#include "support/ThreadPool.h"
#include "support/Trace.h"

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

using namespace seldon;
using namespace seldon::eval;

namespace {

std::string renderSpec(const infer::PipelineResult &R,
                       const std::vector<double> &X) {
  spec::LearnedSpec Learned;
  const constraints::VarTable &Vars = R.System->Vars;
  for (uint32_t V = 0; V < Vars.numVars(); ++V)
    Learned.setScore(R.Reps->repString(Vars.repOf(V)), Vars.roleOf(V), X[V]);
  return spec::writeLearnedSpec(Learned, ScoreThreshold);
}

/// The production path: Session::solve, timed by its "session/solve"
/// span. Returns the rendered spec.
std::string solveKernel(infer::Session &Session, unsigned Jobs,
                        infer::PipelineResult &Out) {
  Session.options().Jobs = Jobs;
  Out = Session.solve();
  return spec::writeLearnedSpec(Out.Learned, ScoreThreshold);
}

/// The legacy oracle over the same system and optimizer settings, timed
/// by an "oracle/solve" span (objective construction included, like the
/// kernel's span includes compilation). Returns the rendered spec.
std::string solveOracle(const infer::PipelineResult &R,
                        const infer::PipelineOptions &Opts, unsigned Jobs) {
  std::unique_ptr<ThreadPool> Pool;
  if (Jobs > 1)
    Pool = std::make_unique<ThreadPool>(Jobs);
  solver::SolveResult Solve;
  {
    trace::Span Span(metrics::Registry::global(), "oracle/solve");
    solver::Objective Obj = R.System->makeObjective(Opts.Lambda);
    Obj.setThreadPool(Pool.get());
    Solve = solver::AdamOptimizer(Opts.Solve).minimize(Obj);
  }
  return renderSpec(R, Solve.X);
}

std::vector<double> spanSeconds(const metrics::Registry &Reg,
                                const std::string &Path) {
  std::vector<double> Out;
  for (const metrics::SpanRecord &Span : Reg.spans())
    if (Span.Path == Path)
      Out.push_back(Span.DurationSeconds);
  return Out;
}

} // namespace

int main() {
  int NumProjects = envInt("SELDON_PROJECTS", 300);
  unsigned Jobs = static_cast<unsigned>(
      envInt("SELDON_JOBS",
             static_cast<int>(ThreadPool::hardwareConcurrency())));

  // The bench's timings come from the same instrumentation layer the CLI
  // exports (--metrics-out): Session stage durations are trace spans, and
  // the full snapshot is embedded in the JSON summary below.
  metrics::Registry &Reg = metrics::Registry::global();
  Reg.setEnabled(true);

  corpus::CorpusOptions CorpusOpts = standardCorpusOptions();
  CorpusOpts.NumProjects = NumProjects;
  corpus::Corpus Data = corpus::generateCorpus(CorpusOpts);

  // Parse + generate once; every solve below reuses the same constraint
  // system, so the timings isolate the solve stage.
  // Both sides run the full iteration budget (patience off), so the
  // timings compare the evaluators on the same amount of work.
  infer::PipelineOptions PipelineOpts = standardPipelineOptions();
  PipelineOpts.Solve.Patience = 0;
  infer::Session Session(PipelineOpts);
  Session.addProjects(Data.Projects);
  Session.generateConstraints(Data.Seed);

  std::fprintf(stderr, "solver bench: %d project(s), %u parallel job(s)\n",
               NumProjects, Jobs);
  infer::PipelineResult R;
  std::string KernelSerial = solveKernel(Session, 1, R);
  std::string KernelParallel = solveKernel(Session, Jobs, R);
  std::string OracleSerial = solveOracle(R, PipelineOpts, 1);
  std::string OracleParallel = solveOracle(R, PipelineOpts, Jobs);

  bool Identical = KernelSerial == KernelParallel &&
                   KernelSerial == OracleSerial &&
                   KernelSerial == OracleParallel;

  // Read the timings back through the registry to keep the bench on the
  // shared instrumentation source.
  std::vector<double> KernelSeconds = spanSeconds(Reg, "session/solve");
  std::vector<double> OracleSeconds = spanSeconds(Reg, "oracle/solve");
  if (KernelSeconds.size() != 2 || OracleSeconds.size() != 2) {
    std::fprintf(stderr,
                 "error: expected 2 session/solve and 2 oracle/solve "
                 "spans, found %zu and %zu\n",
                 KernelSeconds.size(), OracleSeconds.size());
    return 1;
  }
  double KernelSerialSeconds = KernelSeconds[0];
  double KernelParallelSeconds = KernelSeconds[1];
  double LegacySerialSeconds = OracleSeconds[0];
  double LegacyParallelSeconds = OracleSeconds[1];

  const solver::CompileStats &S = R.SolverStats;
  const char *Tier = solver::simdTierName(R.SolverTier);
  auto Speedup = [](double Base, double Fast) {
    return Fast > 0.0 ? Base / Fast : 0.0;
  };
  double SerialSpeedup = Speedup(LegacySerialSeconds, KernelSerialSeconds);
  double ParallelSpeedup =
      Speedup(LegacyParallelSeconds, KernelParallelSeconds);

  std::fprintf(stderr,
               "system: %zu constraints -> %zu rows (dedup %.2fx), "
               "%zu non-zeros, %d iterations, compile %.3fs\n",
               S.RowsBefore, S.RowsAfter, S.dedupRatio(), S.NonZeros,
               R.Solve.Iterations, R.CompileSeconds);
  std::fprintf(stderr, "legacy oracle jobs=1: %.3fs   jobs=%u: %.3fs\n",
               LegacySerialSeconds, Jobs, LegacyParallelSeconds);
  std::fprintf(stderr, "kernel (%s) jobs=1: %.3fs   jobs=%u: %.3fs\n", Tier,
               KernelSerialSeconds, Jobs, KernelParallelSeconds);
  std::fprintf(stderr,
               "speedup vs legacy jobs=1: %.2fx   jobs=%u: %.2fx\n",
               SerialSpeedup, Jobs, ParallelSpeedup);
  std::fprintf(stderr, "kernel/legacy specs byte-identical: %s\n",
               Identical ? "yes" : "NO — EQUIVALENCE BUG");

  std::string Json = "{\n";
  Json += formatString("  \"projects\": %d,\n", NumProjects);
  Json += formatString("  \"files\": %zu,\n", R.NumFiles);
  Json += formatString("  \"jobs\": %u,\n", Jobs);
  Json += formatString("  \"constraints\": %zu,\n", S.RowsBefore);
  Json += formatString("  \"rows_after_dedup\": %zu,\n", S.RowsAfter);
  Json += formatString("  \"dedup_ratio\": %.4f,\n", S.dedupRatio());
  Json += formatString("  \"nonzeros\": %zu,\n", S.NonZeros);
  Json += formatString("  \"max_multiplicity\": %zu,\n", S.MaxMultiplicity);
  Json += formatString("  \"iterations\": %d,\n", R.Solve.Iterations);
  Json += formatString("  \"compile_seconds\": %.6f,\n", R.CompileSeconds);
  Json += formatString("  \"simd_tier\": \"%s\",\n", Tier);
  Json += formatString("  \"legacy_serial_seconds\": %.6f,\n",
                       LegacySerialSeconds);
  Json += formatString("  \"kernel_serial_seconds\": %.6f,\n",
                       KernelSerialSeconds);
  Json += formatString("  \"legacy_parallel_seconds\": %.6f,\n",
                       LegacyParallelSeconds);
  Json += formatString("  \"kernel_parallel_seconds\": %.6f,\n",
                       KernelParallelSeconds);
  Json += formatString("  \"serial_speedup\": %.4f,\n", SerialSpeedup);
  Json += formatString("  \"parallel_speedup\": %.4f,\n", ParallelSpeedup);
  Json += formatString("  \"byte_identical\": %s,\n",
                       Identical ? "true" : "false");
  // Full registry snapshot (indented to nest under this object).
  {
    std::string Snapshot = Reg.toJson();
    if (!Snapshot.empty() && Snapshot.back() == '\n')
      Snapshot.pop_back();
    std::string Indented;
    for (char C : Snapshot) {
      Indented += C;
      if (C == '\n')
        Indented += "  ";
    }
    Json += "  \"metrics\": " + Indented + "\n";
  }
  Json += "}\n";
  std::fputs(Json.c_str(), stdout);

  return Identical ? 0 : 1;
}
