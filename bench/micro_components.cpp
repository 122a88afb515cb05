//===- bench/micro_components.cpp - Component microbenchmarks -------------===//
//
// google-benchmark microbenchmarks of the pipeline stages: lexing, parsing,
// points-to solving, propagation-graph construction, constraint
// generation, one solver iteration (production kernel and legacy
// reference), and taint analysis. These quantify
// where the per-file cost of Fig. 10's linear scaling goes.
//
//===----------------------------------------------------------------------===//

#include "constraints/ConstraintGen.h"
#include "corpus/CorpusGenerator.h"
#include "eval/ExperimentDriver.h"
#include "infer/Pipeline.h"
#include "merlin/MerlinPipeline.h"
#include "pyast/Lexer.h"
#include "pyast/Parser.h"
#include "taint/TaintAnalyzer.h"

#include <benchmark/benchmark.h>

using namespace seldon;

namespace {

/// A representative generated source file, shared by the front-end
/// benchmarks.
const std::string &sampleSource() {
  static const std::string Source = [] {
    corpus::CorpusOptions Opts;
    Opts.NumProjects = 1;
    Opts.MinFilesPerProject = Opts.MaxFilesPerProject = 1;
    Opts.MinFlowsPerFile = Opts.MaxFlowsPerFile = 8;
    corpus::Corpus C = corpus::generateCorpus(Opts);
    // Re-render by regenerating the single project deterministically.
    corpus::ApiUniverse U = corpus::ApiUniverse::standard();
    pysem::Project P = corpus::generateSingleProject(U, 42, 1, 8, "bench");
    (void)C;
    // Projects do not retain text; lex/parse benchmarks need raw source,
    // so synthesize an equivalent realistic file here.
    std::string Out;
    Out += "from flask import request\n";
    Out += "import flask\nimport sqlite3\nimport bleach\n\n";
    for (int I = 0; I < 8; ++I) {
      std::string N = std::to_string(I);
      Out += "def handle_" + N + "():\n";
      Out += "    data_" + N + " = request.args.get('q')\n";
      Out += "    data_" + N + " = data_" + N + ".strip()\n";
      Out += "    clean_" + N + " = bleach.clean(data_" + N + ")\n";
      Out += "    flask.make_response(clean_" + N + ")\n";
      Out += "    sqlite3.connect(DB).cursor().execute('x' + data_" + N +
             ")\n";
    }
    return Out;
  }();
  return Source;
}

/// A small prebuilt corpus shared by the backend benchmarks.
struct BackendState {
  corpus::Corpus Data;
  propgraph::PropagationGraph Graph;
  propgraph::RepTable Reps;
  constraints::ConstraintSystem System;

  BackendState() {
    corpus::CorpusOptions Opts;
    Opts.NumProjects = 40;
    Data = corpus::generateCorpus(Opts);
    for (const pysem::Project &P : Data.Projects)
      Graph.append(propgraph::buildProjectGraph(P));
    Reps.countOccurrences(Graph);
    System = constraints::generateConstraints(Graph, Reps, Data.Seed);
  }

  static BackendState &get() {
    static BackendState State;
    return State;
  }
};

void BM_Lexer(benchmark::State &State) {
  const std::string &Source = sampleSource();
  for (auto _ : State) {
    pyast::Lexer Lexer(Source);
    benchmark::DoNotOptimize(Lexer.lexAll());
  }
  State.SetBytesProcessed(static_cast<int64_t>(State.iterations()) *
                          static_cast<int64_t>(Source.size()));
}
BENCHMARK(BM_Lexer);

void BM_Parser(benchmark::State &State) {
  const std::string &Source = sampleSource();
  for (auto _ : State) {
    pyast::AstContext Ctx;
    benchmark::DoNotOptimize(pyast::parseSource(Ctx, Source));
  }
  State.SetBytesProcessed(static_cast<int64_t>(State.iterations()) *
                          static_cast<int64_t>(Source.size()));
}
BENCHMARK(BM_Parser);

void BM_GraphBuild(benchmark::State &State) {
  pysem::Project Proj;
  const pysem::ModuleInfo &M = Proj.addModule("bench.py", sampleSource());
  for (auto _ : State)
    benchmark::DoNotOptimize(propgraph::buildModuleGraph(Proj, M));
}
BENCHMARK(BM_GraphBuild);

void BM_GraphBuildNoPointsTo(benchmark::State &State) {
  pysem::Project Proj;
  const pysem::ModuleInfo &M = Proj.addModule("bench.py", sampleSource());
  propgraph::BuildOptions Opts;
  Opts.UsePointsTo = false;
  for (auto _ : State)
    benchmark::DoNotOptimize(propgraph::buildModuleGraph(Proj, M, Opts));
}
BENCHMARK(BM_GraphBuildNoPointsTo);

void BM_ConstraintGen(benchmark::State &State) {
  BackendState &B = BackendState::get();
  for (auto _ : State)
    benchmark::DoNotOptimize(
        constraints::generateConstraints(B.Graph, B.Reps, B.Data.Seed));
}
BENCHMARK(BM_ConstraintGen);

// The legacy reference evaluator as the optimizer runs it: one gradient
// sweep plus one value sweep per iteration. Baseline for the kernel below.
void BM_SolveIterationLegacy(benchmark::State &State) {
  BackendState &B = BackendState::get();
  solver::Objective Obj = B.System.makeObjective(0.1);
  std::vector<double> X = Obj.initialPoint();
  std::vector<double> Grad;
  for (auto _ : State)
    benchmark::DoNotOptimize(Obj.valueAndGradient(X, Grad));
  // items = source constraints swept, so items/sec compares directly
  // against the kernel's row throughput.
  State.SetItemsProcessed(static_cast<int64_t>(State.iterations()) *
                          static_cast<int64_t>(Obj.numConstraints()));
  State.counters["sweeps_per_iter"] = 2;
}
BENCHMARK(BM_SolveIterationLegacy);

// The production solve step: one blocked SIMD sweep over the coalesced
// rows yields both the value and the gradient.
void BM_SolveIteration(benchmark::State &State) {
  BackendState &B = BackendState::get();
  solver::SimdObjective Obj = B.System.makeSimdObjective(0.1);
  std::vector<double> X = Obj.initialPoint();
  std::vector<double> Grad;
  for (auto _ : State)
    benchmark::DoNotOptimize(Obj.valueAndGradient(X, Grad));
  State.SetItemsProcessed(static_cast<int64_t>(State.iterations()) *
                          static_cast<int64_t>(Obj.stats().RowsBefore));
  State.counters["sweeps_per_iter"] = 1;
  State.counters["rows"] = static_cast<double>(Obj.numRows());
  State.counters["nnz"] = static_cast<double>(Obj.numNonZeros());
  State.counters["dedup_ratio"] = Obj.stats().dedupRatio();
  State.counters["simd_tier"] = static_cast<double>(Obj.tier());
}
BENCHMARK(BM_SolveIteration);

// The compilation pass itself (canonicalize + coalesce + CSR + blocked
// layout); runs once per solve, so it must stay negligible next to the
// sweeps.
void BM_ConstraintCompile(benchmark::State &State) {
  BackendState &B = BackendState::get();
  for (auto _ : State)
    benchmark::DoNotOptimize(B.System.makeSimdObjective(0.1));
  State.SetItemsProcessed(static_cast<int64_t>(State.iterations()) *
                          static_cast<int64_t>(B.System.Constraints.size()));
}
BENCHMARK(BM_ConstraintCompile);

void BM_TaintAnalysis(benchmark::State &State) {
  BackendState &B = BackendState::get();
  taint::RoleResolver Roles(&B.Data.Seed.Spec, nullptr);
  taint::TaintAnalyzer Analyzer(B.Graph);
  for (auto _ : State)
    benchmark::DoNotOptimize(Analyzer.analyze(Roles));
}
BENCHMARK(BM_TaintAnalysis);

void BM_GraphCollapse(benchmark::State &State) {
  BackendState &B = BackendState::get();
  for (auto _ : State)
    benchmark::DoNotOptimize(B.Graph.collapseByRep());
}
BENCHMARK(BM_GraphCollapse);

void BM_MerlinBpIteration(benchmark::State &State) {
  corpus::ApiUniverse U = corpus::ApiUniverse::standard();
  spec::SeedSpec Seed = U.seedSpec();
  pysem::Project Proj = corpus::generateSingleProject(U, 5, 2, 6, "m");
  propgraph::PropagationGraph G = propgraph::buildProjectGraph(Proj);
  merlin::MerlinModel Model = merlin::buildMerlinModel(G, Seed);
  merlin::BpOptions Opts;
  Opts.MaxIterations = 1;
  merlin::LoopyBeliefPropagation Bp(Opts);
  for (auto _ : State)
    benchmark::DoNotOptimize(Bp.run(Model.Graph));
}
BENCHMARK(BM_MerlinBpIteration);

} // namespace

BENCHMARK_MAIN();
