//===- infer/Pipeline.h - Seldon end-to-end inference ------------*- C++ -*-===//
//
// Part of seldon-cpp, a reproduction of "Scalable Taint Specification
// Inference with Big Code" (PLDI 2019).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The end-to-end Seldon pipeline (paper §7.1) behind a staged Session API:
/// parse a corpus of projects, extract per-project propagation graphs (in
/// parallel, merged deterministically), build the linear constraint system
/// (sharded by file), minimize the relaxed objective with projected Adam,
/// and read the per-(representation, role) scores back into a LearnedSpec.
///
/// Stages are explicit so callers can reuse expensive artifacts:
///
///   infer::Session S(Opts);
///   S.addProjects(Corpus);
///   S.buildGraph();                  // parse + extract once
///   S.generateConstraints(Seed);     // re-runnable after options() change
///   infer::PipelineResult R = S.solve();
///
/// Every stage honors PipelineOptions::Jobs; for any Jobs value the learned
/// scores are bit-identical to the serial (Jobs = 1) run — see
/// docs/architecture.md for the determinism strategy.
///
//===----------------------------------------------------------------------===//

#ifndef SELDON_INFER_PIPELINE_H
#define SELDON_INFER_PIPELINE_H

#include "cache/GraphCache.h"
#include "cache/ShardCache.h"
#include "constraints/ConstraintGen.h"
#include "constraints/Feedback.h"
#include "infer/RunHealth.h"
#include "propgraph/GraphBuilder.h"
#include "spec/LearnedSpec.h"
#include "spec/SeedSpec.h"
#include "solver/AdamOptimizer.h"
#include "solver/ProjectedGradient.h"
#include "solver/SimdObjective.h"
#include "support/Deadline.h"

#include <memory>
#include <vector>

namespace seldon {

class ThreadPool;

namespace infer {

/// All knobs of the end-to-end pipeline, defaulting to the paper's values
/// (C = 0.75, cutoff 5, λ = 0.1, score threshold 0.1).
struct PipelineOptions {
  propgraph::BuildOptions Build;
  constraints::GenOptions Gen;
  double Lambda = 0.1;
  solver::SolveOptions Solve;
  /// Use projected Adam (the paper's optimizer); false switches to plain
  /// projected subgradient descent (ablation).
  bool UseAdam = true;
  /// Warm-start the optimizer from a previously learned specification
  /// (matched by representation string): retraining after the corpus
  /// grows converges in far fewer iterations. Null starts from zero.
  const spec::LearnedSpec *WarmStart = nullptr;
  /// User feedback applied at solve time (borrowed; keep alive through
  /// solve()). Accepted/rejected specs append weighted evidence rows to
  /// the solved system — see constraints/Feedback.h. Null or empty is the
  /// passive path, byte for byte.
  const constraints::FeedbackSet *Feedback = nullptr;
  constraints::FeedbackOptions FeedbackOpts;
  /// Learn over the vertex-contracted graph (paper §6.4: the collapsed
  /// graph is unusable for taint analysis but still usable for
  /// specification learning). The result's Graph member stays uncollapsed
  /// so the taint client remains sound.
  bool CollapseForLearning = false;
  /// Worker threads for graph building, constraint generation, and
  /// gradient evaluation. 0 = hardware concurrency, 1 = fully serial.
  /// The learned scores are bit-identical for every value.
  unsigned Jobs = 0;
  /// Fail fast instead of quarantining: the first project whose
  /// parse/build throws rethrows out of buildGraph() (lowest corpus index
  /// wins, so the surfaced error is deterministic at any Jobs value).
  bool Strict = false;
  /// Whole-run wall-clock budget in seconds (0 = unlimited), armed when
  /// the first stage starts. Projects not built before expiry are
  /// quarantined, constraint generation aborts with DeadlineError, and
  /// the solver's remaining budget is capped — the run ends with partial,
  /// clearly-flagged results instead of hanging. See RunHealth.
  double DeadlineSeconds = 0.0;
};

/// The pipeline stages a ProgressObserver is notified about.
enum class Phase { BuildGraph, GenerateConstraints, Solve };

/// Printable phase name ("parse", "constraints", "solve").
const char *phaseName(Phase P);

/// Callback interface for long-running pipeline progress. All methods are
/// invoked serialized (never concurrently), including under a parallel
/// frontend; onProjectGraphBuilt sees a strictly increasing Done count.
/// Implementations must be fast — they run under the progress lock.
class ProgressObserver {
public:
  virtual ~ProgressObserver() = default;

  /// Entering pipeline phase \p P.
  virtual void onPhase(Phase P) { (void)P; }

  /// Pipeline phase \p P finished after \p Seconds of wall time (the same
  /// duration exported as the phase's "session/..." metrics span).
  virtual void onStageFinished(Phase P, double Seconds) {
    (void)P;
    (void)Seconds;
  }

  /// \p Done of \p Total projects parsed into propagation graphs.
  virtual void onProjectGraphBuilt(size_t Done, size_t Total) {
    (void)Done;
    (void)Total;
  }

  /// One solver iteration finished with the current objective value.
  virtual void onSolveIteration(int Iteration, double Objective) {
    (void)Iteration;
    (void)Objective;
  }
};

/// Delta statistics of one incremental run: how much of the constraint
/// system was replayed from cached shards versus regenerated, and whether
/// the solve was warm-started. All zero when the shard cache is off.
struct IncrStats {
  /// Projects whose constraint shard was replayed from the cache.
  uint64_t ShardsHit = 0;
  /// Projects whose shard was extracted fresh (miss, eviction, or no
  /// usable cache entry).
  uint64_t ShardsRebuilt = 0;
  /// Freshly extracted shards written back to the cache.
  uint64_t ShardsStored = 0;
  /// The solve was seeded from a previous LearnedSpec.
  bool WarmStarted = false;
};

/// Everything the pipeline produced, including the intermediate artifacts
/// the evaluation and the benches inspect.
struct PipelineResult {
  propgraph::PropagationGraph Graph; ///< Global propagation graph.
  propgraph::RepTable Reps;
  constraints::ConstraintSystem System;
  solver::SolveResult Solve;
  spec::LearnedSpec Learned;

  size_t NumFiles = 0;
  double BuildSeconds = 0.0;
  double GenSeconds = 0.0;
  double SolveSeconds = 0.0;

  /// What the compilation pass did (rows coalesced, CSR non-zeros), and
  /// the kernel tier the blocked solver dispatched to. Every tier computes
  /// bit-identical scores; both stay at their defaults on a restored
  /// (unsolved) result.
  solver::CompileStats SolverStats;
  solver::SimdTier SolverTier = solver::SimdTier::Scalar;

  /// Whether a graph cache was enabled, and its counters at solve() time
  /// (hits + misses == project count when the cache was active during
  /// buildGraph). Cache hits change timings only — the learned scores are
  /// byte-identical to an uncached run.
  bool UsedCache = false;
  cache::CacheStats Cache;

  /// Whether a shard cache was enabled and usable for this run's
  /// constraint generation, its counters at solve() time, and the delta
  /// statistics. Like the graph cache, shard hits change timings only —
  /// the composed system and the learned scores are byte-identical to an
  /// uncached run.
  bool UsedShardCache = false;
  cache::CacheStats ShardCacheStats;
  IncrStats Incr;

  /// Whether feedback evidence rows were applied to this solve's System
  /// (the returned System then includes them), and what the application
  /// matched/appended.
  bool UsedFeedback = false;
  constraints::FeedbackStats Feedback;

  /// What the fault-tolerant runtime had to do: quarantined projects,
  /// solver recoveries, deadline expiries, degraded cache operations.
  /// Health.status() is Clean on an undisturbed run.
  RunHealth Health;

  /// Worker threads the run actually used.
  unsigned JobsUsed = 1;
  /// Per-worker busy time inside the graph-building fan-out; sums to the
  /// CPU time of the phase, so BuildSeconds / max(shard) approximates the
  /// phase's parallel efficiency.
  std::vector<double> BuildShardSeconds;
  /// Per-worker busy time inside constraint extraction.
  std::vector<double> GenShardSeconds;

  /// Wall time of the learning part (constraint generation + solving),
  /// the quantity plotted in paper Fig. 10.
  double inferenceSeconds() const { return GenSeconds + SolveSeconds; }
};

/// A staged pipeline run. Construct with options, feed projects (or adopt
/// a prebuilt graph), then drive the stages in order; generateConstraints
/// and solve may be re-run after mutating options() to sweep
/// configurations without re-parsing the corpus.
///
/// Projects added with addProject are borrowed — the caller keeps them
/// alive until buildGraph() has run. A Session is single-threaded from the
/// caller's perspective; it parallelizes internally according to
/// options().Jobs.
class Session {
public:
  explicit Session(PipelineOptions Opts = PipelineOptions());
  ~Session();
  Session(Session &&) noexcept;
  Session &operator=(Session &&) noexcept;

  /// Live options; Gen/Solve changes take effect on the next stage call.
  PipelineOptions &options() { return Opts; }
  const PipelineOptions &options() const { return Opts; }

  /// Installs a progress observer (null to remove). Borrowed.
  void setObserver(ProgressObserver *Observer) { this->Observer = Observer; }

  /// Registers a project for buildGraph(). Borrowed reference.
  Session &addProject(const pysem::Project &Proj);
  /// Registers every project of \p Corpus. Borrowed references.
  Session &addProjects(const std::vector<pysem::Project> &Corpus);

  /// Adopts an already-built global graph instead of parsing projects
  /// (used when the same graph is reused across ablation configurations).
  Session &adoptGraph(propgraph::PropagationGraph Graph);

  /// Enables the persistent propagation-graph cache rooted at \p Dir
  /// (created if missing). Must be called before buildGraph(). Projects
  /// whose entry hits are adopted without re-parsing; misses build via the
  /// normal (parallel) path and write back. An unusable directory degrades
  /// to all-miss operation rather than failing the pipeline; check
  /// graphCache()->valid() to surface that. See cache/GraphCache.h.
  Session &enableCache(const std::string &Dir);

  /// The enabled cache, or null. Valid for the Session's lifetime.
  const cache::GraphCache *graphCache() const { return Cache.get(); }

  /// Enables the persistent constraint-shard cache rooted at \p Dir
  /// (created if missing). Must be called before buildGraph(). With it,
  /// generateConstraints() replays cached per-project shards and extracts
  /// only the projects whose shard key changed; the composed system is
  /// byte-identical to uncached generation. Ignored (with a plain
  /// regeneration) when the graph was adopted rather than built from
  /// projects, or when CollapseForLearning is set — vertex contraction
  /// crosses project boundaries, so the system is not per-project
  /// composable. An unusable directory degrades to all-miss operation.
  Session &enableShardCache(const std::string &Dir);

  /// The enabled shard cache, or null. Valid for the Session's lifetime.
  const cache::ShardCache *shardCache() const { return SCache.get(); }

  /// Delta statistics of the most recent generateConstraints() (all zero
  /// without a shard cache; WarmStarted is filled in by solve()).
  const IncrStats &incrStats() const { return Incr; }

  /// Builds the global propagation graph: per-project extraction fans out
  /// over Jobs workers; the per-project graphs are merged in corpus order,
  /// so event ids match the serial run exactly. No-op if a graph was
  /// adopted or already built.
  ///
  /// Each project runs inside an isolation boundary: a throwing
  /// parse/build/cache-load quarantines that project (captured in
  /// health()) and the merge continues over the survivors — the resulting
  /// graph, and every downstream artifact, is byte-identical to a run
  /// over only the surviving projects at any Jobs value. Options
  /// Strict restores fail-fast.
  Session &buildGraph();

  /// Counts representations and generates the constraint system for
  /// \p Seed (runs buildGraph() first if needed). Re-runnable.
  Session &generateConstraints(const spec::SeedSpec &Seed);

  /// Minimizes the relaxed objective and returns the full result.
  /// Requires generateConstraints(). Re-runnable; each call re-optimizes
  /// with the current options and copies the shared artifacts into the
  /// returned PipelineResult.
  PipelineResult solve();

  /// Installs a previously computed solver result instead of optimizing:
  /// builds a PipelineResult from the session's artifacts exactly as
  /// solve() would — including applying options().Feedback evidence rows
  /// to the result's System copy — but adopts \p Restored wholesale in
  /// place of running the optimizer, then extracts the LearnedSpec from
  /// Restored.X. Requires generateConstraints(); returns false (leaving
  /// \p Out untouched) when Restored.X does not match the system's
  /// variable count. The seldond durability layer uses this to re-serve a
  /// snapshot's scores byte-identically without re-solving.
  bool restoreSolve(const solver::SolveResult &Restored, PipelineResult &Out);

  /// The built or adopted global graph (valid after buildGraph()).
  const propgraph::PropagationGraph &graph() const { return Graph; }
  bool hasGraph() const { return GraphReady; }

  /// The generated constraint system (valid after generateConstraints();
  /// solve() copies it — plus any feedback rows — into its result).
  const constraints::ConstraintSystem &system() const { return System; }
  /// The corpus representation table (valid after generateConstraints()).
  const propgraph::RepTable &reps() const { return Reps; }

  /// Pins the (\p Rep, \p R) score variable to \p Value for every
  /// subsequent solve() — the same §4.1 mechanism seed labels use, and
  /// how the active-learning loop applies oracle answers. An existing pin
  /// of the variable is updated in place. Returns false (and changes
  /// nothing) when the pair has no score variable. Requires
  /// generateConstraints(); re-running generateConstraints() rebuilds the
  /// seed-only pin set.
  bool pinVariable(const std::string &Rep, propgraph::Role R, double Value);

  /// The health report accumulated so far (quarantines after buildGraph,
  /// solver fields after solve — solve() also embeds a snapshot in its
  /// PipelineResult).
  const RunHealth &health() const { return Health; }

private:
  unsigned resolveJobs() const;
  ThreadPool *poolFor(unsigned Jobs);
  void armDeadline();
  /// The incremental generation path: per-project shards are loaded from
  /// the shard cache or extracted fresh (in parallel), then composed in
  /// corpus order into a system byte-identical to direct generation.
  constraints::ConstraintSystem
  composeFromShards(const spec::SeedSpec &Seed, ThreadPool *P);

  PipelineOptions Opts;
  ProgressObserver *Observer = nullptr;
  std::vector<const pysem::Project *> Projects;
  std::unique_ptr<cache::GraphCache> Cache;
  std::unique_ptr<cache::ShardCache> SCache;
  RunHealth Health;
  Deadline RunDeadline;

  /// One surviving project's slice of the built global graph: its file
  /// range plus its graph cache key (the shard key's content anchor).
  /// Recorded by buildGraph() when a shard cache is enabled; empty (and
  /// SlicesValid false) for adopted graphs.
  struct ProjectSlice {
    size_t ProjectIndex = 0;
    cache::CacheKey GraphKey;
    uint32_t FileBegin = 0;
    uint32_t FileEnd = 0;
  };
  std::vector<ProjectSlice> Slices;
  bool SlicesValid = false;
  IncrStats Incr;

  propgraph::PropagationGraph Graph;
  bool GraphReady = false;
  size_t NumFiles = 0;
  double BuildSeconds = 0.0;
  std::vector<double> BuildShardSeconds;

  propgraph::RepTable Reps;
  constraints::ConstraintSystem System;
  bool SystemReady = false;
  bool SystemFromShards = false;
  double GenSeconds = 0.0;
  std::vector<double> GenShardSeconds;
  unsigned JobsUsed = 1;

  std::unique_ptr<ThreadPool> Pool;
};

} // namespace infer
} // namespace seldon

#endif // SELDON_INFER_PIPELINE_H
