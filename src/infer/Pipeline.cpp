//===- infer/Pipeline.cpp - Seldon end-to-end inference -------------------===//

#include "infer/Pipeline.h"

#include "constraints/ConstraintShard.h"
#include "support/FaultInjection.h"
#include "support/Metrics.h"
#include "support/ThreadPool.h"
#include "support/Timer.h"
#include "support/Trace.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cmath>
#include <mutex>

using namespace seldon;
using namespace seldon::infer;
using namespace seldon::propgraph;

const char *seldon::infer::phaseName(Phase P) {
  switch (P) {
  case Phase::BuildGraph:
    return "parse";
  case Phase::GenerateConstraints:
    return "constraints";
  case Phase::Solve:
    return "solve";
  }
  return "?";
}

Session::Session(PipelineOptions Opts) : Opts(std::move(Opts)) {}
Session::~Session() = default;
Session::Session(Session &&) noexcept = default;
Session &Session::operator=(Session &&) noexcept = default;

unsigned Session::resolveJobs() const {
  return Opts.Jobs == 0 ? ThreadPool::hardwareConcurrency() : Opts.Jobs;
}

ThreadPool *Session::poolFor(unsigned Jobs) {
  if (Jobs <= 1)
    return nullptr;
  if (!Pool || Pool->numWorkers() != Jobs)
    Pool = std::make_unique<ThreadPool>(Jobs);
  return Pool.get();
}

Session &Session::addProject(const pysem::Project &Proj) {
  assert(!GraphReady && "cannot add projects after the graph is built");
  Projects.push_back(&Proj);
  return *this;
}

Session &Session::addProjects(const std::vector<pysem::Project> &Corpus) {
  for (const pysem::Project &Proj : Corpus)
    addProject(Proj);
  return *this;
}

Session &Session::enableCache(const std::string &Dir) {
  assert(!GraphReady && "enableCache must precede buildGraph");
  Cache = std::make_unique<cache::GraphCache>(Dir);
  return *this;
}

Session &Session::enableShardCache(const std::string &Dir) {
  assert(!GraphReady && "enableShardCache must precede buildGraph");
  SCache = std::make_unique<cache::ShardCache>(Dir);
  return *this;
}

Session &Session::adoptGraph(PropagationGraph NewGraph) {
  Graph = std::move(NewGraph);
  GraphReady = true;
  NumFiles = Graph.files().size();
  BuildSeconds = 0.0;
  BuildShardSeconds.clear();
  SystemReady = false;
  // An adopted graph has no per-project structure to slice shards from;
  // generateConstraints falls back to direct generation.
  Slices.clear();
  SlicesValid = false;
  return *this;
}

void Session::armDeadline() {
  if (!RunDeadline.armed())
    RunDeadline.arm(Opts.DeadlineSeconds);
}

Session &Session::buildGraph() {
  if (GraphReady)
    return *this;
  armDeadline();
  unsigned Jobs = resolveJobs();
  ThreadPool *P = poolFor(Jobs);
  JobsUsed = Jobs;
  if (Observer)
    Observer->onPhase(Phase::BuildGraph);

  metrics::Registry &Reg = metrics::Registry::global();
  trace::Span BuildSpan(Reg, "session/parse");
  metrics::TimerStat *ProjectTimer =
      Reg.enabled() ? &Reg.timer("build.project_seconds") : nullptr;
  const size_t Total = Projects.size();
  std::vector<PropagationGraph> PerProject(Total);
  std::vector<cache::CacheKey> Keys(Total);
  BuildShardSeconds.assign(P ? P->numWorkers() : 1, 0.0);

  // Per-project isolation boundary. Failures land in per-index slots, so
  // the quarantine set, its order, and (under Strict) the surfaced
  // exception are all independent of the thread schedule.
  std::vector<std::string> FailReason(Total);
  std::vector<std::exception_ptr> FailCause(Total);
  std::vector<uint8_t> FailedAt(Total, 0);
  std::atomic<bool> AnyFailed{false};
  std::mutex HealthMutex; // Guards Health.CacheIncidents during fan-out.

  std::mutex ProgressMutex;
  size_t Done = 0;
  auto BuildOne = [&](size_t I, unsigned Worker) {
    // Strict fail-fast: once one project failed, skip the rest (the
    // captured exception rethrows after the join).
    if (Opts.Strict && AnyFailed.load(std::memory_order_relaxed))
      return;
    Timer ShardTimer;
    bool Loaded = false;
    try {
      if (RunDeadline.expired())
        throw DeadlineError("run deadline expired before project build");
      if (fault::enabled())
        fault::maybeThrow(fault::Point::Parse, I);
      // With a cache, try to adopt the stored frontend output; the codec
      // is canonical, so a hit is structurally identical to a fresh build
      // and every downstream stage stays bit-deterministic. Misses
      // (including evicted corrupt entries) rebuild and write back. A
      // *throwing* cache (filesystem exceptions, injected faults) is
      // degraded to a rebuild / skipped write-back, never a quarantine:
      // the cache is transparent, so the run stays byte-identical.
      std::optional<PropagationGraph> FromCache;
      cache::CacheKey Key;
      // The shard cache keys off the graph key even when the graph cache
      // itself is disabled.
      if (Cache || SCache) {
        Key = cache::projectCacheKey(*Projects[I], Opts.Build);
        Keys[I] = Key;
      }
      if (Cache) {
        try {
          if (fault::enabled())
            fault::maybeThrow(fault::Point::CacheRead, I);
          FromCache = Cache->load(Key);
        } catch (const std::exception &E) {
          std::lock_guard<std::mutex> Lock(HealthMutex);
          Health.CacheIncidents.push_back(
              "project " + Projects[I]->name() +
              ": cache read degraded to rebuild: " + E.what());
        }
      }
      if (FromCache) {
        PerProject[I] = std::move(*FromCache);
        Loaded = true;
      } else {
        PerProject[I] = buildProjectGraph(*Projects[I], Opts.Build);
        if (fault::enabled())
          fault::maybeThrow(fault::Point::GraphBuild, I);
        if (Cache) {
          try {
            if (fault::enabled())
              fault::maybeThrow(fault::Point::CacheWrite, I);
            Cache->store(Key, PerProject[I]);
          } catch (const std::exception &E) {
            std::lock_guard<std::mutex> Lock(HealthMutex);
            Health.CacheIncidents.push_back(
                "project " + Projects[I]->name() +
                ": cache write skipped: " + E.what());
          }
        }
      }
    } catch (...) {
      // Quarantine: drop any partial graph so the merge below sees either
      // a complete per-project graph or nothing.
      PerProject[I] = PropagationGraph();
      FailCause[I] = std::current_exception();
      try {
        throw;
      } catch (const std::exception &E) {
        FailReason[I] = E.what();
      } catch (...) {
        FailReason[I] = "unknown exception";
      }
      FailedAt[I] = 1;
      AnyFailed.store(true, std::memory_order_relaxed);
    }
    double Seconds = ShardTimer.seconds();
    BuildShardSeconds[Worker] += Seconds;
    if (ProjectTimer && !Loaded && !FailedAt[I])
      ProjectTimer->record(Seconds);
    if (Observer) {
      std::lock_guard<std::mutex> Lock(ProgressMutex);
      Observer->onProjectGraphBuilt(++Done, Total);
    }
  };
  if (P)
    P->parallelFor(Total, BuildOne);
  else
    for (size_t I = 0; I < Total; ++I)
      BuildOne(I, 0);

  if (Opts.Strict && AnyFailed.load(std::memory_order_relaxed)) {
    for (size_t I = 0; I < Total; ++I)
      if (FailedAt[I])
        std::rethrow_exception(FailCause[I]);
  }

  // Deterministic merge: append the survivors in corpus order, so event
  // ids and file indices are identical to a serial walk over only the
  // surviving projects — quarantined ones contribute nothing. With a
  // shard cache, each survivor's file range within the global graph is
  // recorded so generateConstraints can slice its shard back out.
  NumFiles = 0;
  Slices.clear();
  bool DeadlineHit = false;
  for (size_t I = 0; I < Total; ++I) {
    if (FailedAt[I]) {
      Health.Quarantined.push_back(
          {I, Projects[I]->name(), FailReason[I]});
      if (FailCause[I]) {
        try {
          std::rethrow_exception(FailCause[I]);
        } catch (const DeadlineError &) {
          DeadlineHit = true;
        } catch (...) {
        }
      }
      PerProject[I] = PropagationGraph();
      continue;
    }
    NumFiles += Projects[I]->modules().size();
    uint32_t FileBegin = static_cast<uint32_t>(Graph.files().size());
    Graph.append(PerProject[I]);
    if (SCache)
      Slices.push_back({I, Keys[I], FileBegin,
                        static_cast<uint32_t>(Graph.files().size())});
    PerProject[I] = PropagationGraph(); // Free as we go.
  }
  SlicesValid = SCache != nullptr;
  if (DeadlineHit) {
    Health.DeadlineExpired = true;
    Health.DeadlineStage = phaseName(Phase::BuildGraph);
  }
  BuildSeconds = BuildSpan.finish();
  if (Reg.enabled()) {
    Reg.gauge("build.projects").set(static_cast<double>(Total));
    Reg.gauge("build.files").set(static_cast<double>(NumFiles));
    Reg.gauge("build.events").set(static_cast<double>(Graph.numEvents()));
    if (!Health.Quarantined.empty())
      Reg.counter("health.quarantined").add(Health.Quarantined.size());
    if (!Health.CacheIncidents.empty())
      Reg.counter("health.cache_incidents")
          .add(Health.CacheIncidents.size());
  }
  if (Observer)
    Observer->onStageFinished(Phase::BuildGraph, BuildSeconds);
  GraphReady = true;
  return *this;
}

Session &Session::generateConstraints(const spec::SeedSpec &Seed) {
  buildGraph();
  armDeadline(); // adoptGraph() skips buildGraph's arming.
  unsigned Jobs = resolveJobs();
  ThreadPool *P = poolFor(Jobs);
  JobsUsed = Jobs;
  if (Observer)
    Observer->onPhase(Phase::GenerateConstraints);

  metrics::Registry &Reg = metrics::Registry::global();
  trace::Span GenSpan(Reg, "session/constraints");
  const PropagationGraph *LearnGraph = &Graph;
  PropagationGraph Collapsed;
  if (Opts.CollapseForLearning) {
    Collapsed = Graph.collapseByRep();
    LearnGraph = &Collapsed;
  }
  // Representation frequencies always come from the uncollapsed graph:
  // contraction collapses every representation to one occurrence, which
  // would starve the §4.3 frequency cutoff.
  Reps = RepTable();
  Reps.countOccurrences(Graph);
  Incr = IncrStats();
  // The incremental path composes per-project shards; it requires the
  // per-project slices buildGraph records (adopted graphs have none) and
  // an uncollapsed learning graph — vertex contraction crosses project
  // boundaries, so a collapsed system is not per-project composable.
  bool UseShards = SCache && SlicesValid && !Opts.CollapseForLearning;
  try {
    if (UseShards)
      System = composeFromShards(Seed, P);
    else
      System = constraints::generateConstraints(*LearnGraph, Reps, Seed,
                                                Opts.Gen, P,
                                                &GenShardSeconds,
                                                &RunDeadline);
  } catch (const DeadlineError &) {
    // Constraint generation is all-or-nothing (a truncated system would
    // change the learned scores silently), so expiry propagates — but the
    // health report records which stage the budget killed.
    Health.DeadlineExpired = true;
    Health.DeadlineStage = phaseName(Phase::GenerateConstraints);
    throw;
  }
  SystemFromShards = UseShards;
  GenSeconds = GenSpan.finish();
  if (Reg.enabled()) {
    Reg.gauge("gen.constraints")
        .set(static_cast<double>(System.Constraints.size()));
    Reg.gauge("gen.vars").set(static_cast<double>(System.Vars.numVars()));
    Reg.gauge("gen.candidates")
        .set(static_cast<double>(System.NumCandidates));
    Reg.gauge("gen.avg_backoff").set(System.AvgBackoffOptions);
    Reg.gauge("gen.pinned").set(static_cast<double>(System.Pinned.size()));
    if (UseShards) {
      Reg.gauge("incr.shards_hit")
          .set(static_cast<double>(Incr.ShardsHit));
      Reg.gauge("incr.shards_rebuilt")
          .set(static_cast<double>(Incr.ShardsRebuilt));
      Reg.gauge("incr.shards_stored")
          .set(static_cast<double>(Incr.ShardsStored));
    }
  }
  if (Observer)
    Observer->onStageFinished(Phase::GenerateConstraints, GenSeconds);
  SystemReady = true;
  return *this;
}

constraints::ConstraintSystem
Session::composeFromShards(const spec::SeedSpec &Seed, ThreadPool *P) {
  metrics::Registry &Reg = metrics::Registry::global();
  const size_t N = Slices.size();
  std::vector<constraints::ConstraintShard> Shards(N);
  std::vector<uint8_t> Hit(N, 0), Stored(N, 0);
  std::mutex HealthMutex;
  GenShardSeconds.assign(P ? P->numWorkers() : 1, 0.0);

  // Load-or-extract fans out over projects; each worker touches disjoint
  // slots. Like the graph cache, a *throwing* shard cache degrades to a
  // re-extraction / skipped write-back — the cache is transparent, so the
  // composed system stays byte-identical either way.
  auto ShardOne = [&](size_t I, unsigned Worker) {
    // Cooperative cancellation at the project boundary: composition is
    // all-or-nothing, so expiry is a hard error (rethrown
    // deterministically by parallelFor).
    if (RunDeadline.expired())
      throw DeadlineError("deadline expired during shard extraction");
    Timer ShardTimer;
    const ProjectSlice &Slice = Slices[I];
    cache::CacheKey Key =
        cache::projectShardKey(Slice.GraphKey, Opts.Gen, Seed);
    std::optional<constraints::ConstraintShard> FromCache;
    try {
      FromCache = SCache->load(Key);
    } catch (const std::exception &E) {
      std::lock_guard<std::mutex> Lock(HealthMutex);
      Health.CacheIncidents.push_back(
          "project " + Projects[Slice.ProjectIndex]->name() +
          ": shard read degraded to re-extraction: " + E.what());
    }
    if (FromCache) {
      Shards[I] = std::move(*FromCache);
      Hit[I] = 1;
    } else {
      if (fault::enabled())
        fault::maybeThrow(fault::Point::ConstraintGen, I);
      Shards[I] = constraints::extractShard(Graph, Slice.FileBegin,
                                            Slice.FileEnd);
      try {
        if (SCache->store(Key, Shards[I]))
          Stored[I] = 1;
      } catch (const std::exception &E) {
        std::lock_guard<std::mutex> Lock(HealthMutex);
        Health.CacheIncidents.push_back(
            "project " + Projects[Slice.ProjectIndex]->name() +
            ": shard write skipped: " + E.what());
      }
    }
    GenShardSeconds[Worker] += ShardTimer.seconds();
  };
  if (P)
    P->parallelFor(N, ShardOne);
  else
    for (size_t I = 0; I < N; ++I)
      ShardOne(I, 0);

  for (size_t I = 0; I < N; ++I) {
    Incr.ShardsHit += Hit[I];
    Incr.ShardsRebuilt += 1 - Hit[I];
    Incr.ShardsStored += Stored[I];
  }

  // Deterministic delta merge: replay the shards in corpus order. The
  // merge is serial — it is cheap relative to extraction — so the result
  // is byte-identical to direct generation at any Jobs value.
  Timer MergeTimer;
  std::vector<const constraints::ConstraintShard *> Ptrs;
  Ptrs.reserve(N);
  for (const constraints::ConstraintShard &Shard : Shards)
    Ptrs.push_back(&Shard);
  constraints::ConstraintSystem Sys = constraints::composeConstraints(
      Graph, Reps, Seed, Ptrs, Opts.Gen, P, &RunDeadline);
  if (Reg.enabled())
    Reg.timer("incr.merge_seconds").record(MergeTimer.seconds());
  return Sys;
}

bool Session::pinVariable(const std::string &Rep, propgraph::Role R,
                          double Value) {
  assert(SystemReady &&
         "Session::pinVariable() requires generateConstraints() first");
  propgraph::RepId Id;
  constraints::VarId V;
  if (!Reps.lookup(Rep, Id) || !System.Vars.lookup(Id, R, V))
    return false;
  for (auto &[Var, Pinned] : System.Pinned)
    if (Var == V) {
      Pinned = Value;
      return true;
    }
  System.Pinned.emplace_back(V, Value);
  return true;
}

PipelineResult Session::solve() {
  assert(SystemReady &&
         "Session::solve() requires generateConstraints() first");
  armDeadline();
  unsigned Jobs = resolveJobs();
  ThreadPool *P = poolFor(Jobs);
  JobsUsed = Jobs;
  if (Observer)
    Observer->onPhase(Phase::Solve);

  PipelineResult Result;
  Result.Graph = Graph;
  Result.Reps = Reps;
  Result.System = System;
  Result.NumFiles = NumFiles;
  Result.BuildSeconds = BuildSeconds;
  Result.BuildShardSeconds = BuildShardSeconds;
  Result.GenSeconds = GenSeconds;
  Result.GenShardSeconds = GenShardSeconds;
  Result.JobsUsed = Jobs;
  Result.UsedCache = Cache != nullptr;
  if (Cache)
    Result.Cache = Cache->stats();
  Result.UsedShardCache = SystemFromShards;
  if (SCache)
    Result.ShardCacheStats = SCache->stats();

  // Feedback reweighting: append the evidence rows to this solve's copy
  // of the system (the session's own System stays row-clean, so dropping
  // the feedback later needs no regeneration). The rows are ordinary
  // constraints the solver treats like any other; an empty set appends
  // nothing and the run is byte-identical to the passive path.
  if (Opts.Feedback && !Opts.Feedback->empty()) {
    Result.UsedFeedback = true;
    Result.Feedback = constraints::applyFeedback(
        Result.System, Result.Reps, *Opts.Feedback, Opts.FeedbackOpts);
  }

  solver::SolveOptions SolveOpts = Opts.Solve;
  if (Opts.WarmStart) {
    // Seed each variable with the previous run's score for its
    // (representation, role); variables new to this system start at the
    // cold init (zero — scores for unseen representations are zero, and
    // minimize() projects the point, re-applying the seed pins). A
    // warm start moves only the starting iterate: the objective, its
    // minimizers, and the convergence test are unchanged.
    const constraints::VarTable &Vars = Result.System.Vars;
    std::vector<double> Warm(Vars.numVars(), 0.0);
    for (uint32_t V = 0; V < Vars.numVars(); ++V) {
      const std::string &Rep = Result.Reps.repString(Vars.repOf(V));
      Warm[V] = Opts.WarmStart->score(Rep, Vars.roleOf(V));
    }
    SolveOpts.WarmStart = std::move(Warm);
  }
  Incr.WarmStarted = Opts.WarmStart != nullptr;
  Result.Incr = Incr;
  if (RunDeadline.armed()) {
    // Cap the solver's own budget by what the run budget has left, and let
    // it poll the shared deadline between iterations.
    double Remaining = RunDeadline.remainingSeconds();
    if (SolveOpts.BudgetSeconds <= 0.0 ||
        Remaining < SolveOpts.BudgetSeconds)
      SolveOpts.BudgetSeconds = std::max(Remaining, 1e-9);
    const Deadline *StopAt = &RunDeadline;
    auto UserStop = SolveOpts.ShouldStop;
    SolveOpts.ShouldStop = [StopAt, UserStop]() {
      return StopAt->expired() || (UserStop && UserStop());
    };
  }
  if (Observer) {
    ProgressObserver *Obs = Observer;
    auto UserCallback = SolveOpts.OnIteration;
    SolveOpts.OnIteration = [Obs, UserCallback](int Iter, double Value) {
      if (UserCallback)
        UserCallback(Iter, Value);
      Obs->onSolveIteration(Iter, Value);
    };
  }

  metrics::Registry &Reg = metrics::Registry::global();
  trace::Span SolveSpan(Reg, "session/solve");
  // The blocked kernel is bit-identical to the compiled and legacy
  // evaluators at every tier and Jobs setting (docs/architecture.md), so
  // the learned scores do not depend on the host's SIMD support.
  solver::SimdObjective Obj = Result.System.makeSimdObjective(Opts.Lambda);
  Obj.setThreadPool(P);
  Result.SolverStats = Obj.stats();
  Result.SolverTier = Obj.tier();
  if (Opts.UseAdam)
    Result.Solve = solver::AdamOptimizer(SolveOpts).minimize(Obj);
  else
    Result.Solve = solver::ProjectedGradient(SolveOpts).minimize(Obj);
  Result.SolveSeconds = SolveSpan.finish();

  // Fold solver guard activity into the run health report.
  Health.SolverNonFiniteSteps = Result.Solve.NonFiniteSteps;
  Health.SolverRecoveries = Result.Solve.Recoveries;
  Health.SolverFellBack = Result.Solve.FellBack;
  if (Result.Solve.DeadlineExpired && !Health.DeadlineExpired) {
    Health.DeadlineExpired = true;
    Health.DeadlineStage = phaseName(Phase::Solve);
  }
  Result.Health = Health;

  if (Reg.enabled()) {
    const solver::CompileStats &CS = Result.SolverStats;
    Reg.gauge("solver.rows_before").set(static_cast<double>(CS.RowsBefore));
    Reg.gauge("solver.rows_after").set(static_cast<double>(CS.RowsAfter));
    Reg.gauge("solver.terms_before")
        .set(static_cast<double>(CS.TermsBefore));
    Reg.gauge("solver.nonzeros").set(static_cast<double>(CS.NonZeros));
    Reg.gauge("solver.max_multiplicity")
        .set(static_cast<double>(CS.MaxMultiplicity));
    Reg.gauge("solver.simd_tier")
        .set(static_cast<double>(Result.SolverTier));
    Reg.gauge("solve.final_objective").set(Result.Solve.FinalObjective);
    Reg.gauge("solve.converged").set(Result.Solve.Converged ? 1.0 : 0.0);
    Reg.gauge("incr.warm_start").set(Incr.WarmStarted ? 1.0 : 0.0);
    if (Result.UsedFeedback) {
      Reg.gauge("feedback.matched")
          .set(static_cast<double>(Result.Feedback.Matched));
      Reg.gauge("feedback.unmatched")
          .set(static_cast<double>(Result.Feedback.Unmatched));
      Reg.gauge("feedback.evidence_rows")
          .set(static_cast<double>(Result.Feedback.EvidenceRows));
      Reg.gauge("feedback.propagated_rows")
          .set(static_cast<double>(Result.Feedback.PropagatedRows));
    }
    if (Health.SolverNonFiniteSteps > 0)
      Reg.counter("health.solver_nonfinite")
          .add(static_cast<uint64_t>(Health.SolverNonFiniteSteps));
    if (Health.SolverRecoveries > 0)
      Reg.counter("health.solver_recoveries")
          .add(static_cast<uint64_t>(Health.SolverRecoveries));
    Reg.gauge("health.solver_fellback")
        .set(Health.SolverFellBack ? 1.0 : 0.0);
    Reg.gauge("health.deadline_expired")
        .set(Health.DeadlineExpired ? 1.0 : 0.0);
    Reg.gauge("health.status")
        .set(static_cast<double>(Health.status()));
    if (fault::enabled())
      Reg.gauge("health.fault_trips")
          .set(static_cast<double>(fault::totalTrips()));
  }
  if (Observer)
    Observer->onStageFinished(Phase::Solve, Result.SolveSeconds);

  // Read scores back: one entry per (representation, role) variable.
  const constraints::VarTable &Vars = Result.System.Vars;
  for (uint32_t V = 0; V < Vars.numVars(); ++V) {
    const std::string &Rep = Result.Reps.repString(Vars.repOf(V));
    Result.Learned.setScore(Rep, Vars.roleOf(V), Result.Solve.X[V]);
  }
  return Result;
}

bool Session::restoreSolve(const solver::SolveResult &Restored,
                           PipelineResult &Out) {
  assert(SystemReady &&
         "Session::restoreSolve() requires generateConstraints() first");
  if (Restored.X.size() != System.Vars.numVars())
    return false;

  // Mirror solve()'s artifact copies so a restored result is
  // indistinguishable from a freshly solved one to every consumer.
  PipelineResult Result;
  Result.Graph = Graph;
  Result.Reps = Reps;
  Result.System = System;
  Result.NumFiles = NumFiles;
  Result.BuildSeconds = BuildSeconds;
  Result.BuildShardSeconds = BuildShardSeconds;
  Result.GenSeconds = GenSeconds;
  Result.GenShardSeconds = GenShardSeconds;
  Result.JobsUsed = resolveJobs();
  Result.UsedCache = Cache != nullptr;
  if (Cache)
    Result.Cache = Cache->stats();
  Result.UsedShardCache = SystemFromShards;
  if (SCache)
    Result.ShardCacheStats = SCache->stats();

  // Feedback rows land on the result's System copy exactly as in solve():
  // a query against the restored result sees the same rows a pre-crash
  // query saw.
  if (Opts.Feedback && !Opts.Feedback->empty()) {
    Result.UsedFeedback = true;
    Result.Feedback = constraints::applyFeedback(
        Result.System, Result.Reps, *Opts.Feedback, Opts.FeedbackOpts);
  }
  Incr.WarmStarted = Opts.WarmStart != nullptr;
  Result.Incr = Incr;
  Result.Solve = Restored;
  Result.Health = Health;

  const constraints::VarTable &Vars = Result.System.Vars;
  for (uint32_t V = 0; V < Vars.numVars(); ++V) {
    const std::string &Rep = Result.Reps.repString(Vars.repOf(V));
    Result.Learned.setScore(Rep, Vars.roleOf(V), Result.Solve.X[V]);
  }
  Out = std::move(Result);
  return true;
}
