//===- constraints/ConstraintGen.cpp - Fig. 4 constraint extraction -------===//

#include "constraints/ConstraintGen.h"

#include "support/Deadline.h"
#include "support/FaultInjection.h"
#include "support/ThreadPool.h"
#include "support/Timer.h"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <iterator>
#include <unordered_map>

using namespace seldon;
using namespace seldon::constraints;
using namespace seldon::propgraph;

namespace {

/// Per-file constraint extraction context. Reachability queries stay inside
/// one file because per-file subgraphs are edge-disjoint. Reads the shared
/// backoff options but interns variables into its own local table and
/// appends rows only to its own flat Out block, so one extractor per file
/// can run concurrently with no shared mutable state. Rows come back with
/// file-local variable ids; the caller replays each local table into the
/// global one (in file order) and remaps, which reproduces the exact id
/// assignment of a serial run.
class FileExtractor {
public:
  FileExtractor(const PropagationGraph &Graph,
                const std::vector<std::vector<RepId>> &EventReps,
                const GenOptions &Opts, const std::vector<EventId> &Local,
                VarTable &LocalVars, solver::ConstraintRows &Out)
      : Graph(Graph), EventReps(EventReps), Opts(Opts), Local(Local),
        LocalVars(LocalVars), Out(Out) {}

  void run() {
    // Collect the file's candidates per role (events with surviving reps).
    for (EventId Id : Local) {
      if (EventReps[Id].empty())
        continue;
      RoleMask Mask = Graph.event(Id).Candidates;
      if (maskHas(Mask, Role::Source))
        Sources.push_back(Id);
      if (maskHas(Mask, Role::Sanitizer))
        Sanitizers.push_back(Id);
      if (maskHas(Mask, Role::Sink))
        Sinks.push_back(Id);
    }
    extractSanitizerAnchored();
    extractSourceSinkPairs();
  }

private:
  /// Fig. 4a and Fig. 4b share the per-sanitizer forward/backward scans.
  void extractSanitizerAnchored() {
    for (EventId San : Sanitizers) {
      const std::vector<EventId> &Fwd = forwardSet(San);
      std::vector<EventId> Bwd = backwardSet(San);

      std::vector<EventId> SinksAfter = membersOf(Sinks, Fwd);
      std::vector<EventId> SourcesBefore = membersOf(Sources, Bwd);
      if (SinksAfter.empty() && SourcesBefore.empty())
        continue;

      // Fig. 4a: san(v) + snk(t) <= sum of sources into v + C.
      sumTerms(SourcesBefore, Role::Source);
      size_t Pairs = 0;
      for (EventId Snk : SinksAfter) {
        if (++Pairs > Opts.MaxPairsPerAnchor)
          break;
        addAvgTerms(San, Role::Sanitizer);
        addAvgTerms(Snk, Role::Sink);
        Out.beginRhs();
        Out.addTerms(Sum.data(), Sum.data() + Sum.size());
        Out.endRow(Opts.C);
      }

      // Fig. 4b: src(s) + san(v) <= sum of sinks after v + C.
      sumTerms(SinksAfter, Role::Sink);
      Pairs = 0;
      for (EventId Src : SourcesBefore) {
        if (++Pairs > Opts.MaxPairsPerAnchor)
          break;
        addAvgTerms(Src, Role::Source);
        addAvgTerms(San, Role::Sanitizer);
        Out.beginRhs();
        Out.addTerms(Sum.data(), Sum.data() + Sum.size());
        Out.endRow(Opts.C);
      }
    }
  }

  /// Fig. 4c: src(s) + snk(t) <= sum of sanitizers between s and t + C.
  void extractSourceSinkPairs() {
    for (EventId Src : Sources) {
      const std::vector<EventId> &Fwd = forwardSet(Src);
      std::vector<EventId> SinksAfter = membersOf(Sinks, Fwd);
      std::vector<EventId> SansAfter = membersOf(Sanitizers, Fwd);
      size_t Pairs = 0;
      for (EventId Snk : SinksAfter) {
        if (Snk == Src)
          continue;
        if (++Pairs > Opts.MaxPairsPerAnchor)
          break;
        addAvgTerms(Src, Role::Source);
        addAvgTerms(Snk, Role::Sink);
        Out.beginRhs();
        for (EventId Mid : SansAfter) {
          if (Mid == Snk || Mid == Src)
            continue;
          if (contains(forwardSet(Mid), Snk))
            addAvgTerms(Mid, Role::Sanitizer);
        }
        Out.endRow(Opts.C);
      }
    }
  }

  /// Members of \p Candidates contained in \p Set, both in ascending id
  /// order (so is the result).
  static std::vector<EventId>
  membersOf(const std::vector<EventId> &Candidates,
            const std::vector<EventId> &Set) {
    std::vector<EventId> Out;
    std::set_intersection(Candidates.begin(), Candidates.end(), Set.begin(),
                          Set.end(), std::back_inserter(Out));
    return Out;
  }

  static bool contains(const std::vector<EventId> &Set, EventId Id) {
    return std::binary_search(Set.begin(), Set.end(), Id);
  }

  /// The events reachable from \p Id, sorted by id (memoized).
  const std::vector<EventId> &forwardSet(EventId Id) {
    auto It = FwdCache.find(Id);
    if (It != FwdCache.end())
      return It->second;
    std::vector<EventId> Set = Graph.reachableFrom(Id);
    std::sort(Set.begin(), Set.end());
    return FwdCache.emplace(Id, std::move(Set)).first->second;
  }

  /// The events reaching \p Id, sorted by id.
  std::vector<EventId> backwardSet(EventId Id) const {
    std::vector<EventId> Set = Graph.reachingTo(Id);
    std::sort(Set.begin(), Set.end());
    return Set;
  }

  /// The backoff-averaged terms of (event, role) — paper §4.3:
  /// (1/|Reps(v)|) · Σ over the surviving options, handed to \p Add.
  /// Variables are interned into the file-local table in first-use order,
  /// mirroring the order a serial run would create them.
  template <typename AddFn> void avgTerms(EventId Id, Role R, AddFn Add) {
    const std::vector<RepId> &Options = EventReps[Id];
    float Coef = 1.0f / static_cast<float>(Options.size());
    for (RepId Rep : Options)
      Add(solver::Term{LocalVars.varFor(Rep, R), Coef});
  }

  /// Appends the averaged terms of (event, role) to the open row.
  void addAvgTerms(EventId Id, Role R) {
    avgTerms(Id, R, [this](solver::Term T) { Out.addTerm(T); });
  }

  /// Sets Sum to the averaged terms of every event in \p Ids.
  void sumTerms(const std::vector<EventId> &Ids, Role R) {
    Sum.clear();
    for (EventId Id : Ids)
      avgTerms(Id, R, [this](solver::Term T) { Sum.push_back(T); });
  }

  const PropagationGraph &Graph;
  const std::vector<std::vector<RepId>> &EventReps;
  const GenOptions &Opts;
  const std::vector<EventId> &Local;
  VarTable &LocalVars;
  solver::ConstraintRows &Out;
  std::vector<EventId> Sources, Sanitizers, Sinks;
  /// The shared right-hand side of an anchor's Fig. 4a or 4b rows.
  std::vector<solver::Term> Sum;
  std::unordered_map<EventId, std::vector<EventId>> FwdCache;
};

/// Runs \p Body(Begin, End) over [0, \p N) in chunks of \p Chunk items,
/// on \p Pool when non-null.
template <typename BodyFn>
void forChunks(size_t N, size_t Chunk, ThreadPool *Pool, BodyFn Body) {
  const size_t NumChunks = (N + Chunk - 1) / Chunk;
  auto Run = [&](size_t C, unsigned) {
    Body(C * Chunk, std::min(N, (C + 1) * Chunk));
  };
  if (Pool)
    Pool->parallelFor(NumChunks, Run);
  else
    for (size_t C = 0; C < NumChunks; ++C)
      Run(C, 0);
}

} // namespace

ConstraintSystem
seldon::constraints::prepareSystem(const PropagationGraph &Graph,
                                   const RepTable &Reps,
                                   const spec::SeedSpec &Seed,
                                   const GenOptions &Opts, ThreadPool *Pool) {
  ConstraintSystem Sys;
  const std::vector<Event> &Events = Graph.events();
  Sys.EventReps.resize(Events.size());

  // Surviving backoff options: frequency cutoff (§4.3) + blacklist (§7.2).
  // Both depend only on the representation, and a corpus repeats a few
  // thousand representations across a hundred thousand event options, so
  // the verdict is taken once per distinct representation. Each event then
  // keeps its options that pass, in their most-to-least-specific order.
  // Every index writes only its own slots, so both loops fan out freely,
  // in fixed chunks (one shared counter bump per chunk, not per item).
  std::vector<uint8_t> Keep(Reps.size(), 0);
  auto DecideReps = [&](size_t Begin, size_t End) {
    for (size_t Id = Begin; Id < End; ++Id)
      Keep[Id] = Reps.occurrences(static_cast<RepId>(Id)) >= Opts.RepCutoff &&
                 !Seed.isBlacklisted(Reps.repString(static_cast<RepId>(Id)));
  };
  auto FilterEvents = [&](size_t Begin, size_t End) {
    for (size_t I = Begin; I < End; ++I) {
      const Event &E = Events[I];
      std::vector<RepId> &Kept = Sys.EventReps[E.Id];
      for (const std::string &Rep : E.Reps) {
        RepId Id;
        if (Reps.lookup(Rep, Id) && Keep[Id])
          Kept.push_back(Id);
      }
    }
  };
  forChunks(Keep.size(), 64, Pool, DecideReps);
  forChunks(Events.size(), 1024, Pool, FilterEvents);

  size_t BackoffTotal = 0;
  for (const std::vector<RepId> &Kept : Sys.EventReps) {
    if (!Kept.empty()) {
      ++Sys.NumCandidates;
      BackoffTotal += Kept.size();
    }
  }
  Sys.AvgBackoffOptions =
      Sys.NumCandidates == 0
          ? 0.0
          : static_cast<double>(BackoffTotal) /
                static_cast<double>(Sys.NumCandidates);

  // Seed pins (§4.1): a labeled representation fixes all three of its role
  // variables (1 for held roles, 0 for the others).
  for (const auto &[RepStr, Mask] : Seed.Spec.entries()) {
    RepId Id;
    if (!Reps.lookup(RepStr, Id))
      continue; // Seed API never occurs in this corpus.
    for (Role R : {Role::Source, Role::Sanitizer, Role::Sink}) {
      VarId V = Sys.Vars.varFor(Id, R);
      Sys.Pinned.emplace_back(V, maskHas(Mask, R) ? 1.0 : 0.0);
    }
  }
  return Sys;
}

ConstraintSystem
seldon::constraints::generateConstraints(const PropagationGraph &Graph,
                                         const RepTable &Reps,
                                         const spec::SeedSpec &Seed,
                                         const GenOptions &Opts,
                                         ThreadPool *Pool,
                                         std::vector<double> *ShardSecondsOut,
                                         const Deadline *StopAt) {
  ConstraintSystem Sys = prepareSystem(Graph, Reps, Seed, Opts, Pool);
  const std::vector<Event> &Events = Graph.events();

  // Group events by file and extract per file into private buffers. Each
  // shard interns variables into its own local table, so extraction
  // touches no shared mutable state.
  std::vector<std::vector<EventId>> ByFile(Graph.files().size());
  for (const Event &E : Events)
    ByFile[E.FileIdx].push_back(E.Id);

  std::vector<VarTable> FileVars(ByFile.size());
  std::vector<solver::ConstraintRows> FileRows(ByFile.size());
  unsigned Workers = Pool ? Pool->numWorkers() : 1;
  std::vector<double> ShardSeconds(Workers, 0.0);
  auto ExtractFile = [&](size_t F, unsigned Worker) {
    if (ByFile[F].empty())
      return;
    // Cooperative cancellation at the shard boundary: a truncated system
    // would silently change the learned scores, so expiry is a hard error
    // the caller contextualizes (parallelFor rethrows it deterministically).
    if (StopAt && StopAt->expired())
      throw DeadlineError("deadline expired during constraint generation");
    if (fault::enabled())
      fault::maybeThrow(fault::Point::ConstraintGen, F);
    Timer ShardTimer;
    FileExtractor Extractor(Graph, Sys.EventReps, Opts, ByFile[F],
                            FileVars[F], FileRows[F]);
    Extractor.run();
    ShardSeconds[Worker] += ShardTimer.seconds();
  };
  if (Pool)
    Pool->parallelFor(ByFile.size(), ExtractFile);
  else
    for (size_t F = 0; F < ByFile.size(); ++F)
      ExtractFile(F, 0);

  // Deterministic merge: walk the files in order and replay each local
  // variable table into the global one (local ids are in first-use order,
  // so this reproduces the exact ids a serial run assigns — including
  // variables a serial run creates for sums that end up in no row). The
  // replay is the only serial part; the flat blocks are then copied and
  // renamed into the global store at prefix-sum offsets in parallel.
  std::vector<std::vector<VarId>> Maps(FileVars.size());
  for (size_t F = 0; F < FileVars.size(); ++F) {
    const VarTable &Local = FileVars[F];
    Maps[F].resize(Local.numVars());
    for (VarId L = 0; L < Local.numVars(); ++L)
      Maps[F][L] = Sys.Vars.varFor(Local.repOf(L), Local.roleOf(L));
  }
  Sys.Constraints.appendBlocks(FileRows, Maps, Pool);

  if (ShardSecondsOut)
    *ShardSecondsOut = std::move(ShardSeconds);
  return Sys;
}
