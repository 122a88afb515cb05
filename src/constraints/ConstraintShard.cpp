//===- constraints/ConstraintShard.cpp - Per-project constraints ----------===//

#include "constraints/ConstraintShard.h"

#include "support/Deadline.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <cstdint>
#include <iterator>
#include <unordered_map>

using namespace seldon;
using namespace seldon::constraints;
using namespace seldon::propgraph;

size_t ConstraintShard::numAnchors() const {
  size_t N = 0;
  for (const ShardFile &F : Files)
    N += F.SanAnchors.size() + F.SrcAnchors.size();
  return N;
}

namespace {

/// Shard-local interning of strings and events during extraction.
class ShardInterner {
public:
  explicit ShardInterner(ConstraintShard &Shard) : Shard(Shard) {}

  ShardEventId internEvent(const Event &E) {
    auto It = EventIds.find(E.Id);
    if (It != EventIds.end())
      return It->second;
    ShardEventId Id = static_cast<ShardEventId>(Shard.Events.size());
    ShardEvent SE;
    SE.Reps.reserve(E.Reps.size());
    for (const std::string &Rep : E.Reps)
      SE.Reps.push_back(internString(Rep));
    Shard.Events.push_back(std::move(SE));
    EventIds.emplace(E.Id, Id);
    return Id;
  }

private:
  ShardStrId internString(const std::string &Text) {
    auto It = StringIds.find(Text);
    if (It != StringIds.end())
      return It->second;
    ShardStrId Id = static_cast<ShardStrId>(Shard.Strings.size());
    Shard.Strings.push_back(Text);
    StringIds.emplace(Text, Id);
    return Id;
  }

  ConstraintShard &Shard;
  std::unordered_map<EventId, ShardEventId> EventIds;
  std::unordered_map<std::string, ShardStrId> StringIds;
};

/// The per-file reachability pass of FileExtractor (ConstraintGen.cpp),
/// minus all filtering: candidates are taken from the role mask alone, and
/// every anchor is recorded with its full upstream/downstream sets so the
/// merge can filter later. Must mirror FileExtractor's traversal order
/// exactly — anchors and their member lists are stored in the order serial
/// generation visits them.
class ShardFileExtractor {
public:
  ShardFileExtractor(const PropagationGraph &Graph,
                     const std::vector<EventId> &Local,
                     ShardInterner &Interner, ShardFile &Out)
      : Graph(Graph), Local(Local), Interner(Interner), Out(Out) {}

  void run() {
    for (EventId Id : Local) {
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
  void extractSanitizerAnchored() {
    for (EventId San : Sanitizers) {
      const std::vector<EventId> &Fwd = forwardSet(San);
      std::vector<EventId> Bwd = backwardSet(San);

      std::vector<EventId> SinksAfter = membersOf(Sinks, Fwd);
      std::vector<EventId> SourcesBefore = membersOf(Sources, Bwd);
      if (SinksAfter.empty() && SourcesBefore.empty())
        continue;

      ShardSanAnchor Anchor;
      Anchor.San = ref(San);
      Anchor.SourcesBefore = refAll(SourcesBefore);
      Anchor.SinksAfter = refAll(SinksAfter);
      Out.SanAnchors.push_back(std::move(Anchor));
    }
  }

  void extractSourceSinkPairs() {
    for (EventId Src : Sources) {
      const std::vector<EventId> &Fwd = forwardSet(Src);
      std::vector<EventId> SinksAfter = membersOf(Sinks, Fwd);
      std::vector<EventId> SansAfter = membersOf(Sanitizers, Fwd);
      ShardSrcAnchor Anchor;
      for (EventId Snk : SinksAfter) {
        if (Snk == Src)
          continue;
        ShardSrcPair Pair;
        Pair.Snk = ref(Snk);
        for (EventId Mid : SansAfter) {
          if (Mid == Snk || Mid == Src)
            continue;
          if (contains(forwardSet(Mid), Snk))
            Pair.Mids.push_back(ref(Mid));
        }
        Anchor.Pairs.push_back(std::move(Pair));
      }
      if (!Anchor.Pairs.empty()) {
        Anchor.Src = ref(Src);
        Out.SrcAnchors.push_back(std::move(Anchor));
      }
    }
  }

  ShardEventId ref(EventId Id) { return Interner.internEvent(Graph.event(Id)); }

  std::vector<ShardEventId> refAll(const std::vector<EventId> &Ids) {
    std::vector<ShardEventId> Out;
    Out.reserve(Ids.size());
    for (EventId Id : Ids)
      Out.push_back(ref(Id));
    return Out;
  }

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

  const PropagationGraph &Graph;
  const std::vector<EventId> &Local;
  ShardInterner &Interner;
  ShardFile &Out;
  std::vector<EventId> Sources, Sanitizers, Sinks;
  std::unordered_map<EventId, std::vector<EventId>> FwdCache;
};

} // namespace

ConstraintShard
seldon::constraints::extractShard(const PropagationGraph &Graph,
                                  uint32_t FileBegin, uint32_t FileEnd,
                                  EventId EventBegin, EventId EventEnd) {
  ConstraintShard Shard;
  if (FileEnd <= FileBegin)
    return Shard;
  Shard.Files.resize(FileEnd - FileBegin);

  // Group the slice's events by file in event-id order — the same grouping
  // generateConstraints uses, so anchor member lists come out in candidate
  // order.
  std::vector<std::vector<EventId>> ByFile(FileEnd - FileBegin);
  assert(EventBegin <= EventEnd && EventEnd <= Graph.numEvents());
  for (EventId Id = EventBegin; Id < EventEnd; ++Id) {
    const Event &E = Graph.event(Id);
    if (E.FileIdx >= FileBegin && E.FileIdx < FileEnd)
      ByFile[E.FileIdx - FileBegin].push_back(Id);
  }

  ShardInterner Interner(Shard);
  for (size_t F = 0; F < ByFile.size(); ++F) {
    if (ByFile[F].empty())
      continue;
    ShardFileExtractor Extractor(Graph, ByFile[F], Interner, Shard.Files[F]);
    Extractor.run();
  }
  return Shard;
}

void seldon::constraints::appendShard(const ConstraintShard &Shard,
                                      const RepTable &Reps,
                                      const spec::SeedSpec &Seed,
                                      const GenOptions &Opts,
                                      ConstraintSystem &Sys) {
  // Resolve each shard event's surviving backoff options once: global
  // frequency cutoff (§4.3) + blacklist (§7.2), preserving the stored
  // most-to-least-specific order — exactly the filter generateConstraints
  // applies per event. An unknown representation (possible only with a
  // shard/graph mismatch; the cache key rules that out) is simply dropped,
  // like backoffOptions drops unknown strings.
  // Option strings recur across events (every `flask.request.*` read in a
  // file carries the same backoff spellings), so resolve each distinct
  // interned string once and fan the verdict out to the referencing
  // events.
  std::vector<RepId> StrRep(Shard.Strings.size());
  std::vector<uint8_t> StrKept(Shard.Strings.size(), 0);
  for (size_t S = 0; S < Shard.Strings.size(); ++S) {
    const std::string &Rep = Shard.Strings[S];
    RepId Id;
    if (!Reps.lookup(Rep, Id))
      continue;
    if (Reps.occurrences(Id) < Opts.RepCutoff)
      continue;
    if (Seed.isBlacklisted(Rep))
      continue;
    StrRep[S] = Id;
    StrKept[S] = 1;
  }
  std::vector<std::vector<RepId>> Kept(Shard.Events.size());
  for (size_t E = 0; E < Shard.Events.size(); ++E)
    for (ShardStrId S : Shard.Events[E].Reps)
      if (StrKept[S])
        Kept[E].push_back(StrRep[S]);

  auto Alive = [&](ShardEventId E) { return !Kept[E].empty(); };
  auto Surviving = [&](const std::vector<ShardEventId> &Ids) {
    std::vector<ShardEventId> Out;
    for (ShardEventId Id : Ids)
      if (Alive(Id))
        Out.push_back(Id);
    return Out;
  };
  // Mirrors FileExtractor::avgTerms, with one crucial difference:
  // variables are interned straight into the global table. Events recur
  // across many constraints (a source anchor's option terms appear in
  // every pair it forms), so the term block for an (event, role) is built
  // once, into one flat cache, and copied from there afterwards — the
  // build happens lazily at the block's first use, which is exactly where
  // the uncached replay would have issued its first varFor calls, so
  // variable interning order — and with it every id in the composed
  // system — is unchanged.
  constexpr uint32_t NotBuilt = UINT32_MAX;
  std::vector<solver::Term> CacheTerms;
  std::vector<std::array<uint32_t, propgraph::NumRoles>> CacheAt(
      Shard.Events.size(), {NotBuilt, NotBuilt, NotBuilt});
  auto TermsOf = [&](ShardEventId E, Role R) -> solver::TermRange {
    const std::vector<RepId> &Options = Kept[E];
    uint32_t &At = CacheAt[E][static_cast<size_t>(R)];
    if (At == NotBuilt) {
      At = static_cast<uint32_t>(CacheTerms.size());
      float Coef = 1.0f / static_cast<float>(Options.size());
      for (RepId Rep : Options)
        CacheTerms.push_back({Sys.Vars.varFor(Rep, R), Coef});
    }
    const solver::Term *First = CacheTerms.data() + At;
    return {First, First + Options.size()};
  };
  solver::ConstraintRows &Rows = Sys.Constraints;
  auto AppendAvg = [&](ShardEventId E, Role R) {
    solver::TermRange Block = TermsOf(E, R);
    Rows.addTerms(Block.begin(), Block.end());
  };
  std::vector<solver::Term> Sum;
  auto SumTerms = [&](const std::vector<ShardEventId> &Ids, Role R) {
    Sum.clear();
    for (ShardEventId Id : Ids) {
      solver::TermRange Block = TermsOf(Id, R);
      Sum.insert(Sum.end(), Block.begin(), Block.end());
    }
  };

  for (const ShardFile &File : Shard.Files) {
    // Fig. 4a / 4b — an anchor whose sanitizer was filtered out never
    // entered the serial candidate list, so it contributes nothing.
    for (const ShardSanAnchor &Anchor : File.SanAnchors) {
      if (!Alive(Anchor.San))
        continue;
      std::vector<ShardEventId> SinksAfter = Surviving(Anchor.SinksAfter);
      std::vector<ShardEventId> SourcesBefore =
          Surviving(Anchor.SourcesBefore);
      if (SinksAfter.empty() && SourcesBefore.empty())
        continue;

      SumTerms(SourcesBefore, Role::Source);
      size_t Pairs = 0;
      for (ShardEventId Snk : SinksAfter) {
        if (++Pairs > Opts.MaxPairsPerAnchor)
          break;
        AppendAvg(Anchor.San, Role::Sanitizer);
        AppendAvg(Snk, Role::Sink);
        Rows.beginRhs();
        Rows.addTerms(Sum.data(), Sum.data() + Sum.size());
        Rows.endRow(Opts.C);
      }

      SumTerms(SinksAfter, Role::Sink);
      Pairs = 0;
      for (ShardEventId Src : SourcesBefore) {
        if (++Pairs > Opts.MaxPairsPerAnchor)
          break;
        AppendAvg(Src, Role::Source);
        AppendAvg(Anchor.San, Role::Sanitizer);
        Rows.beginRhs();
        Rows.addTerms(Sum.data(), Sum.data() + Sum.size());
        Rows.endRow(Opts.C);
      }
    }

    // Fig. 4c — the pair cap counts surviving sinks only; stored pairs
    // already exclude Snk == Src (serial skips those before counting).
    for (const ShardSrcAnchor &Anchor : File.SrcAnchors) {
      if (!Alive(Anchor.Src))
        continue;
      size_t Pairs = 0;
      for (const ShardSrcPair &Pair : Anchor.Pairs) {
        if (!Alive(Pair.Snk))
          continue;
        if (++Pairs > Opts.MaxPairsPerAnchor)
          break;
        AppendAvg(Anchor.Src, Role::Source);
        AppendAvg(Pair.Snk, Role::Sink);
        Rows.beginRhs();
        for (ShardEventId Mid : Pair.Mids)
          if (Alive(Mid))
            AppendAvg(Mid, Role::Sanitizer);
        Rows.endRow(Opts.C);
      }
    }
  }
}

ConstraintSystem seldon::constraints::composeConstraints(
    const PropagationGraph &Graph, const RepTable &Reps,
    const spec::SeedSpec &Seed,
    const std::vector<const ConstraintShard *> &Shards,
    const GenOptions &Opts, ThreadPool *Pool, const Deadline *StopAt) {
  ConstraintSystem Sys = prepareSystem(Graph, Reps, Seed, Opts, Pool);
  for (const ConstraintShard *Shard : Shards) {
    // All-or-nothing, like generation: a truncated composition would
    // change the learned scores silently.
    if (StopAt && StopAt->expired())
      throw DeadlineError("deadline expired during constraint composition");
    if (Shard)
      appendShard(*Shard, Reps, Seed, Opts, Sys);
  }
  return Sys;
}
