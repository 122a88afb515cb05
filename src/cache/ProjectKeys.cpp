//===- cache/ProjectKeys.cpp - Per-project cache keys ---------------------===//

#include "cache/ProjectKeys.h"

#include "constraints/ShardCodec.h"
#include "propgraph/GraphCodec.h"
#include "support/BinaryCodec.h"

#include <algorithm>
#include <cstring>

using namespace seldon;
using namespace seldon::cache;

using codec::hashChunk;
using codec::hashValue;

CacheKey seldon::cache::projectCacheKey(const pysem::Project &Proj,
                                        const propgraph::BuildOptions &Opts) {
  uint64_t Hash = 0xcbf29ce484222325ull;
  hashChunk(Hash, "seldon-graph-cache");
  hashValue(Hash, propgraph::GraphCodecVersion);

  // Every frontend knob participates: flipping any of them must rebuild.
  hashValue(Hash, static_cast<uint64_t>(Opts.MaxInlineDepth));
  hashValue(Hash, Opts.ModelLocals);
  hashValue(Hash, Opts.UsePointsTo);
  hashValue(Hash, Opts.ArgPositionReps);
  hashValue(Hash, Opts.PreciseInlining);
  hashValue(Hash, Opts.CrossModuleFlows);

  hashValue(Hash, Proj.modules().size());
  for (const pysem::ModuleInfo &M : Proj.modules()) {
    hashChunk(Hash, M.Path);
    hashChunk(Hash, M.Source);
  }
  CacheKey Key;
  Key.Hash = Hash;
  return Key;
}

CacheKey seldon::cache::projectShardKey(const CacheKey &GraphKey,
                                        const constraints::GenOptions &Gen,
                                        const spec::SeedSpec &Seed) {
  uint64_t Hash = 0xcbf29ce484222325ull;
  hashChunk(Hash, "seldon-shard-cache");
  hashValue(Hash, constraints::ShardCodecVersion);

  // Every generation knob participates: flipping any must regenerate.
  uint64_t CBits;
  static_assert(sizeof(CBits) == sizeof(Gen.C), "C must be a double");
  std::memcpy(&CBits, &Gen.C, sizeof(CBits));
  hashValue(Hash, CBits);
  hashValue(Hash, Gen.RepCutoff);
  hashValue(Hash, Gen.MaxPairsPerAnchor);

  // The seed spec drives both the blacklist filter and the pins. entries()
  // iterates an unordered_map, so sort for a process-independent hash.
  std::vector<std::pair<std::string, uint64_t>> Entries;
  Entries.reserve(Seed.Spec.entries().size());
  for (const auto &[Rep, Mask] : Seed.Spec.entries())
    Entries.emplace_back(Rep, Mask);
  std::sort(Entries.begin(), Entries.end());
  hashValue(Hash, Entries.size());
  for (const auto &[Rep, Mask] : Entries) {
    hashChunk(Hash, Rep);
    hashValue(Hash, Mask);
  }
  hashValue(Hash, Seed.Blacklist.patterns().size());
  for (const std::string &Pattern : Seed.Blacklist.patterns())
    hashChunk(Hash, Pattern);

  // The graph key covers the sources and every frontend knob, so a source
  // touch or build-option flip invalidates the shard too.
  hashValue(Hash, GraphKey.Hash);

  CacheKey Key;
  Key.Hash = Hash;
  return Key;
}
