//===- tests/cache_fault_test.cpp - Cache corruption injection ------------===//
//
// Fault injection against the cache loader: every truncation point and a
// bit flip in every region of a valid entry must produce a descriptive
// error, never a partially-populated graph; the graph store must evict the
// bad entry and the pipeline must transparently rebuild it with
// byte-identical output. Graph and shard stores sharing a directory keep
// to their own entries and metrics.
//
//===----------------------------------------------------------------------===//

#include "TestCorpus.h"

#include "cache/BlobStore.h"
#include "cache/ProjectKeys.h"
#include "constraints/ShardCodec.h"
#include "infer/Pipeline.h"
#include "propgraph/GraphCodec.h"
#include "spec/SpecIO.h"
#include "support/FileIO.h"
#include "support/Metrics.h"

#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <fstream>

using namespace seldon;
using namespace seldon::propgraph;
using constraints::ConstraintShard;
using constraints::decodeShard;
using constraints::encodeShard;

namespace fs = std::filesystem;

namespace {

/// A non-trivial project graph plus its cache key, shared by the suites.
struct Fixture {
  corpus::Corpus Data = testutil::makeCorpus(4242, /*NumProjects=*/2);
  const pysem::Project &Proj = Data.Projects.front();
  PropagationGraph Graph = buildProjectGraph(Proj);
  cache::CacheKey Key =
      cache::projectCacheKey(Proj, propgraph::BuildOptions());
};

std::string readFileBytes(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  EXPECT_TRUE(In.good()) << Path;
  return std::string((std::istreambuf_iterator<char>(In)),
                     std::istreambuf_iterator<char>());
}

void writeFileBytes(const std::string &Path, const std::string &Bytes) {
  std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
  Out.write(Bytes.data(), static_cast<std::streamsize>(Bytes.size()));
  ASSERT_TRUE(Out.good()) << Path;
}

//===----------------------------------------------------------------------===//
// Codec-level: truncation at every byte, flip of every byte
//===----------------------------------------------------------------------===//

TEST(CodecFaultTest, EveryTruncationIsRejected) {
  Fixture F;
  std::string Encoded = encodeGraph(F.Graph);
  ASSERT_GT(Encoded.size(), 16u);
  for (size_t Len = 0; Len < Encoded.size(); ++Len) {
    io::IOResult<PropagationGraph> R =
        decodeGraph(std::string_view(Encoded).substr(0, Len));
    EXPECT_FALSE(R.ok()) << "truncation to " << Len
                         << " byte(s) decoded successfully";
    EXPECT_FALSE(R.Error.empty());
    // Strictness: the value is never partially populated.
    EXPECT_EQ(R.Value.numEvents(), 0u) << "partial graph at length " << Len;
    EXPECT_EQ(R.Value.files().size(), 0u);
  }
}

TEST(CodecFaultTest, EveryBitFlipIsRejected) {
  Fixture F;
  std::string Encoded = encodeGraph(F.Graph);
  std::string Baseline = encodeGraph(F.Graph);
  for (size_t I = 0; I < Encoded.size(); ++I) {
    std::string Mutated = Encoded;
    Mutated[I] = static_cast<char>(Mutated[I] ^ 0xff);
    io::IOResult<PropagationGraph> R = decodeGraph(Mutated);
    EXPECT_FALSE(R.ok()) << "flip at byte " << I
                         << " decoded successfully";
    EXPECT_FALSE(R.Error.empty()) << "flip at byte " << I;
    EXPECT_EQ(R.Value.numEvents(), 0u) << "partial graph, flip at " << I;
  }
  // The sweep itself must not have perturbed anything.
  EXPECT_EQ(Encoded, Baseline);
}

//===----------------------------------------------------------------------===//
// Cache-level: mutated entries are evicted and rebuilt
//===----------------------------------------------------------------------===//

/// Region boundaries of a cache entry file: the 8-byte key prefix, then
/// the codec's header fields, then the payload sections. One mutation per
/// region exercises every distinct rejection path.
struct Region {
  const char *Name;
  size_t Offset;
};

TEST(CacheFaultTest, FlippedRegionsAreEvictedThenRebuilt) {
  Fixture F;
  std::string Dir = testutil::makeScratchDir("cache-fault");
  cache::BlobStore Cache(Dir, ".spg", "cache");
  ASSERT_TRUE(Cache.valid()) << Cache.error();
  ASSERT_TRUE(Cache.store(F.Key, encodeGraph(F.Graph)));
  std::string Path = Cache.entryPath(F.Key);
  std::string Valid = readFileBytes(Path);
  ASSERT_GT(Valid.size(), 32u);

  // Offsets: key prefix [0,8), magic [8,12), version [12,13), checksum
  // [13,21), payload length varint [21,...), then payload (files first,
  // events midway, edges near the end).
  const Region Regions[] = {
      {"key prefix", 0},
      {"magic", 8},
      {"format version", 12},
      {"checksum", 13},
      {"payload length", 21},
      {"payload head (files)", 24},
      {"payload middle (events)", Valid.size() / 2},
      {"payload tail (edges)", Valid.size() - 1},
  };

  for (const Region &R : Regions) {
    ASSERT_LT(R.Offset, Valid.size()) << R.Name;
    std::string Mutated = Valid;
    Mutated[R.Offset] = static_cast<char>(Mutated[R.Offset] ^ 0xff);
    writeFileBytes(Path, Mutated);

    cache::BlobStore Fresh(Dir, ".spg", "cache");
    uint64_t EvictionsBefore = Fresh.stats().Evictions;
    std::optional<PropagationGraph> Loaded =
        Fresh.load(F.Key, decodeGraph);
    EXPECT_FALSE(Loaded.has_value())
        << "corrupt " << R.Name << " entry loaded successfully";
    cache::CacheStats Stats = Fresh.stats();
    EXPECT_EQ(Stats.Evictions, EvictionsBefore + 1) << R.Name;
    EXPECT_EQ(Stats.Hits, 0u) << R.Name;
    ASSERT_FALSE(Stats.Errors.empty()) << R.Name;
    EXPECT_NE(Stats.Errors.back().find("evicted"), std::string::npos)
        << R.Name << ": " << Stats.Errors.back();
    // The bad entry is gone from disk...
    EXPECT_FALSE(fs::exists(Path))
        << R.Name << " entry survived eviction";

    // ...and a rebuild + re-store round-trips to a loadable entry again.
    ASSERT_TRUE(Fresh.store(F.Key, encodeGraph(F.Graph))) << R.Name;
    std::optional<PropagationGraph> Reloaded =
        Fresh.load(F.Key, decodeGraph);
    ASSERT_TRUE(Reloaded.has_value()) << R.Name;
    EXPECT_EQ(Reloaded->numEvents(), F.Graph.numEvents());
    EXPECT_EQ(Reloaded->numEdges(), F.Graph.numEdges());
    EXPECT_EQ(readFileBytes(Path), Valid) << R.Name;
  }
  fs::remove_all(Dir);
}

TEST(CacheFaultTest, EveryTruncationOfAnEntryIsEvicted) {
  Fixture F;
  std::string Dir = testutil::makeScratchDir("cache-trunc");
  cache::BlobStore Cache(Dir, ".spg", "cache");
  ASSERT_TRUE(Cache.valid()) << Cache.error();
  ASSERT_TRUE(Cache.store(F.Key, encodeGraph(F.Graph)));
  std::string Path = Cache.entryPath(F.Key);
  std::string Valid = readFileBytes(Path);

  // Step 7 keeps the sweep fast while still crossing every header/section
  // boundary; the codec-level test above covers every single byte.
  for (size_t Len = 0; Len < Valid.size(); Len += 7) {
    writeFileBytes(Path, Valid.substr(0, Len));
    std::optional<PropagationGraph> Loaded =
        Cache.load(F.Key, decodeGraph);
    EXPECT_FALSE(Loaded.has_value())
        << "entry truncated to " << Len << " byte(s) loaded";
    EXPECT_FALSE(fs::exists(Path)) << "truncated entry not evicted";
  }
  cache::CacheStats Stats = Cache.stats();
  EXPECT_EQ(Stats.Hits, 0u);
  EXPECT_GT(Stats.Evictions, 0u);
  EXPECT_EQ(Stats.Evictions, Stats.Errors.size());
  fs::remove_all(Dir);
}

TEST(CacheFaultTest, WrongKeyEntryIsRejected) {
  Fixture F;
  std::string Dir = testutil::makeScratchDir("cache-wrongkey");
  cache::BlobStore Cache(Dir, ".spg", "cache");
  ASSERT_TRUE(Cache.store(F.Key, encodeGraph(F.Graph)));

  // Copy the valid entry under a different key's filename: the stored key
  // prefix no longer matches the lookup key.
  cache::CacheKey Other;
  Other.Hash = F.Key.Hash + 1;
  fs::copy_file(Cache.entryPath(F.Key), Cache.entryPath(Other));
  EXPECT_FALSE(Cache.load(Other, decodeGraph).has_value());
  cache::CacheStats Stats = Cache.stats();
  ASSERT_FALSE(Stats.Errors.empty());
  EXPECT_NE(Stats.Errors.back().find("key mismatch"), std::string::npos)
      << Stats.Errors.back();
  EXPECT_FALSE(fs::exists(Cache.entryPath(Other)));
  fs::remove_all(Dir);
}

/// End to end: a corrupted entry inside a Session run falls back to a cold
/// build with byte-identical output and a re-written, loadable entry.
TEST(CacheFaultTest, SessionRebuildsCorruptEntriesTransparently) {
  corpus::Corpus Data = testutil::makeCorpus(505, /*NumProjects=*/4);
  infer::PipelineOptions Opts;
  Opts.Solve.MaxIterations = 200;
  Opts.Jobs = 1;

  infer::PipelineResult Reference;
  {
    infer::Session S(Opts);
    S.addProjects(Data.Projects);
    S.generateConstraints(Data.Seed);
    Reference = S.solve();
  }
  std::string RefSpec = spec::writeLearnedSpec(Reference.Learned);

  std::string Dir = testutil::makeScratchDir("cache-session");
  {
    infer::Session S(Opts);
    S.enableCache(Dir);
    S.addProjects(Data.Projects);
    S.generateConstraints(Data.Seed);
    infer::PipelineResult Cold = S.solve();
    EXPECT_EQ(Cold.Cache.Misses, Data.Projects.size());
  }

  // Corrupt one entry; a warm run must evict + rebuild exactly it.
  std::vector<std::string> Entries;
  for (const fs::directory_entry &E : fs::directory_iterator(Dir))
    Entries.push_back(E.path().string());
  ASSERT_EQ(Entries.size(), Data.Projects.size());
  std::string Victim = Entries.front();
  std::string Bytes = readFileBytes(Victim);
  Bytes[Bytes.size() / 2] = static_cast<char>(Bytes[Bytes.size() / 2] ^ 0xff);
  writeFileBytes(Victim, Bytes);

  {
    infer::Session S(Opts);
    S.enableCache(Dir);
    S.addProjects(Data.Projects);
    S.generateConstraints(Data.Seed);
    infer::PipelineResult Warm = S.solve();
    EXPECT_EQ(Warm.Cache.Hits, Data.Projects.size() - 1);
    EXPECT_EQ(Warm.Cache.Misses, 1u);
    EXPECT_EQ(Warm.Cache.Evictions, 1u);
    ASSERT_EQ(Warm.Cache.Errors.size(), 1u);
    EXPECT_NE(Warm.Cache.Errors[0].find("evicted"), std::string::npos);
    EXPECT_EQ(spec::writeLearnedSpec(Warm.Learned), RefSpec);
  }

  // The rebuild re-stored the entry: a second warm run is all hits.
  {
    infer::Session S(Opts);
    S.enableCache(Dir);
    S.addProjects(Data.Projects);
    S.generateConstraints(Data.Seed);
    infer::PipelineResult Warm = S.solve();
    EXPECT_EQ(Warm.Cache.Hits, Data.Projects.size());
    EXPECT_EQ(Warm.Cache.Misses, 0u);
    EXPECT_EQ(spec::writeLearnedSpec(Warm.Learned), RefSpec);
  }
  fs::remove_all(Dir);
}

//===----------------------------------------------------------------------===//
// Crash-leaked store temporaries
//===----------------------------------------------------------------------===//

TEST(CacheFaultTest, StaleStoreTempsAreSweptOnOpen) {
  Fixture F;
  std::string Dir = testutil::makeScratchDir("cache-tmp-sweep");
  std::string Entry;
  {
    cache::BlobStore Cache(Dir, ".spg", "cache");
    ASSERT_TRUE(Cache.valid()) << Cache.error();
    ASSERT_TRUE(Cache.store(F.Key, encodeGraph(F.Graph)));
    Entry = Cache.entryPath(F.Key);
  }
  // Plant: an hour-old temp (a crashed store), a fresh temp (a live
  // writer in another process), and a temp-lookalike whose suffix is not
  // all digits (never produced by a store — must survive).
  std::string OldTmp = Entry + ".tmp7";
  std::string FreshTmp = Entry + ".tmp8";
  std::string Lookalike = Entry + ".tmp9x";
  writeFileBytes(OldTmp, "half-written");
  writeFileBytes(FreshTmp, "in-flight");
  writeFileBytes(Lookalike, "not a temp");
  fs::last_write_time(OldTmp, fs::file_time_type::clock::now() -
                                  std::chrono::hours(1));

  cache::BlobStore Reopened(Dir, ".spg", "cache");
  ASSERT_TRUE(Reopened.valid()) << Reopened.error();
  EXPECT_EQ(Reopened.stats().StaleTempsRemoved, 1u);
  EXPECT_FALSE(fs::exists(OldTmp)) << "aged temp must be swept";
  EXPECT_TRUE(fs::exists(FreshTmp)) << "recent temp may be a live writer";
  EXPECT_TRUE(fs::exists(Lookalike)) << "non-numeric suffix is not a temp";
  // The published entry is untouched and still loads.
  EXPECT_TRUE(Reopened.load(F.Key, decodeGraph).has_value());
  fs::remove_all(Dir);
}

TEST(CacheFaultTest, ShardCacheSweepsItsOwnTemps) {
  std::string Dir = testutil::makeScratchDir("shard-tmp-sweep");
  std::string OldTmp = Dir + "/0123456789abcdef.scs.tmp3";
  // A graph store temp in the same directory belongs to a different
  // suffix and must not match the shard sweep.
  std::string OtherSuffix = Dir + "/0123456789abcdef.spg.tmp4";
  writeFileBytes(OldTmp, "half-written");
  writeFileBytes(OtherSuffix, "different cache");
  auto Old = fs::file_time_type::clock::now() - std::chrono::hours(1);
  fs::last_write_time(OldTmp, Old);
  fs::last_write_time(OtherSuffix, Old);

  cache::BlobStore Cache(Dir, ".scs", "shard");
  ASSERT_TRUE(Cache.valid()) << Cache.error();
  EXPECT_EQ(Cache.stats().StaleTempsRemoved, 1u);
  EXPECT_FALSE(fs::exists(OldTmp));
  EXPECT_TRUE(fs::exists(OtherSuffix));
  fs::remove_all(Dir);
}

//===----------------------------------------------------------------------===//
// One directory, two stores: entries, evictions and metrics stay apart
//===----------------------------------------------------------------------===//

/// A graph and its first project's shard, stored under the *same* key in
/// a graph store and a shard store that share one directory — only the
/// suffix tells the two entries apart.
struct SharedDir {
  Fixture F;
  ConstraintShard Shard = constraints::extractShard(
      F.Graph, 0, static_cast<uint32_t>(F.Graph.files().size()), 0,
      static_cast<EventId>(F.Graph.numEvents()));
  std::string Dir;
  cache::BlobStore Graphs, Shards;

  explicit SharedDir(const std::string &Name)
      : Dir(testutil::makeScratchDir(Name)), Graphs(Dir, ".spg", "cache"),
        Shards(Dir, ".scs", "shard") {}
  ~SharedDir() { fs::remove_all(Dir); }

  void storeBoth() {
    ASSERT_TRUE(Graphs.store(F.Key, encodeGraph(F.Graph)));
    ASSERT_TRUE(Shards.store(F.Key, encodeShard(Shard)));
  }
  void corrupt(const std::string &Path) {
    std::string Bytes = readFileBytes(Path);
    Bytes[Bytes.size() / 2] =
        static_cast<char>(Bytes[Bytes.size() / 2] ^ 0xff);
    writeFileBytes(Path, Bytes);
  }
};

TEST(CacheFaultTest, GraphAndShardStoresShareADirectory) {
  SharedDir D("shared-dir");
  D.storeBoth();
  EXPECT_NE(D.Graphs.entryPath(D.F.Key), D.Shards.entryPath(D.F.Key));

  // Each store loads its own entry through its own codec.
  std::optional<PropagationGraph> G = D.Graphs.load(D.F.Key, decodeGraph);
  ASSERT_TRUE(G.has_value());
  EXPECT_EQ(G->numEvents(), D.F.Graph.numEvents());
  std::optional<ConstraintShard> S = D.Shards.load(D.F.Key, decodeShard);
  ASSERT_TRUE(S.has_value());
  EXPECT_EQ(S->numAnchors(), D.Shard.numAnchors());

  // A corrupt shard is evicted by the shard store and leaves the graph
  // entry alone...
  D.corrupt(D.Shards.entryPath(D.F.Key));
  EXPECT_FALSE(D.Shards.load(D.F.Key, decodeShard).has_value());
  EXPECT_FALSE(fs::exists(D.Shards.entryPath(D.F.Key)));
  EXPECT_TRUE(D.Graphs.load(D.F.Key, decodeGraph).has_value());
  EXPECT_EQ(D.Graphs.stats().Evictions, 0u);

  // ...and the reverse.
  D.storeBoth();
  D.corrupt(D.Graphs.entryPath(D.F.Key));
  EXPECT_FALSE(D.Graphs.load(D.F.Key, decodeGraph).has_value());
  EXPECT_FALSE(fs::exists(D.Graphs.entryPath(D.F.Key)));
  EXPECT_TRUE(D.Shards.load(D.F.Key, decodeShard).has_value());
  EXPECT_EQ(D.Shards.stats().Evictions, 1u);
  EXPECT_EQ(D.Graphs.stats().Evictions, 1u);
}

TEST(CacheFaultTest, EachStoreRecordsOnlyItsOwnMetrics) {
  SharedDir D("shared-metrics");
  const char *Names[] = {"hits",   "misses",     "evictions",
                         "stores", "bytes_read", "bytes_written"};
  metrics::Registry &Reg = metrics::Registry::global();
  auto snapshot = [&](const std::string &Prefix) {
    std::vector<uint64_t> Values;
    for (const char *Name : Names)
      Values.push_back(Reg.counter(Prefix + "." + Name).value());
    Values.push_back(Reg.timer(Prefix + ".load_seconds").count());
    Values.push_back(Reg.timer(Prefix + ".store_seconds").count());
    return Values;
  };
  Reg.setEnabled(true);

  // Graph traffic: a miss, a store, a hit, an eviction.
  std::vector<uint64_t> Shard0 = snapshot("shard");
  std::vector<uint64_t> Graph0 = snapshot("cache");
  EXPECT_FALSE(D.Graphs.load(D.F.Key, decodeGraph).has_value());
  ASSERT_TRUE(D.Graphs.store(D.F.Key, encodeGraph(D.F.Graph)));
  EXPECT_TRUE(D.Graphs.load(D.F.Key, decodeGraph).has_value());
  D.corrupt(D.Graphs.entryPath(D.F.Key));
  EXPECT_FALSE(D.Graphs.load(D.F.Key, decodeGraph).has_value());
  EXPECT_EQ(snapshot("shard"), Shard0) << "graph traffic moved shard.*";
  std::vector<uint64_t> Graph1 = snapshot("cache");
  uint64_t EntryBytes = 8 + encodeGraph(D.F.Graph).size();
  std::vector<uint64_t> GraphDelta;
  for (size_t I = 0; I < Graph1.size(); ++I)
    GraphDelta.push_back(Graph1[I] - Graph0[I]);
  EXPECT_EQ(GraphDelta, (std::vector<uint64_t>{1, 2, 1, 1, EntryBytes,
                                               EntryBytes, 1, 1}));

  // Shard traffic: the same sequence moves only shard.*.
  EXPECT_FALSE(D.Shards.load(D.F.Key, decodeShard).has_value());
  ASSERT_TRUE(D.Shards.store(D.F.Key, encodeShard(D.Shard)));
  EXPECT_TRUE(D.Shards.load(D.F.Key, decodeShard).has_value());
  D.corrupt(D.Shards.entryPath(D.F.Key));
  EXPECT_FALSE(D.Shards.load(D.F.Key, decodeShard).has_value());
  EXPECT_EQ(snapshot("cache"), Graph1) << "shard traffic moved cache.*";
  std::vector<uint64_t> Shard1 = snapshot("shard");
  EntryBytes = 8 + encodeShard(D.Shard).size();
  std::vector<uint64_t> ShardDelta;
  for (size_t I = 0; I < Shard1.size(); ++I)
    ShardDelta.push_back(Shard1[I] - Shard0[I]);
  EXPECT_EQ(ShardDelta, (std::vector<uint64_t>{1, 2, 1, 1, EntryBytes,
                                               EntryBytes, 1, 1}));
  Reg.setEnabled(false);
}

TEST(CacheFaultTest, SweepHonorsAgeThreshold) {
  std::string Dir = testutil::makeScratchDir("sweep-age");
  std::string Tmp = Dir + "/aa.spg.tmp0";
  writeFileBytes(Tmp, "x");
  // Age 0 disables the live-writer grace period: even a fresh temp goes.
  EXPECT_EQ(sweepStaleTemps(Dir, ".spg", /*MaxAgeSeconds=*/0), 1u);
  EXPECT_FALSE(fs::exists(Tmp));
  fs::remove_all(Dir);
}

} // namespace
