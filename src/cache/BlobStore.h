//===- cache/BlobStore.h - Content-addressed on-disk blob store --*- C++ -*-===//
//
// Part of seldon-cpp, a reproduction of "Scalable Taint Specification
// Inference with Big Code" (PLDI 2019).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The on-disk store behind both per-project caches: propagation graphs
/// (".spg" entries, "cache.*" metrics) and constraint shards (".scs"
/// entries, "shard.*" metrics). The §5 frontend is deterministic per
/// project, so on a big-code corpus repeated inference runs only need to
/// pay for projects whose inputs changed. The store knows nothing of what
/// it holds: callers pass a content key (cache/ProjectKeys.h) and encoded
/// bytes to store(), and a codec's decoder to load().
///
/// Entry format: "<16 hex key><suffix>" holding the 8-byte little-endian
/// key, then the codec blob, so a load can verify the entry belongs to its
/// key.
///
/// Failure discipline: a missing entry is a miss; an unreadable,
/// truncated, bit-flipped, version-skewed, or key-mismatched entry is
/// *evicted* (the file is deleted, the error recorded in the stats) and
/// reported as a miss, so the caller transparently rebuilds and re-stores
/// it. A load never yields a partially-decoded value (the codecs' strict
/// io::IOResult contract). An unusable directory leaves the store in a
/// degraded valid()==false state where every load misses and every store
/// fails with a recorded error — the pipeline still runs, just uncached.
///
/// Concurrency: load() and store() may be called concurrently from pool
/// workers. Stores write a unique temp file and rename it into place
/// (support/FileIO.h), so readers never observe a half-written entry even
/// across processes; stale temps are swept when the store opens.
///
//===----------------------------------------------------------------------===//

#ifndef SELDON_CACHE_BLOBSTORE_H
#define SELDON_CACHE_BLOBSTORE_H

#include "support/IOResult.h"
#include "support/Timer.h"

#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace seldon {
namespace cache {

/// Content hash identifying one project's cached artifact.
struct CacheKey {
  uint64_t Hash = 0;

  /// 16 lowercase hex digits; the entry's file stem.
  std::string hex() const;
};

/// Counters of one store's lifetime (monotonic; snapshot via stats()).
struct CacheStats {
  uint64_t Hits = 0;       ///< Entries adopted without a rebuild.
  uint64_t Misses = 0;     ///< Absent or evicted entries.
  uint64_t Evictions = 0;  ///< Corrupt/mismatched entries deleted on load.
  uint64_t Stores = 0;     ///< Entries written back.
  uint64_t BytesRead = 0;  ///< Total size of successfully loaded entries.
  uint64_t BytesWritten = 0;
  /// Crash-leaked "<entry>.tmp<seq>" files swept when the store opened.
  uint64_t StaleTempsRemoved = 0;
  /// Descriptive messages of every rejected entry and failed store, in
  /// occurrence order.
  std::vector<std::string> Errors;
};

class BlobStore {
public:
  /// Opens the store in \p Dir (created recursively). Entries are named
  /// "<key hex><Suffix>"; metrics are recorded as "<MetricPrefix>.hits",
  /// ".misses", ".evictions", ".stores", ".bytes_read", ".bytes_written",
  /// ".load_seconds" and ".store_seconds". Stores with distinct suffixes
  /// may share a directory: each loads, evicts and sweeps only its own
  /// entries.
  BlobStore(std::string Dir, std::string Suffix, std::string MetricPrefix);

  BlobStore(const BlobStore &) = delete;
  BlobStore &operator=(const BlobStore &) = delete;

  /// False when the directory could not be created/used; error() then
  /// describes why.
  bool valid() const { return DirError.empty(); }
  const std::string &error() const { return DirError; }

  /// Path of \p Key's entry file.
  std::string entryPath(const CacheKey &Key) const;

  /// Loads \p Key's entry and decodes it with \p Decode. nullopt on miss —
  /// including every corruption case, which additionally evicts the bad
  /// entry and records a descriptive error in stats(). A hit is counted
  /// only once the decode succeeded. Thread-safe.
  template <typename T>
  std::optional<T> load(const CacheKey &Key,
                        io::IOResult<T> (*Decode)(std::string_view)) {
    Timer LoadTimer;
    std::string Path = entryPath(Key);
    std::optional<std::string> Bytes = readEntry(Key, Path);
    if (!Bytes)
      return std::nullopt;
    io::IOResult<T> Decoded =
        Decode(std::string_view(*Bytes).substr(KeyPrefixBytes));
    if (!Decoded.ok()) {
      evict(Path, Decoded.Error);
      return std::nullopt;
    }
    recordHit(Bytes->size(), LoadTimer.seconds());
    return std::move(Decoded.Value);
  }

  /// Atomically writes \p Encoded (a codec blob) as \p Key's entry.
  /// Returns false (recording an error) when the write fails. Thread-safe.
  bool store(const CacheKey &Key, std::string_view Encoded);

  /// Snapshot of the counters and recorded errors.
  CacheStats stats() const;

private:
  static constexpr size_t KeyPrefixBytes = 8;

  /// Reads \p Key's entry at \p Path and checks its key prefix. nullopt
  /// on a miss, already counted (and evicted when the entry was bad).
  std::optional<std::string> readEntry(const CacheKey &Key,
                                       const std::string &Path);
  void evict(const std::string &Path, const std::string &Problem);
  void recordHit(uint64_t Bytes, double Seconds);
  void recordError(std::string Message);
  std::string metric(const char *Name) const;

  std::string Dir;
  std::string Suffix;
  std::string MetricPrefix;
  std::string DirError;
  mutable std::mutex Mutex;
  CacheStats Stats;
};

} // namespace cache
} // namespace seldon

#endif // SELDON_CACHE_BLOBSTORE_H
