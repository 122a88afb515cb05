//===- cache/BlobStore.cpp - Content-addressed on-disk blob store ---------===//

#include "cache/BlobStore.h"

#include "support/FileIO.h"
#include "support/Metrics.h"
#include "support/StrUtil.h"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <optional>
#include <system_error>

using namespace seldon;
using namespace seldon::cache;

namespace fs = std::filesystem;

std::string CacheKey::hex() const {
  char Buf[17];
  std::snprintf(Buf, sizeof(Buf), "%016llx",
                static_cast<unsigned long long>(Hash));
  return std::string(Buf);
}

BlobStore::BlobStore(std::string Dir, std::string Suffix,
                     std::string MetricPrefix)
    : Dir(std::move(Dir)), Suffix(std::move(Suffix)),
      MetricPrefix(std::move(MetricPrefix)) {
  std::error_code Ec;
  fs::create_directories(this->Dir, Ec);
  if (Ec) {
    DirError = formatString("cannot create cache directory %s: %s",
                            this->Dir.c_str(), Ec.message().c_str());
    return;
  }
  if (!fs::is_directory(this->Dir, Ec)) {
    DirError = formatString("cache path %s is not a directory",
                            this->Dir.c_str());
    return;
  }
  // A store that crashed between writing its temp and the publishing
  // rename leaks "<entry><suffix>.tmp<seq>" files; sweep the old ones now
  // so they cannot accumulate across runs.
  Stats.StaleTempsRemoved = sweepStaleTemps(this->Dir, this->Suffix.c_str());
}

std::string BlobStore::entryPath(const CacheKey &Key) const {
  return Dir + "/" + Key.hex() + Suffix;
}

std::string BlobStore::metric(const char *Name) const {
  return MetricPrefix + "." + Name;
}

void BlobStore::recordError(std::string Message) {
  std::lock_guard<std::mutex> Lock(Mutex);
  Stats.Errors.push_back(std::move(Message));
}

void BlobStore::recordHit(uint64_t Bytes, double Seconds) {
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    ++Stats.Hits;
    Stats.BytesRead += Bytes;
  }
  metrics::Registry &Reg = metrics::Registry::global();
  if (Reg.enabled()) {
    Reg.counter(metric("hits")).add();
    Reg.counter(metric("bytes_read")).add(Bytes);
    Reg.timer(metric("load_seconds")).record(Seconds);
  }
}

std::optional<std::string> BlobStore::readEntry(const CacheKey &Key,
                                                const std::string &Path) {
  // An absent entry (or a degraded store) is a plain miss, not an error.
  std::optional<std::string> Bytes;
  if (valid())
    Bytes = readWholeFile(Path);
  if (!Bytes) {
    {
      std::lock_guard<std::mutex> Lock(Mutex);
      ++Stats.Misses;
    }
    metrics::Registry &Reg = metrics::Registry::global();
    if (Reg.enabled())
      Reg.counter(metric("misses")).add();
    return std::nullopt;
  }
  if (Bytes->size() < KeyPrefixBytes) {
    evict(Path, formatString("truncated %s entry (%zu byte(s), need at "
                             "least %zu for the key prefix)",
                             MetricPrefix.c_str(), Bytes->size(),
                             KeyPrefixBytes));
    return std::nullopt;
  }
  uint64_t StoredKey = 0;
  for (size_t I = 0; I < KeyPrefixBytes; ++I)
    StoredKey |=
        static_cast<uint64_t>(static_cast<unsigned char>((*Bytes)[I]))
        << (8 * I);
  if (StoredKey != Key.Hash) {
    evict(Path, formatString("%s entry key mismatch: stored %016llx, "
                             "expected %s",
                             MetricPrefix.c_str(),
                             static_cast<unsigned long long>(StoredKey),
                             Key.hex().c_str()));
    return std::nullopt;
  }
  return Bytes;
}

void BlobStore::evict(const std::string &Path, const std::string &Problem) {
  // Corrupt entry: delete it so the rebuild's write-back starts clean, and
  // report a miss so the caller falls back to a fresh build.
  std::error_code Ec;
  fs::remove(Path, Ec);
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    ++Stats.Misses;
    ++Stats.Evictions;
    Stats.Errors.push_back(formatString("evicted %s: %s", Path.c_str(),
                                        Problem.c_str()));
  }
  metrics::Registry &Reg = metrics::Registry::global();
  if (Reg.enabled()) {
    Reg.counter(metric("misses")).add();
    Reg.counter(metric("evictions")).add();
  }
}

bool BlobStore::store(const CacheKey &Key, std::string_view Encoded) {
  if (!valid()) {
    recordError(formatString("cannot store %s: %s", Key.hex().c_str(),
                             DirError.c_str()));
    return false;
  }

  Timer StoreTimer;
  char Prefix[KeyPrefixBytes];
  for (size_t I = 0; I < KeyPrefixBytes; ++I)
    Prefix[I] = static_cast<char>((Key.Hash >> (8 * I)) & 0xff);
  std::string Path = entryPath(Key);
  std::string TmpPath = uniqueTempPath(Path);
  {
    std::ofstream Out(TmpPath, std::ios::binary | std::ios::trunc);
    if (Out) {
      Out.write(Prefix, KeyPrefixBytes);
      Out.write(Encoded.data(), static_cast<std::streamsize>(Encoded.size()));
      Out.flush();
    }
    if (!Out) {
      recordError(formatString("cannot write %s entry %s",
                               MetricPrefix.c_str(), TmpPath.c_str()));
      std::error_code Ec;
      fs::remove(TmpPath, Ec);
      return false;
    }
  }
  std::error_code Ec;
  fs::rename(TmpPath, Path, Ec);
  if (Ec) {
    recordError(formatString("cannot publish %s entry %s: %s",
                             MetricPrefix.c_str(), Path.c_str(),
                             Ec.message().c_str()));
    fs::remove(TmpPath, Ec);
    return false;
  }
  uint64_t Bytes = KeyPrefixBytes + Encoded.size();
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    ++Stats.Stores;
    Stats.BytesWritten += Bytes;
  }
  metrics::Registry &Reg = metrics::Registry::global();
  if (Reg.enabled()) {
    Reg.counter(metric("stores")).add();
    Reg.counter(metric("bytes_written")).add(Bytes);
    Reg.timer(metric("store_seconds")).record(StoreTimer.seconds());
  }
  return true;
}

CacheStats BlobStore::stats() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Stats;
}
