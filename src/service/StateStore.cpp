//===- service/StateStore.cpp - seldond durable state on disk -------------===//

#include "service/StateStore.h"

#include "support/FaultInjection.h"
#include "support/FileIO.h"
#include "support/Metrics.h"
#include "support/StrUtil.h"
#include "support/Timer.h"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <optional>
#include <set>
#include <system_error>

#include <fcntl.h>
#include <unistd.h>

using namespace seldon;
using namespace seldon::service;

namespace fs = std::filesystem;

namespace {

constexpr const char *JournalName = "state.wal";
constexpr const char *SnapshotSuffix = ".ssn";
constexpr const char *JournalSuffix = ".wal";

/// Writes all of \p Bytes to \p Fd, retrying short writes and EINTR.
bool writeAll(int Fd, const char *Bytes, size_t Len, std::string &Error) {
  size_t Off = 0;
  while (Off < Len) {
    ssize_t N = ::write(Fd, Bytes + Off, Len - Off);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      Error = std::strerror(errno);
      return false;
    }
    Off += static_cast<size_t>(N);
  }
  return true;
}

/// Parses "state-<digits>.ssn" into its sequence number.
bool parseSnapshotName(const std::string &Name, uint64_t &Seq) {
  constexpr std::string_view Prefix = "state-";
  if (Name.substr(0, Prefix.size()) != Prefix)
    return false;
  size_t DigitsEnd = Name.find_first_not_of(
      "0123456789", Prefix.size());
  if (DigitsEnd == Prefix.size() || DigitsEnd == std::string::npos ||
      Name.substr(DigitsEnd) != SnapshotSuffix)
    return false;
  Seq = std::strtoull(Name.substr(Prefix.size()).c_str(), nullptr, 10);
  return true;
}

} // namespace

StateStore::StateStore(std::string Dir) : Dir(std::move(Dir)) {
  std::error_code Ec;
  fs::create_directories(this->Dir, Ec);
  if (Ec) {
    DirError = formatString("cannot create state directory %s: %s",
                            this->Dir.c_str(), Ec.message().c_str());
    return;
  }
  if (!fs::is_directory(this->Dir, Ec)) {
    DirError = formatString("state path %s is not a directory",
                            this->Dir.c_str());
    return;
  }
  // A publish that crashed between its temp write and the rename leaks
  // "<file>.tmp<seq>"; the same age-guarded digits-only rule the caches
  // use keeps a concurrent writer's in-flight temp alive.
  Stats.StaleTempsRemoved = sweepStaleTemps(this->Dir, SnapshotSuffix) +
                            sweepStaleTemps(this->Dir, JournalSuffix);

  std::string Error;
  if (!fs::exists(journalPath(), Ec)) {
    // A fresh journal is published whole (header via temp + rename), so
    // scanJournal() can treat a short header as corruption, never a torn
    // append.
    if (!publishFile(journalPath(), journalHeader(), std::nullopt, 0,
                     Error)) {
      DirError = formatString("cannot create journal: %s", Error.c_str());
      return;
    }
  }
  if (!openJournal(Error))
    DirError = Error;
}

StateStore::~StateStore() { closeJournal(); }

std::string StateStore::journalPath() const {
  return Dir + "/" + JournalName;
}

std::string StateStore::snapshotPath(uint64_t Seq) const {
  return formatString("%s/state-%llu%s", Dir.c_str(),
                      static_cast<unsigned long long>(Seq),
                      SnapshotSuffix);
}

bool StateStore::openJournal(std::string &Error) {
  closeJournal();
  JournalFd = ::open(journalPath().c_str(), O_WRONLY | O_APPEND, 0644);
  if (JournalFd < 0) {
    Error = formatString("cannot open journal %s: %s",
                         journalPath().c_str(), std::strerror(errno));
    return false;
  }
  return true;
}

void StateStore::closeJournal() {
  if (JournalFd >= 0) {
    ::close(JournalFd);
    JournalFd = -1;
  }
}

void StateStore::fsyncDir() {
  // Make the rename itself durable; best-effort (some filesystems refuse
  // directory fsync) — the file contents were already fsynced.
  int DirFd = ::open(Dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (DirFd >= 0) {
    ::fsync(DirFd);
    ::close(DirFd);
  }
}

bool StateStore::publishFile(const std::string &Path,
                             const std::string &Bytes,
                             std::optional<fault::Point> CrashAt,
                             uint64_t CrashSeq, std::string &Error) {
  std::string Temp = uniqueTempPath(Path);
  int Fd = ::open(Temp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (Fd < 0) {
    Error = formatString("cannot create %s: %s", Temp.c_str(),
                         std::strerror(errno));
    return false;
  }
  std::string WriteError;
  bool Ok = writeAll(Fd, Bytes.data(), Bytes.size(), WriteError);
  if (Ok && ::fsync(Fd) != 0) {
    WriteError = std::strerror(errno);
    Ok = false;
  }
  ::close(Fd);
  if (!Ok) {
    ::unlink(Temp.c_str());
    Error = formatString("cannot write %s: %s", Temp.c_str(),
                         WriteError.c_str());
    return false;
  }
  ++Stats.Fsyncs;
  if (CrashAt)
    fault::maybeCrash(*CrashAt, CrashSeq);
  if (::rename(Temp.c_str(), Path.c_str()) != 0) {
    Error = formatString("cannot rename %s to %s: %s", Temp.c_str(),
                         Path.c_str(), std::strerror(errno));
    ::unlink(Temp.c_str());
    return false;
  }
  fsyncDir();
  return true;
}

bool StateStore::appendRecord(const JournalRecord &Record,
                              std::string &Error) {
  if (!valid() || JournalFd < 0) {
    Error = DirError.empty() ? "journal is not open" : DirError;
    return false;
  }
  std::string Frame = encodeJournalRecord(Record);

  // The torn-tail crash: land a strict prefix of the frame, then die —
  // exactly what a power cut mid-append leaves behind.
  if (fault::enabled() &&
      fault::crashArmed(fault::Point::JournalAppend, Record.Seq)) {
    std::string Dummy;
    (void)writeAll(JournalFd, Frame.data(), Frame.size() / 2, Dummy);
    ::fsync(JournalFd);
    fault::crashExit(fault::Point::JournalAppend, Record.Seq);
  }

  std::string WriteError;
  if (!writeAll(JournalFd, Frame.data(), Frame.size(), WriteError)) {
    Error = formatString("journal append failed: %s", WriteError.c_str());
    return false;
  }
  fault::maybeCrash(fault::Point::JournalFsync, Record.Seq);
  if (::fsync(JournalFd) != 0) {
    Error = formatString("journal fsync failed: %s", std::strerror(errno));
    return false;
  }
  ++Stats.Fsyncs;
  ++Stats.Appends;
  Stats.BytesAppended += Frame.size();
  metrics::Registry &Reg = metrics::Registry::global();
  if (Reg.enabled()) {
    Reg.counter("journal.appends").add(1);
    Reg.counter("journal.bytes").add(Frame.size());
    Reg.counter("journal.fsyncs").add(1);
  }
  fault::maybeCrash(fault::Point::JournalSynced, Record.Seq);
  return true;
}

bool StateStore::writeSnapshot(const StateSnapshot &Snapshot,
                               std::string &Error) {
  if (!valid()) {
    Error = DirError;
    return false;
  }
  std::string Bytes = encodeSnapshot(Snapshot);
  if (!publishFile(snapshotPath(Snapshot.LastSeq), Bytes,
                   fault::Point::SnapshotWrite, Snapshot.LastSeq, Error))
    return false;
  ++Stats.Snapshots;
  Stats.SnapshotBytes += Bytes.size();
  fault::maybeCrash(fault::Point::SnapshotRename, Snapshot.LastSeq);

  // Prune superseded snapshots: recovery prefers the newest, so older
  // ones are dead weight the moment the rename lands.
  std::error_code Ec;
  for (fs::directory_iterator It(Dir, Ec), End; !Ec && It != End;
       It.increment(Ec)) {
    uint64_t Seq = 0;
    if (parseSnapshotName(It->path().filename().string(), Seq) &&
        Seq < Snapshot.LastSeq) {
      std::error_code RmEc;
      fs::remove(It->path(), RmEc);
    }
  }

  // Compact: publish a fresh, empty journal. A crash before the rename
  // leaves the old journal whose records are all <= LastSeq — replay
  // skips them, so compaction is crash-safe at every instant.
  closeJournal();
  std::string ResetError;
  if (!publishFile(journalPath(), journalHeader(), fault::Point::JournalReset,
                   Snapshot.LastSeq, ResetError)) {
    Error = formatString("journal compaction failed: %s",
                         ResetError.c_str());
    // The old journal is still valid; reopen and keep appending to it.
    std::string ReopenError;
    (void)openJournal(ReopenError);
    return false;
  }
  ++Stats.Compactions;
  if (!openJournal(Error))
    return false;

  metrics::Registry &Reg = metrics::Registry::global();
  if (Reg.enabled()) {
    Reg.counter("snapshot.writes").add(1);
    Reg.counter("snapshot.bytes").add(Bytes.size());
    Reg.counter("journal.compactions").add(1);
  }
  return true;
}

io::IOResult<RecoveredState> StateStore::recover() {
  using Result = io::IOResult<RecoveredState>;
  if (!valid())
    return Result::failure(DirError);
  Timer Recovery;
  RecoveredState State;

  // Newest valid snapshot wins; corrupt ones are evicted and the
  // next-older tried — a bad snapshot degrades recovery, never fails it.
  std::vector<std::pair<uint64_t, std::string>> Snapshots;
  std::error_code Ec;
  for (fs::directory_iterator It(Dir, Ec), End; !Ec && It != End;
       It.increment(Ec)) {
    uint64_t Seq = 0;
    if (parseSnapshotName(It->path().filename().string(), Seq))
      Snapshots.emplace_back(Seq, It->path().string());
  }
  std::sort(Snapshots.begin(), Snapshots.end(),
            [](const auto &A, const auto &B) { return A.first > B.first; });
  for (const auto &[Seq, Path] : Snapshots) {
    std::optional<std::string> Bytes = readWholeFile(Path);
    if (!Bytes) {
      Stats.Errors.push_back(formatString(
          "snapshot %llu: cannot read %s",
          static_cast<unsigned long long>(Seq), Path.c_str()));
      continue;
    }
    io::IOResult<StateSnapshot> Decoded = decodeSnapshot(*Bytes);
    if (!Decoded) {
      Stats.Errors.push_back(formatString(
          "evicted snapshot %llu: %s",
          static_cast<unsigned long long>(Seq), Decoded.Error.c_str()));
      ++Stats.EvictedSnapshots;
      std::error_code RmEc;
      fs::remove(Path, RmEc);
      continue;
    }
    State.HasSnapshot = true;
    State.Snapshot = std::move(Decoded.Value);
    break;
  }

  // Scan the journal. Torn tail: truncate and keep the prefix. Interior
  // corruption: evict the whole journal — the snapshot still restores
  // everything it covers, and starting a fresh journal beats trusting
  // bytes that failed their checksum.
  std::optional<std::string> Bytes = readWholeFile(journalPath());
  if (!Bytes)
    return Result::failure("cannot read journal " + journalPath());
  io::IOResult<JournalScan> Scan = scanJournal(*Bytes);
  std::vector<JournalRecord> Records;
  if (!Scan) {
    Stats.Errors.push_back(
        formatString("evicted journal: %s", Scan.Error.c_str()));
    ++Stats.EvictedJournals;
    closeJournal();
    std::string Error;
    if (!publishFile(journalPath(), journalHeader(), std::nullopt, 0,
                     Error) ||
        !openJournal(Error))
      return Result::failure(
          formatString("cannot rebuild journal: %s", Error.c_str()));
  } else {
    Records = std::move(Scan.Value.Records);
    if (Scan.Value.Torn) {
      uint64_t Dropped = Bytes->size() - Scan.Value.ValidBytes;
      Stats.TruncatedTailBytes += Dropped;
      Stats.Errors.push_back(formatString(
          "truncated torn journal tail: dropped %llu byte(s), kept %zu "
          "record(s)",
          static_cast<unsigned long long>(Dropped), Records.size()));
      closeJournal();
      if (::truncate(journalPath().c_str(),
                     static_cast<off_t>(Scan.Value.ValidBytes)) != 0)
        return Result::failure(formatString(
            "cannot truncate torn journal: %s", std::strerror(errno)));
      std::string Error;
      if (!openJournal(Error))
        return Result::failure(Error);
    }
  }

  // Replay suffix: records above the snapshot's horizon, minus aborts
  // and the records they void.
  uint64_t Horizon = State.HasSnapshot ? State.Snapshot.LastSeq : 0;
  std::set<uint64_t> Aborted;
  for (const JournalRecord &R : Records)
    if (R.Op == JournalOp::Abort)
      Aborted.insert(R.AbortedSeq);
  for (JournalRecord &R : Records)
    if (R.Op != JournalOp::Abort && R.Seq > Horizon &&
        Aborted.count(R.Seq) == 0)
      State.Replay.push_back(std::move(R));
  Stats.ReplayedRecords += State.Replay.size();
  Stats.RecoverySeconds = Recovery.seconds();

  metrics::Registry &Reg = metrics::Registry::global();
  if (Reg.enabled()) {
    Reg.counter("journal.replayed").add(State.Replay.size());
    Reg.gauge("recovery.seconds").set(Stats.RecoverySeconds);
    Reg.gauge("recovery.snapshot_found")
        .set(State.HasSnapshot ? 1.0 : 0.0);
  }

  io::IOResult<RecoveredState> Out;
  Out.Value = std::move(State);
  return Out;
}
