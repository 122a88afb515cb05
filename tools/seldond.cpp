//===- tools/seldond.cpp - Long-lived inference daemon --------------------===//
//
// The `seldond` daemon: load a corpus once, keep the propagation graph,
// constraint system, and learned specification warm, and answer protocol
// requests (see docs/architecture.md "The inference service") without
// ever re-parsing the corpus.
//
//   seldond --socket /tmp/seldond.sock [options] DIR...
//       Serve the line-delimited JSON protocol on a Unix domain socket.
//
//   seldond --once [options] DIR...
//       Serve one request per stdin line, response per stdout line, until
//       EOF or a `shutdown` request — the transport-free mode tests and
//       scripts drive.
//
//   printf '{"v":1,"id":1,"op":"status"}\n' | seldond --once corpus/
//
//===----------------------------------------------------------------------===//

#include "service/Service.h"
#include "service/SocketServer.h"
#include "support/ArgParser.h"
#include "support/FaultInjection.h"
#include "support/Metrics.h"
#include "support/ThreadPool.h"

#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

using namespace seldon;

namespace {

/// SIGTERM/SIGINT handling: the handler only stores an atomic flag and
/// calls SocketServer::stop() (an atomic store plus ::shutdown — both
/// async-signal-safe). Handlers are installed without SA_RESTART, so the
/// blocking stdin read of --once mode wakes with EINTR instead of riding
/// out the signal. The drain, the final snapshot, and the socket-file
/// unlink all run in normal context after the serve loop returns — an
/// orderly `kill` is a clean shutdown, not a crash.
std::atomic<service::SocketServer *> ActiveServer{nullptr};
std::atomic<bool> SignalStop{false};

extern "C" void onTermSignal(int) {
  SignalStop.store(true, std::memory_order_release);
  if (service::SocketServer *S =
          ActiveServer.load(std::memory_order_acquire))
    S->stop();
}

void installSignalHandlers() {
  struct sigaction SA;
  std::memset(&SA, 0, sizeof(SA));
  SA.sa_handler = onTermSignal;
  sigemptyset(&SA.sa_mask);
  SA.sa_flags = 0; // No SA_RESTART: blocking reads must wake.
  ::sigaction(SIGTERM, &SA, nullptr);
  ::sigaction(SIGINT, &SA, nullptr);
}

struct DaemonOptions {
  service::Service::Options Svc;
  std::string SocketPath;
  bool Once = false;
  bool ShardCache = false;
  bool Metrics = false;
  std::string MetricsOut;
  bool Help = false;
};

void usage(const ArgParser &Parser) {
  std::fprintf(stderr,
               "usage: seldond (--socket PATH | --once) [options] DIR...\n"
               "\n"
               "Loads the repositories once, keeps the learned "
               "specification warm,\n"
               "and serves versioned JSON requests (one per line): status, "
               "query,\n"
               "learn, feedback, taint, shutdown.\n"
               "\n"
               "options:\n%s",
               Parser.usage().c_str());
}

bool parseDaemonArgs(int Argc, char **Argv, DaemonOptions &Opts,
                     ArgParser &Parser) {
  unsigned long Iters = 600;
  unsigned long Cutoff = 5;
  unsigned long Jobs = 0;
  unsigned long MaxInFlight = 64;
  unsigned long SnapshotEvery = 1;

  Parser.string("--socket", &Opts.SocketPath, "PATH",
                "serve on a Unix domain socket at PATH");
  Parser.flag("--once", &Opts.Once,
              "serve stdin/stdout serially instead of a socket");
  Parser.string("--seed", &Opts.Svc.SeedFile, "FILE",
                "seed specification (App. B format; default: built-in)");
  Parser.string("--cache-dir", &Opts.Svc.CacheDir, "DIR",
                "persistent propagation-graph cache; unchanged projects\n"
                "skip parsing on restart");
  Parser.flag("--shard-cache", &Opts.ShardCache,
              "also cache per-project constraint shards under\n"
              "DIR/shards (requires --cache-dir); a `learn` with\n"
              "\"reload\" then re-extracts only changed projects");
  Parser.string("--state-dir", &Opts.Svc.StateDir, "DIR",
                "durable state: journal every accepted feedback/learn op\n"
                "(fsynced before the re-solve), snapshot the served spec,\n"
                "and recover the exact pre-crash state on restart");
  Parser.unsignedInt("--snapshot-every", &SnapshotEvery, "N",
                     "with --state-dir: snapshot + compact the journal\n"
                     "after every Nth applied op (default 1; 0 = only on\n"
                     "orderly shutdown)");
  Parser.unsignedInt("--iters", &Iters, "N",
                     "solver iterations (default 600)");
  Parser.unsignedInt("--cutoff", &Cutoff, "N",
                     "representation frequency cutoff (default 5)");
  Parser.unsignedInt("--jobs", &Jobs, "N",
                     "worker threads (default: all hardware threads)");
  Parser.decimal("--threshold", &Opts.Svc.Threshold, "T",
                 "score threshold for taint/status (default 0.1)");
  Parser.decimal("--deadline-s", &Opts.Svc.RequestDeadlineSeconds, "S",
                 "default per-request wall-clock budget in seconds\n"
                 "(0 = unlimited; requests may override via deadline_s)");
  Parser.unsignedInt("--max-inflight", &MaxInFlight, "N",
                     "admission slots; excess requests get a structured\n"
                     "`overloaded` error (default 64)");
  Parser.flag("--strict", &Opts.Svc.Strict,
              "fail startup on the first broken project instead of\n"
              "quarantining it");
  Parser.flag("--metrics", &Opts.Metrics,
              "print the metrics snapshot to stderr on exit");
  Parser.string("--metrics-out", &Opts.MetricsOut, "F",
                "write the metrics snapshot as JSON to F on exit");
  Parser.flag("--help", &Opts.Help, "show this help");

  if (!Parser.parse(Argc, Argv, 1, &Opts.Svc.CorpusDirs))
    return false;

  if (Iters == 0 || Iters > 10'000'000) {
    std::fprintf(stderr, "error: --iters must be in [1, 10000000]\n");
    return false;
  }
  Opts.Svc.Iterations = static_cast<int>(Iters);
  Opts.Svc.RepCutoff = static_cast<size_t>(Cutoff);
  if (Opts.Svc.RequestDeadlineSeconds < 0.0) {
    std::fprintf(stderr, "error: --deadline-s must be non-negative\n");
    return false;
  }
  unsigned long JobCap = 8ul * ThreadPool::hardwareConcurrency();
  if (Jobs > JobCap) {
    std::fprintf(stderr,
                 "warning: --jobs %lu exceeds %lu (8x hardware threads); "
                 "clamping to %lu\n",
                 Jobs, JobCap, JobCap);
    Jobs = JobCap;
  }
  Opts.Svc.Jobs = static_cast<unsigned>(Jobs);
  if (MaxInFlight == 0) {
    std::fprintf(stderr, "error: --max-inflight must be positive\n");
    return false;
  }
  Opts.Svc.MaxInFlight = static_cast<size_t>(MaxInFlight);
  Opts.Svc.SnapshotEvery = static_cast<uint64_t>(SnapshotEvery);
  if (SnapshotEvery != 1 && Opts.Svc.StateDir.empty()) {
    std::fprintf(stderr, "error: --snapshot-every requires --state-dir\n");
    return false;
  }
  if (Opts.ShardCache) {
    if (Opts.Svc.CacheDir.empty()) {
      std::fprintf(stderr, "error: --shard-cache requires --cache-dir\n");
      return false;
    }
    Opts.Svc.ShardCacheDir = Opts.Svc.CacheDir + "/shards";
  }
  return true;
}

/// The `--once` transport: one request per stdin line, one response per
/// stdout line, flushed eagerly so a driving script can interleave.
int runOnce(service::Service &Svc) {
  std::string Line;
  // A SIGTERM/SIGINT interrupts the blocking read (no SA_RESTART), the
  // stream fails, and the loop exits into the orderly shutdown path.
  while (!SignalStop.load(std::memory_order_acquire) &&
         std::getline(std::cin, Line)) {
    if (!Line.empty() && Line.back() == '\r')
      Line.pop_back();
    if (Line.empty())
      continue;
    std::string Response = Svc.serve(Line);
    std::fputs(Response.c_str(), stdout);
    std::fputc('\n', stdout);
    std::fflush(stdout);
    if (Svc.shuttingDown())
      break;
  }
  return 0;
}

int runSocket(service::Service &Svc, const std::string &SocketPath) {
  ThreadPool Pool(Svc.options().Jobs);
  service::SocketServer Server(Svc, Pool, SocketPath);
  std::string Error;
  if (!Server.listen(Error)) {
    std::fprintf(stderr, "error: %s\n", Error.c_str());
    return 1;
  }
  std::fprintf(stderr, "seldond: listening on %s\n", SocketPath.c_str());
  // Publish the server for the signal handler; a SIGTERM from here on
  // drives stop() → drain → the normal return path below (which removes
  // the socket file and lets main() write the final snapshot).
  ActiveServer.store(&Server, std::memory_order_release);
  if (SignalStop.load(std::memory_order_acquire))
    Server.stop(); // Signal raced the publication; don't serve forever.
  size_t Connections = Server.run();
  ActiveServer.store(nullptr, std::memory_order_release);
  std::fprintf(stderr, "seldond: served %zu connection(s), draining\n",
               Connections);
  return 0;
}

bool emitMetrics(const DaemonOptions &Opts) {
  if (!Opts.Metrics && Opts.MetricsOut.empty())
    return true;
  metrics::Registry &Reg = metrics::Registry::global();
  if (Opts.Metrics)
    std::fputs(Reg.renderText().c_str(), stderr);
  if (!Opts.MetricsOut.empty()) {
    std::ofstream Out(Opts.MetricsOut, std::ios::binary | std::ios::trunc);
    if (Out)
      Out << Reg.toJson();
    if (!Out) {
      std::fprintf(stderr, "error: cannot write metrics to %s\n",
                   Opts.MetricsOut.c_str());
      return false;
    }
  }
  return true;
}

} // namespace

int main(int Argc, char **Argv) {
  DaemonOptions Opts;
  ArgParser Parser;
  if (!parseDaemonArgs(Argc, Argv, Opts, Parser))
    return 1;
  if (Opts.Help) {
    usage(Parser);
    return 0;
  }
  if (!Opts.Once && Opts.SocketPath.empty()) {
    std::fprintf(stderr, "error: need --socket PATH or --once\n");
    usage(Parser);
    return 1;
  }
  if (Opts.Once && !Opts.SocketPath.empty()) {
    std::fprintf(stderr, "error: --once and --socket are exclusive\n");
    return 1;
  }
  if (Opts.Svc.CorpusDirs.empty()) {
    std::fprintf(stderr, "error: no corpus directories\n");
    usage(Parser);
    return 1;
  }

  std::string FaultError;
  if (!fault::configureFromEnv(&FaultError)) {
    std::fprintf(stderr, "error: SELDON_FAULT: %s\n", FaultError.c_str());
    return 1;
  }

  // Always on: metrics are write-only (they never change an answer) and
  // the `status` op reports parse/cache counters from this registry —
  // that's how the smoke test proves warm queries re-parse nothing.
  metrics::Registry::global().setEnabled(true);

  service::Service Svc(Opts.Svc);
  std::string Error;
  if (!Svc.start(Error)) {
    std::fprintf(stderr, "error: %s\n", Error.c_str());
    return 1;
  }
  const infer::PipelineResult &Warm = Svc.warm();
  std::fprintf(stderr,
               "seldond: warm — %zu project(s), %zu file(s), %zu "
               "constraint(s), spec size %zu, health %s\n",
               Opts.Svc.CorpusDirs.size(), Warm.NumFiles,
               Warm.System.Constraints.size(), Warm.Learned.size(),
               infer::runStatusName(Warm.Health.status()));

  installSignalHandlers();

  int Rc;
  try {
    Rc = Opts.Once ? runOnce(Svc) : runSocket(Svc, Opts.SocketPath);
  } catch (const std::exception &E) {
    std::fprintf(stderr, "error: %s\n", E.what());
    Rc = 1;
  }
  // Orderly shutdown (EOF, `shutdown` request, or SIGTERM/SIGINT): write
  // the final snapshot so restart recovers without replaying the journal.
  Svc.persist();
  if (SignalStop.load(std::memory_order_acquire))
    std::fprintf(stderr, "seldond: terminated by signal, state persisted\n");
  if (!emitMetrics(Opts) && Rc == 0)
    Rc = 1;
  return Rc;
}
