//===- trace.cpp - In-process traced run of one workload ------------------===//
//
//   benchtool trace --workload W --dir DIR --seed S --out FILE
//
// Repeats a workload's operations through the libraries' public functions
// and records a span (name, start, end, parent, request id) around each
// call into a layer. Spans stay in memory and are written with the
// program's own counters (the metrics registry that `--metrics-out`
// serializes, and the service's `status` answer) when the run ends.
//
// Operations alternate between traced and untraced repetitions; the
// untraced ones run with spans and the metrics registry off and give the
// tracing overhead. Every run ends with a small probe on the corpus's first
// projects that calls every layer once (cached learn, service start,
// query, taint, feedback, journal append and snapshot), so each layer has
// a measured value on every workload.
//
//===----------------------------------------------------------------------===//

#include "benchtool.h"

#include "infer/Pipeline.h"
#include "propgraph/GraphBuilder.h"
#include "pysem/ProjectLoader.h"
#include "service/QueryResult.h"
#include "service/Service.h"
#include "service/SocketServer.h"
#include "service/StateStore.h"
#include "spec/SpecIO.h"
#include "support/ArgParser.h"
#include "support/Metrics.h"
#include "support/Rng.h"
#include "support/StrUtil.h"
#include "support/ThreadPool.h"
#include "taint/TaintAnalyzer.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <optional>
#include <thread>

namespace fs = std::filesystem;
using namespace seldon;

namespace perfbench {
namespace {

constexpr double Threshold = 0.1;
constexpr unsigned Jobs = 4;
/// Traced learns of the learn workloads (each paired with an untraced one).
constexpr unsigned LearnReps = 4;
/// Traced requests of the serve workloads (each paired likewise).
constexpr size_t ServeRequests = 400;
/// serve_write sends one feedback per this many requests. Odd, so that
/// feedbacks fall on traced and untraced turns alike.
constexpr size_t WriteEvery = 15;
constexpr size_t ProbeProjects = 40;
/// Requests timed through a real socket for the transport wait.
constexpr size_t TransportRequests = 200;

/// In-memory span recorder. Spans nest per the open stack; a disabled
/// tracer records nothing.
class Tracer {
public:
  struct Record {
    std::string Name;
    double Start;
    double End;
    int Parent;
    long Request;
  };

  bool On = false;

  int open(std::string Name, long Request) {
    if (!On)
      return -1;
    int Parent = Stack.empty() ? -1 : Stack.back();
    Spans.push_back({std::move(Name), nowSeconds(), 0.0, Parent, Request});
    Stack.push_back(static_cast<int>(Spans.size()) - 1);
    return Stack.back();
  }
  void close(int Index) {
    if (Index < 0)
      return;
    Spans[Index].End = nowSeconds();
    Stack.pop_back();
  }
  const std::vector<Record> &spans() const { return Spans; }

private:
  std::vector<Record> Spans;
  std::vector<int> Stack;
};

class Scope {
public:
  Scope(Tracer &T, std::string Name, long Request)
      : T(T), Index(T.open(std::move(Name), Request)) {}
  ~Scope() { T.close(Index); }

private:
  Tracer &T;
  int Index;
};

/// Work counts observed at the layer boundaries.
struct Counts {
  uint64_t FilesLoaded = 0;
  uint64_t Events = 0;
  uint64_t Rows = 0;
  uint64_t Iterations = 0;
  uint64_t SpecBytes = 0;
};

struct LearnConfig {
  std::vector<std::string> Dirs;
  std::string CacheDir;
  std::string OutFile;
  bool WarmStart = false;
};

/// One `seldon learn`, as the CLI runs it, with a span around each call.
bool learnOnce(const LearnConfig &C, const spec::SeedSpec &Seed, Tracer &T,
               long Request, Counts &N) {
  Scope Root(T, "learn", Request);
  std::vector<std::optional<pysem::Project>> Loaded;
  {
    Scope S(T, "pysem.load", Request);
    Loaded = pysem::loadProjectsFromDirs(C.Dirs, pysem::LoadOptions(), Jobs);
  }
  std::vector<pysem::Project> Corpus;
  for (std::optional<pysem::Project> &P : Loaded) {
    if (!P)
      return false;
    if (T.On)
      N.FilesLoaded += P->modules().size();
    Corpus.push_back(std::move(*P));
  }
  infer::PipelineOptions Opts;
  Opts.Solve.MaxIterations = 600;
  Opts.Solve.Backend = solver::SolverBackend::Compiled;
  Opts.Gen.RepCutoff = 5;
  Opts.Jobs = Jobs;
  infer::Session Session(Opts);
  if (!C.CacheDir.empty()) {
    Session.enableCache(C.CacheDir);
    Session.enableShardCache(C.CacheDir + "/shards");
  }
  spec::LearnedSpec Previous;
  if (C.WarmStart && fs::exists(C.OutFile)) {
    spec::IOResult<spec::LearnedSpec> P = spec::loadLearnedSpec(C.OutFile);
    if (P) {
      Previous = std::move(P.Value);
      Session.options().WarmStart = &Previous;
    }
  }
  Session.addProjects(Corpus);
  {
    Scope S(T, "propgraph.build", Request);
    Session.buildGraph();
  }
  if (T.On)
    N.Events += Session.graph().numEvents();
  {
    Scope S(T, "constraints.gen", Request);
    Session.generateConstraints(Seed);
  }
  if (T.On)
    N.Rows += Session.system().Constraints.size();
  infer::PipelineResult R;
  {
    Scope S(T, "solver.solve", Request);
    R = Session.solve();
  }
  if (T.On)
    N.Iterations += static_cast<uint64_t>(R.Solve.Iterations);
  spec::IOResult<size_t> Saved;
  {
    Scope S(T, "spec.write", Request);
    Saved = spec::saveLearnedSpec(R.Learned, C.OutFile, Threshold);
  }
  if (!Saved)
    return false;
  if (T.On)
    N.SpecBytes += Saved.Value;
  return true;
}

/// One request of the serve mix, with the layer calls it makes repeated
/// standalone under their own spans.
struct RequestSpec {
  std::string Op;
  std::string Line;
  std::string Rep;
  propgraph::Role Role = propgraph::Role::Source;
  std::vector<std::pair<std::string, std::string>> Files;
  bool Accept = true;
};

std::vector<std::pair<std::string, propgraph::Role>>
learnedPairs(const spec::LearnedSpec &Learned) {
  std::vector<std::pair<std::string, propgraph::Role>> Pairs;
  for (propgraph::Role R : {propgraph::Role::Source,
                            propgraph::Role::Sanitizer, propgraph::Role::Sink})
    for (const auto &[Rep, Score] : Learned.ranked(R, Threshold))
      Pairs.emplace_back(Rep, R);
  return Pairs;
}

RequestSpec makeQuery(const std::string &Rep, propgraph::Role R) {
  RequestSpec Q;
  Q.Op = "query";
  Q.Rep = Rep;
  Q.Role = R;
  Q.Line = "\"op\":\"query\",\"rep\":\"" + jsonEscape(Rep) +
           "\",\"role\":\"" + propgraph::roleName(R) + "\"}";
  return Q;
}

RequestSpec makeTaint(const std::string &File, const std::string &Source) {
  RequestSpec Q;
  Q.Op = "taint";
  std::string Name = fs::path(File).filename().string();
  Q.Files.emplace_back(Name, Source);
  Q.Line = "\"op\":\"taint\",\"files\":{\"" + jsonEscape(Name) + "\":\"" +
           jsonEscape(Source) + "\"}}";
  return Q;
}

RequestSpec makeFeedback(const std::string &Rep, propgraph::Role R,
                         bool Accept) {
  RequestSpec Q;
  Q.Op = "feedback";
  Q.Rep = Rep;
  Q.Role = R;
  Q.Accept = Accept;
  Q.Line = std::string("\"op\":\"feedback\",\"") +
           (Accept ? "accept" : "reject") + "\":[{\"rep\":\"" +
           jsonEscape(Rep) + "\",\"role\":\"" + propgraph::roleName(R) +
           "\"}]}";
  return Q;
}

/// Serves one request through Service::handle (its wall time goes to
/// \p HandleSeconds), then repeats its layer calls standalone. Returns
/// false when the response is not ok.
bool serveOnce(service::Service &Svc, const spec::SeedSpec &Seed,
               service::StateStore &Store, const RequestSpec &Q, long Id,
               Tracer &T, double &HandleSeconds) {
  Scope Root(T, "request", Id);
  std::string Line = "{\"v\":1,\"id\":" + std::to_string(Id) + "," + Q.Line;
  std::string Response;
  {
    Scope S(T, "service.handle." + Q.Op, Id);
    double T0 = nowSeconds();
    Response = Svc.handle(Line);
    HandleSeconds = nowSeconds() - T0;
  }
  bool Ok = Response.find("\"ok\":true") != std::string::npos;
  if (!T.On)
    return Ok;
  const infer::PipelineResult &Warm = Svc.warm();
  if (Q.Op == "query") {
    Scope S(T, "constraints.explain", Id);
    service::QueryResult R = service::queryRep(Warm.System, Warm.Reps, Q.Rep,
                                               Q.Role, Warm.Solve.X);
    Ok &= R.Found;
  } else if (Q.Op == "taint") {
    pysem::Project Payload("payload");
    {
      Scope S(T, "pysem.load", Id);
      for (const auto &[Name, Source] : Q.Files)
        Payload.addModule(Name, Source);
    }
    propgraph::PropagationGraph G;
    {
      Scope S(T, "taint.graph", Id);
      G = propgraph::buildProjectGraph(Payload);
    }
    Scope S(T, "taint.analyze", Id);
    taint::RoleResolver Roles(&Seed.Spec, &Warm.Learned, Threshold);
    taint::TaintAnalyzer Analyzer(G);
    (void)Analyzer.analyze(Roles);
  } else if (Q.Op == "feedback") {
    service::JournalRecord Rec;
    Rec.Seq = static_cast<uint64_t>(Id);
    Rec.Op = service::JournalOp::Feedback;
    Rec.Entries.push_back({Q.Rep, Q.Role, Q.Accept});
    Rec.Iters = 600;
    Rec.WarmStart = true;
    std::string Error;
    {
      Scope S(T, "state.append", Id);
      Ok &= Store.appendRecord(Rec, Error);
    }
    service::StateSnapshot Snap;
    Snap.LastSeq = Rec.Seq;
    Snap.Fingerprint = service::systemFingerprint(Warm.System, Warm.Reps);
    Snap.Solve = Warm.Solve;
    Snap.Feedback = Rec.Entries;
    Scope S(T, "state.snapshot", Id);
    Ok &= Store.writeSnapshot(Snap, Error);
  }
  return Ok;
}

/// The request mix of the serve workloads over \p Svc's learned spec:
/// 80% query, 20% taint of a corpus file, and (with \p Writes) one
/// feedback verdict every \p WriteEvery requests.
std::vector<RequestSpec> makeMix(const service::Service &Svc,
                                 const std::vector<std::string> &Files,
                                 size_t Count, size_t WriteEvery,
                                 uint64_t Seed) {
  std::vector<std::pair<std::string, propgraph::Role>> Pairs =
      learnedPairs(Svc.warm().Learned);
  std::vector<RequestSpec> Mix;
  Rng Random(Seed);
  size_t Writes = 0;
  for (size_t I = 0; I < Count; ++I) {
    if (WriteEvery && I % WriteEvery == WriteEvery - 1) {
      const auto &[Rep, R] = Pairs[Writes % Pairs.size()];
      Mix.push_back(makeFeedback(Rep, R, Writes % 2 == 0));
      ++Writes;
    } else if (Random.nextDouble() < 0.8 || Files.empty()) {
      const auto &[Rep, R] = Pairs[Random.nextBelow(Pairs.size())];
      Mix.push_back(makeQuery(Rep, R));
    } else {
      const std::string &File = Files[Random.nextBelow(Files.size())];
      std::string Source;
      readWholeFile(File, Source);
      Mix.push_back(makeTaint(File, Source));
    }
  }
  return Mix;
}

/// Client-observed latency of each read request of \p Mix through a real
/// SocketServer in front of \p Svc, and the same request's Service::handle
/// time called directly; their medians' difference is the transport wait.
bool measureTransport(service::Service &Svc, const std::vector<RequestSpec> &Mix,
                      const std::string &SocketPath,
                      std::vector<double> &ClientSeconds,
                      std::vector<double> &HandleSeconds) {
  ThreadPool Pool(Jobs);
  service::SocketServer Server(Svc, Pool, SocketPath);
  std::string Error;
  if (!Server.listen(Error)) {
    std::fprintf(stderr, "error: %s\n", Error.c_str());
    return false;
  }
  std::thread Serving([&Server]() { Server.run(); });
  service::SocketClient Client;
  bool Ok = Client.connect(SocketPath, Error);
  long Id = 0;
  for (const RequestSpec &Q : Mix) {
    if (!Ok || Q.Op == "feedback")
      continue;
    std::string Line = "{\"v\":1,\"id\":" + std::to_string(++Id) + "," + Q.Line;
    std::string Response;
    double T0 = nowSeconds();
    Ok &= Client.roundTrip(Line, Response);
    double T1 = nowSeconds();
    Response = Svc.handle(Line);
    ClientSeconds.push_back(T1 - T0);
    HandleSeconds.push_back(nowSeconds() - T1);
  }
  Client.close();
  Server.stop();
  Serving.join();
  return Ok;
}

/// First module file of each project root (the taint payloads).
std::vector<std::string> firstFiles(const std::vector<std::string> &Dirs) {
  std::vector<std::string> Files;
  for (const std::string &D : Dirs) {
    std::vector<std::string> Py;
    for (const fs::directory_entry &E : fs::recursive_directory_iterator(D))
      if (E.is_regular_file() && E.path().extension() == ".py")
        Py.push_back(E.path().string());
    std::sort(Py.begin(), Py.end());
    if (!Py.empty())
      Files.push_back(Py.front());
  }
  return Files;
}

void setTracing(Tracer &T, bool On) {
  T.On = On;
  metrics::Registry::global().setEnabled(On);
}

std::string jsonDoubles(const std::vector<double> &V) {
  std::string Out = "[";
  for (size_t I = 0; I < V.size(); ++I)
    Out += (I ? "," : "") + formatString("%.9f", V[I]);
  return Out + "]";
}

} // namespace

int cmdTrace(int Argc, char **Argv) {
  std::string Workload, Dir, OutFile;
  unsigned long Seed = 1;
  ArgParser Parser;
  Parser.string("--workload", &Workload, "W", "workload name")
      .string("--dir", &Dir, "DIR", "corpus directory (gen-corpus output)")
      .unsignedInt("--seed", &Seed, "S", "request-mix seed")
      .string("--out", &OutFile, "F", "result JSON");
  if (!Parser.parse(Argc, Argv, 2, nullptr) || Dir.empty() ||
      OutFile.empty()) {
    std::fprintf(stderr, "usage: benchtool trace --workload W --dir DIR "
                         "--out F ...\n");
    return 1;
  }
  spec::IOResult<spec::SeedSpec> SeedSpec =
      spec::loadSeedSpec(Dir + "/seed.spec");
  if (!SeedSpec) {
    std::fprintf(stderr, "error: %s\n", SeedSpec.Error.c_str());
    return 1;
  }
  const spec::SeedSpec &Seeds = SeedSpec.Value;
  std::vector<std::string> Dirs;
  for (const std::string &P : readLines(Dir + "/projects.txt"))
    Dirs.push_back(Dir + "/" + P);
  std::string Work = Dir + "/trace";
  fs::remove_all(Work);
  fs::create_directories(Work);

  Tracer T;
  Counts N;
  std::vector<double> TracedWall, UntracedWall;
  bool Ok = true;
  std::string Status = "null";
  std::vector<double> TransportClient, TransportHandle;
  // Unix socket paths are short; a relative one stays short however deep
  // the checkout is.
  std::string TransportSocket =
      fs::relative(Work + "/transport.sock").string();
  double Start = nowSeconds();

  // One untraced and one traced repetition of an operation, in turns
  // swapping which goes first; each repetition's wall time goes to its side
  // of the overhead comparison.
  auto Pair = [&](auto &&Op) {
    bool TracedFirst = TracedWall.size() % 2 == 1;
    for (bool On : {TracedFirst, !TracedFirst}) {
      setTracing(T, On);
      double T0 = nowSeconds();
      Ok &= Op();
      (On ? TracedWall : UntracedWall).push_back(nowSeconds() - T0);
    }
  };

  if (Workload == "learn_cold" || Workload == "relearn_edit") {
    LearnConfig C;
    C.Dirs = Dirs;
    C.OutFile = Work + "/out.spec";
    std::vector<std::string> Edits;
    if (Workload == "relearn_edit") {
      C.CacheDir = Work + "/cache";
      C.WarmStart = true;
      Edits = readLines(Dir + "/edits.tsv");
      setTracing(T, true);
      Ok &= learnOnce(C, Seeds, T, 0, N); // Set-up: populate the caches.
    }
    // Warm-up (thread pool, allocator, page cache), neither side.
    setTracing(T, false);
    Ok &= learnOnce(C, Seeds, T, 0, N);
    for (unsigned I = 0; I < LearnReps; ++I)
      Pair([&]() {
        long Id = static_cast<long>(TracedWall.size() +
                                    UntracedWall.size()) + 1;
        if (!Edits.empty()) {
          // "<k>\t<target>\t<edit>": append the k-th edit to its target.
          std::vector<std::string> F =
              splitString(Edits[(Id - 1) % Edits.size()], '\t');
          std::string Text;
          if (F.size() != 3 || !readWholeFile(Dir + "/" + F[2], Text))
            return false;
          std::ofstream(Dir + "/" + F[1], std::ios::app) << Text;
        }
        return learnOnce(C, Seeds, T, Id, N);
      });
  } else if (Workload == "serve_read" || Workload == "serve_write") {
    service::Service::Options O;
    O.SeedFile = Dir + "/seed.spec";
    O.CorpusDirs = Dirs;
    O.Jobs = Jobs;
    if (Workload == "serve_write")
      O.StateDir = Work + "/state";
    service::Service Svc(O);
    std::string Error;
    setTracing(T, true);
    {
      Scope Setup(T, "setup", 0);
      Scope S(T, "service.start", 0);
      Ok &= Svc.start(Error);
    }
    if (!Ok) {
      std::fprintf(stderr, "error: %s\n", Error.c_str());
      return 1;
    }
    service::StateStore Store(Work + "/standalone-state");
    Ok &= static_cast<bool>(Store.recover());
    std::vector<RequestSpec> Mix =
        makeMix(Svc, firstFiles(Dirs), 2 * ServeRequests,
                Workload == "serve_write" ? WriteEvery : 0, Seed);
    for (size_t I = 0; I + 1 < Mix.size(); I += 2)
      for (size_t K : {I, I + 1}) {
        setTracing(T, (K % 2 == 1) != ((I / 2) % 2 == 1));
        double Handle = 0.0;
        Ok &= serveOnce(Svc, Seeds, Store, Mix[K], static_cast<long>(K) + 1,
                        T, Handle);
        (T.On ? TracedWall : UntracedWall).push_back(Handle);
      }
    std::string S = Svc.handle("{\"v\":1,\"id\":0,\"op\":\"status\"}");
    size_t R = S.find("\"result\":");
    if (R != std::string::npos)
      Status = S.substr(R + 9, S.size() - R - 10);
    setTracing(T, false);
    Mix.resize(std::min(Mix.size(), TransportRequests));
    Ok &= measureTransport(Svc, Mix, TransportSocket, TransportClient,
                           TransportHandle);
  } else {
    std::fprintf(stderr, "error: unknown workload '%s'\n", Workload.c_str());
    return 1;
  }

  // The probe: every layer once on the first projects.
  setTracing(T, true);
  {
    std::optional<Scope> Probe;
    Probe.emplace(T, "probe", -1);
    LearnConfig C;
    C.Dirs.assign(Dirs.begin(),
                  Dirs.begin() + std::min(Dirs.size(), ProbeProjects));
    C.CacheDir = Work + "/probe-cache";
    C.OutFile = Work + "/probe.spec";
    Ok &= learnOnce(C, Seeds, T, -1, N); // Cold: cache misses and stores.
    Ok &= learnOnce(C, Seeds, T, -1, N); // Warm: cache hits.
    service::Service::Options O;
    O.SeedFile = Dir + "/seed.spec";
    O.CorpusDirs = C.Dirs;
    O.Jobs = Jobs;
    O.StateDir = Work + "/probe-state";
    service::Service Svc(O);
    std::string Error;
    {
      Scope S(T, "service.start", -1);
      Ok &= Svc.start(Error);
    }
    service::StateStore Store(Work + "/probe-standalone-state");
    Ok &= static_cast<bool>(Store.recover());
    std::vector<RequestSpec> Mix =
        makeMix(Svc, firstFiles(C.Dirs), 40, 20, Seed);
    double Handle = 0.0;
    for (size_t I = 0; I < Mix.size(); ++I)
      Ok &= serveOnce(Svc, Seeds, Store, Mix[I], -1, T, Handle);
    Probe.reset();
    // The learn workloads have no service of their own: time the
    // transport on the probe's.
    if (TransportClient.empty()) {
      setTracing(T, false);
      Ok &= measureTransport(Svc, Mix, TransportSocket, TransportClient,
                             TransportHandle);
    }
  }
  double Wall = nowSeconds() - Start;
  setTracing(T, false);

  std::string Json = "{\"ok\":" + std::string(Ok ? "true" : "false") +
                     ",\"wall_s\":" + formatString("%.9f", Wall) +
                     ",\"traced_wall_s\":" + jsonDoubles(TracedWall) +
                     ",\"untraced_wall_s\":" + jsonDoubles(UntracedWall) +
                     ",\"transport_client_s\":" + jsonDoubles(TransportClient) +
                     ",\"transport_handle_s\":" + jsonDoubles(TransportHandle) +
                     ",\"counts\":{" +
                     formatString("\"files_loaded\":%llu,\"events\":%llu,"
                                  "\"rows\":%llu,\"iterations\":%llu,"
                                  "\"spec_bytes\":%llu",
                                  (unsigned long long)N.FilesLoaded,
                                  (unsigned long long)N.Events,
                                  (unsigned long long)N.Rows,
                                  (unsigned long long)N.Iterations,
                                  (unsigned long long)N.SpecBytes) +
                     "},\"status\":" + Status + ",\"spans\":[";
  for (size_t I = 0; I < T.spans().size(); ++I) {
    const Tracer::Record &S = T.spans()[I];
    Json += formatString("%s{\"name\":\"%s\",\"start\":%.9f,\"end\":%.9f,"
                         "\"parent\":%d,\"request\":%ld}",
                         I ? "," : "", S.Name.c_str(), S.Start - Start,
                         S.End - Start, S.Parent, S.Request);
  }
  Json += "],\"registry\":" + metrics::Registry::global().toJson() + "}\n";
  if (!writeWholeFile(OutFile, Json)) {
    std::fprintf(stderr, "error: cannot write %s\n", OutFile.c_str());
    return 1;
  }
  return Ok ? 0 : 1;
}

} // namespace perfbench
