//===- load.cpp - Single-threaded seldond load generator ------------------===//
//
//   benchtool load --socket PATH --readers N --seconds T --seed S
//       --query-pool F --taint-pool F
//       [--writer-period P --feedback-pool F] --out FILE
//
// One thread multiplexes every connection with poll(), so the client never
// competes with itself for a lock and the latencies it records are the
// daemon's. Readers are closed loops: each connection sends its next
// request as soon as the previous reply arrives, choosing `query` with
// probability 0.8 and `taint` otherwise. The optional writer is
// an open loop: a `feedback` request falls due every --writer-period
// seconds and is sent when due whether or not earlier ones were answered;
// its latency is timed from the due time, and how late the generator sent
// it is recorded too.
//
// Pool files hold one request per line without its envelope head: the
// client sends `{"v":1,"id":<n>,` followed by the line.
//
//===----------------------------------------------------------------------===//

#include "benchtool.h"

#include "support/ArgParser.h"
#include "support/Rng.h"

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <deque>
#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

using namespace seldon;

namespace perfbench {
namespace {

enum OpKind { Query = 0, Taint = 1, Feedback = 2, NumKinds = 3 };
const char *KindNames[NumKinds] = {"query", "taint", "feedback"};
constexpr double QueryShare = 0.8;

struct Pending {
  OpKind Kind;
  double Due;
  double Sent;
};

struct Conn {
  int Fd = -1;
  bool Writer = false;
  std::string In;
  std::string Out;
  std::deque<Pending> Outstanding;
  Rng Random{0};
};

struct OpStats {
  std::vector<double> LatencyMs;
  std::vector<double> LateMs;
  uint64_t Ok = 0;
  uint64_t Failed = 0;
};

int connectTo(const std::string &Path) {
  int Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (Fd < 0)
    return -1;
  sockaddr_un Addr;
  std::memset(&Addr, 0, sizeof(Addr));
  Addr.sun_family = AF_UNIX;
  if (Path.size() >= sizeof(Addr.sun_path)) {
    ::close(Fd);
    return -1;
  }
  std::memcpy(Addr.sun_path, Path.c_str(), Path.size() + 1);
  if (::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) != 0) {
    ::close(Fd);
    return -1;
  }
  ::fcntl(Fd, F_SETFL, ::fcntl(Fd, F_GETFL) | O_NONBLOCK);
  return Fd;
}

std::string jsonArray(const std::vector<double> &V) {
  std::string Out = "[";
  char Buf[32];
  for (size_t I = 0; I < V.size(); ++I) {
    std::snprintf(Buf, sizeof(Buf), "%s%.6f", I ? "," : "", V[I]);
    Out += Buf;
  }
  return Out + "]";
}

} // namespace

int cmdLoad(int Argc, char **Argv) {
  std::string Socket, QueryPoolFile, TaintPoolFile, FeedbackPoolFile, OutFile;
  unsigned long Readers = 4, Seed = 1;
  double Seconds = 5.0, WriterPeriod = 0.0;
  ArgParser Parser;
  Parser.string("--socket", &Socket, "PATH", "daemon socket")
      .unsignedInt("--readers", &Readers, "N", "closed-loop connections")
      .decimal("--seconds", &Seconds, "T", "measured duration")
      .unsignedInt("--seed", &Seed, "S", "request-mix seed")
      .string("--query-pool", &QueryPoolFile, "F", "query requests")
      .string("--taint-pool", &TaintPoolFile, "F", "taint requests")
      .decimal("--writer-period", &WriterPeriod, "P",
               "seconds between feedback requests (0 = no writer)")
      .string("--feedback-pool", &FeedbackPoolFile, "F", "feedback requests")
      .string("--out", &OutFile, "F", "result JSON");
  if (!Parser.parse(Argc, Argv, 2, nullptr) || Socket.empty() ||
      OutFile.empty()) {
    std::fprintf(stderr, "usage: benchtool load --socket PATH --out F ...\n");
    return 1;
  }
  std::vector<std::string> Pools[NumKinds] = {
      readLines(QueryPoolFile), readLines(TaintPoolFile),
      WriterPeriod > 0.0 ? readLines(FeedbackPoolFile)
                         : std::vector<std::string>()};
  if ((Readers > 0 && (Pools[Query].empty() || Pools[Taint].empty())) ||
      (WriterPeriod > 0.0 && Pools[Feedback].empty())) {
    std::fprintf(stderr, "error: empty request pool\n");
    return 1;
  }

  std::vector<Conn> Conns(Readers + (WriterPeriod > 0.0 ? 1 : 0));
  for (size_t I = 0; I < Conns.size(); ++I) {
    Conns[I].Fd = connectTo(Socket);
    if (Conns[I].Fd < 0) {
      std::fprintf(stderr, "error: cannot connect to %s: %s\n",
                   Socket.c_str(), std::strerror(errno));
      return 1;
    }
    Conns[I].Writer = I == Readers;
    Conns[I].Random = Rng(Seed * 1000003ull + I);
  }

  OpStats Stats[NumKinds];
  uint64_t NextId = 1;
  size_t NextFeedback = 0;
  auto Enqueue = [&](Conn &C, OpKind Kind, double Due, double Now) {
    const std::vector<std::string> &Pool = Pools[Kind];
    const std::string &Body =
        Kind == Feedback ? Pool[NextFeedback++ % Pool.size()]
                         : Pool[C.Random.nextBelow(Pool.size())];
    C.Out += "{\"v\":1,\"id\":" + std::to_string(NextId++) + "," + Body +
             "\n";
    C.Outstanding.push_back({Kind, Due, Now});
  };
  auto IssueRead = [&](Conn &C, double Now) {
    Enqueue(C, C.Random.nextDouble() < QueryShare ? Query : Taint, Now, Now);
  };

  double Start = nowSeconds();
  double End = Start + Seconds;
  double DrainLimit = End + 60.0;
  double NextDue = Start + WriterPeriod;
  for (Conn &C : Conns)
    if (!C.Writer)
      IssueRead(C, Start);

  bool Stopped = false;
  std::vector<pollfd> Fds(Conns.size());
  char Buf[1 << 16];
  while (true) {
    double Now = nowSeconds();
    if (Now >= End)
      Stopped = true;
    if (!Stopped && WriterPeriod > 0.0)
      while (Now >= NextDue && NextDue < End) {
        Enqueue(Conns.back(), Feedback, NextDue, Now);
        NextDue += WriterPeriod;
      }
    size_t Busy = 0;
    for (Conn &C : Conns)
      Busy += C.Outstanding.size();
    if ((Stopped && Busy == 0) || Now >= DrainLimit)
      break;

    // Flush what fits; the rest waits for POLLOUT.
    for (size_t I = 0; I < Conns.size(); ++I) {
      Conn &C = Conns[I];
      while (!C.Out.empty()) {
        ssize_t N = ::send(C.Fd, C.Out.data(), C.Out.size(), MSG_NOSIGNAL);
        if (N <= 0)
          break;
        C.Out.erase(0, static_cast<size_t>(N));
      }
      Fds[I] = {C.Fd, static_cast<short>(POLLIN | (C.Out.empty() ? 0 : POLLOUT)),
                0};
    }
    double Wake = Stopped ? Now + 0.1 : End;
    if (!Stopped && WriterPeriod > 0.0 && NextDue < Wake)
      Wake = NextDue;
    int TimeoutMs = static_cast<int>(std::ceil(std::max(0.0, Wake - Now) * 1e3));
    if (::poll(Fds.data(), Fds.size(), TimeoutMs) < 0 && errno != EINTR) {
      std::fprintf(stderr, "error: poll: %s\n", std::strerror(errno));
      return 1;
    }
    for (size_t I = 0; I < Conns.size(); ++I) {
      if (!(Fds[I].revents & (POLLIN | POLLHUP | POLLERR)))
        continue;
      Conn &C = Conns[I];
      ssize_t N = ::recv(C.Fd, Buf, sizeof(Buf), 0);
      if (N == 0 || (N < 0 && errno != EAGAIN && errno != EINTR)) {
        std::fprintf(stderr, "error: daemon closed connection %zu\n", I);
        return 1;
      }
      if (N < 0)
        continue;
      C.In.append(Buf, static_cast<size_t>(N));
      double Got = nowSeconds();
      size_t Eol;
      while ((Eol = C.In.find('\n')) != std::string::npos) {
        std::string Line = C.In.substr(0, Eol);
        C.In.erase(0, Eol + 1);
        if (C.Outstanding.empty()) {
          std::fprintf(stderr, "error: unsolicited response\n");
          return 1;
        }
        Pending P = C.Outstanding.front();
        C.Outstanding.pop_front();
        OpStats &S = Stats[P.Kind];
        // The envelope's "ok" precedes the payload, so the first "ok" key
        // on the line is the envelope's.
        size_t OkPos = Line.find("\"ok\":");
        if (OkPos != std::string::npos &&
            Line.compare(OkPos + 5, 4, "true") == 0) {
          ++S.Ok;
          S.LatencyMs.push_back((Got - P.Due) * 1e3);
          if (P.Kind == Feedback)
            S.LateMs.push_back((P.Sent - P.Due) * 1e3);
        } else {
          ++S.Failed;
          if (S.Failed <= 3)
            std::fprintf(stderr, "failed %s: %.300s\n", KindNames[P.Kind],
                         Line.c_str());
        }
        if (!C.Writer && !Stopped)
          IssueRead(C, Got);
      }
    }
  }
  double Measured = std::min(nowSeconds(), End) - Start;
  uint64_t Unanswered = 0;
  for (Conn &C : Conns) {
    Unanswered += C.Outstanding.size();
    ::close(C.Fd);
  }

  std::string Json = "{\"seconds\":" + std::to_string(Measured) +
                     ",\"unanswered\":" + std::to_string(Unanswered);
  for (int K = 0; K < NumKinds; ++K)
    Json += std::string(",\"") + KindNames[K] + "\":{\"ok\":" +
            std::to_string(Stats[K].Ok) +
            ",\"failed\":" + std::to_string(Stats[K].Failed) +
            ",\"latency_ms\":" + jsonArray(Stats[K].LatencyMs) +
            ",\"late_ms\":" + jsonArray(Stats[K].LateMs) + "}";
  Json += "}\n";
  if (!writeWholeFile(OutFile, Json)) {
    std::fprintf(stderr, "error: cannot write %s\n", OutFile.c_str());
    return 1;
  }
  return 0;
}

} // namespace perfbench
