//===- propgraph/PropagationGraph.cpp - Information-flow graph ------------===//

#include "propgraph/PropagationGraph.h"

#include <algorithm>
#include <cassert>
#include <iterator>
#include <unordered_map>
#include <unordered_set>

using namespace seldon;
using namespace seldon::propgraph;

uint32_t PropagationGraph::addFile(std::string Path) {
  Files.push_back(std::move(Path));
  return static_cast<uint32_t>(Files.size() - 1);
}

EventId PropagationGraph::addEvent(Event E) {
  assert(!E.Reps.empty() && "events must carry at least one representation");
  assert(E.FileIdx < Files.size() && "event references unregistered file");
  E.Id = static_cast<EventId>(Events.size());
  Events.push_back(std::move(E));
  Succ.emplace_back();
  Pred.emplace_back();
  return Events.back().Id;
}

void PropagationGraph::addEdge(EventId From, EventId To) {
  assert(From < Events.size() && To < Events.size());
  if (From == To)
    return;
  std::vector<EventId> &Out = Succ[From];
  if (std::find(Out.begin(), Out.end(), To) != Out.end())
    return;
  Out.push_back(To);
  Pred[To].push_back(From);
  ++EdgeCount;
}

void PropagationGraph::append(PropagationGraph &&Other) {
  uint32_t FileOffset = static_cast<uint32_t>(Files.size());
  EventId IdOffset = static_cast<EventId>(Events.size());
  // Renumber in place, then move the events (with their Reps strings) and
  // adjacency lists over; range insert keeps the vectors' geometric growth.
  for (Event &E : Other.Events) {
    E.Id += IdOffset;
    E.FileIdx += FileOffset;
  }
  for (std::vector<EventId> &Out : Other.Succ)
    for (EventId &To : Out)
      To += IdOffset;
  // A merged graph lists predecessors in ascending id order, whatever
  // order the edges were added in.
  for (std::vector<EventId> &In : Other.Pred) {
    for (EventId &From : In)
      From += IdOffset;
    std::sort(In.begin(), In.end());
  }
  auto MoveAll = [](auto &To, auto &From) {
    To.insert(To.end(), std::make_move_iterator(From.begin()),
              std::make_move_iterator(From.end()));
  };
  MoveAll(Files, Other.Files);
  MoveAll(Events, Other.Events);
  MoveAll(Succ, Other.Succ);
  MoveAll(Pred, Other.Pred);
  EdgeCount += Other.EdgeCount;
  Other = PropagationGraph();
}

namespace {

/// Per-thread visited marks for the BFS helpers. A slot holds the epoch of
/// the last traversal that reached it, so starting a traversal is O(1) and
/// one costs O(events it touches) — not O(graph), which is what the
/// per-file constraint extractors would otherwise pay per anchor on the
/// corpus-wide graph. The array grows to the largest graph the thread has
/// walked and is zeroed again only when the epoch counter wraps.
struct VisitMarks {
  std::vector<uint32_t> Stamp;
  uint32_t Epoch = 0;

  uint32_t begin(size_t NumEvents) {
    if (Stamp.size() < NumEvents)
      Stamp.resize(NumEvents, 0);
    if (++Epoch == 0) {
      std::fill(Stamp.begin(), Stamp.end(), 0);
      Epoch = 1;
    }
    return Epoch;
  }
};

/// Breadth-first walk of \p Adj from \p Start, in discovery order; Start
/// itself is never reported.
std::vector<EventId> bfs(const std::vector<std::vector<EventId>> &Adj,
                         EventId Start) {
  thread_local VisitMarks Marks;
  uint32_t Epoch = Marks.begin(Adj.size());
  uint32_t *Seen = Marks.Stamp.data();
  Seen[Start] = Epoch;
  // Out doubles as the queue: it holds exactly the events behind Start.
  std::vector<EventId> Out;
  for (size_t Head = 0;; ++Head) {
    EventId Cur = Head == 0 ? Start : Out[Head - 1];
    for (EventId Next : Adj[Cur]) {
      if (Seen[Next] == Epoch)
        continue;
      Seen[Next] = Epoch;
      Out.push_back(Next);
    }
    if (Head == Out.size())
      return Out;
  }
}

} // namespace

std::vector<EventId> PropagationGraph::reachableFrom(EventId Start) const {
  return bfs(Succ, Start);
}

std::vector<EventId> PropagationGraph::reachingTo(EventId Start) const {
  return bfs(Pred, Start);
}

PropagationGraph PropagationGraph::collapseByRep() const {
  PropagationGraph Out;
  // All merged events nominally live in one synthetic file; per-file
  // provenance is meaningless after contraction.
  uint32_t FileIdx = Out.addFile("<collapsed>");

  std::unordered_map<std::string, EventId> RepToNew;
  std::vector<EventId> OldToNew(Events.size(), InvalidEvent);

  for (const Event &E : Events) {
    auto It = RepToNew.find(E.primaryRep());
    if (It != RepToNew.end()) {
      EventId NewId = It->second;
      OldToNew[E.Id] = NewId;
      Event &Merged = Out.event(NewId);
      Merged.Candidates |= E.Candidates;
      for (const std::string &R : E.Reps)
        if (std::find(Merged.Reps.begin(), Merged.Reps.end(), R) ==
            Merged.Reps.end())
          Merged.Reps.push_back(R);
      continue;
    }
    Event Copy = E;
    Copy.FileIdx = FileIdx;
    EventId NewId = Out.addEvent(std::move(Copy));
    RepToNew.emplace(E.primaryRep(), NewId);
    OldToNew[E.Id] = NewId;
  }

  for (EventId From = 0; From < Events.size(); ++From)
    for (EventId To : Succ[From])
      Out.addEdge(OldToNew[From], OldToNew[To]);
  return Out;
}

bool PropagationGraph::isAcyclic() const {
  // Kahn's algorithm: the graph is acyclic iff all nodes get popped.
  std::vector<size_t> InDegree(Events.size(), 0);
  for (const std::vector<EventId> &Out : Succ)
    for (EventId To : Out)
      ++InDegree[To];
  std::vector<EventId> Queue;
  for (EventId Id = 0; Id < Events.size(); ++Id)
    if (InDegree[Id] == 0)
      Queue.push_back(Id);
  size_t Popped = 0;
  for (size_t Head = 0; Head < Queue.size(); ++Head) {
    EventId Cur = Queue[Head];
    ++Popped;
    for (EventId Next : Succ[Cur])
      if (--InDegree[Next] == 0)
        Queue.push_back(Next);
  }
  return Popped == Events.size();
}
