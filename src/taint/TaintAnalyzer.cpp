//===- taint/TaintAnalyzer.cpp - Taint-flow violation detection -----------===//

#include "taint/TaintAnalyzer.h"

#include "support/Metrics.h"

#include <algorithm>
#include <unordered_set>

using namespace seldon;
using namespace seldon::taint;
using namespace seldon::propgraph;

bool RoleResolver::hasRole(const Event &E, Role R) const {
  if (!maskHas(E.Candidates, R))
    return false;
  if (Exact)
    for (const std::string &Rep : E.Reps)
      if (Exact->has(Rep, R))
        return true;
  if (Learned && Learned->selectRole(E.Reps, R, Threshold).has_value())
    return true;
  return false;
}

std::vector<RoleMask>
TaintAnalyzer::resolveRoles(const RoleResolver &Roles) const {
  std::vector<RoleMask> Out(Graph.numEvents(), 0);
  for (const Event &E : Graph.events()) {
    RoleMask Mask = 0;
    for (Role R : {Role::Source, Role::Sanitizer, Role::Sink})
      if (Roles.hasRole(E, R))
        Mask |= maskOf(R);
    Out[E.Id] = Mask;
  }
  return Out;
}

std::vector<Violation>
TaintAnalyzer::analyze(const RoleResolver &Roles) const {
  std::vector<Violation> Out;
  std::vector<RoleMask> Mask = resolveRoles(Roles);

  // BFS scratch shared by every source. Each search clears only the Seen
  // marks the previous one set (Touched: the queued events plus the
  // sanitizers that absorbed taint), so a search costs what it reaches,
  // not the size of the graph. Parent needs no reset: a witness walk only
  // follows entries written by the current search, ending at Src.
  std::vector<EventId> Parent(Graph.numEvents(), InvalidEvent);
  std::vector<uint8_t> Seen(Graph.numEvents(), 0);
  std::vector<EventId> Queue, Touched;

  for (const Event &SrcEvent : Graph.events()) {
    if (!maskHas(Mask[SrcEvent.Id], Role::Source))
      continue;
    EventId Src = SrcEvent.Id;

    // Forward BFS that never expands *through* sanitizers: a sanitizer
    // event absorbs the taint (its output is clean).
    for (EventId E : Touched)
      Seen[E] = 0;
    Touched.assign(1, Src);
    Queue.assign(1, Src);
    Seen[Src] = 1;
    Parent[Src] = InvalidEvent;

    for (size_t Head = 0; Head < Queue.size(); ++Head) {
      EventId Cur = Queue[Head];
      for (EventId Next : Graph.successors(Cur)) {
        if (Seen[Next])
          continue;
        Seen[Next] = 1;
        Parent[Next] = Cur;
        Touched.push_back(Next);
        if (maskHas(Mask[Next], Role::Sanitizer))
          continue; // Taint stops here.
        if (maskHas(Mask[Next], Role::Sink)) {
          Violation V;
          V.Source = Src;
          V.Sink = Next;
          V.FileIdx = SrcEvent.FileIdx;
          for (EventId Walk = Next; Walk != InvalidEvent;
               Walk = Parent[Walk])
            V.Path.push_back(Walk);
          std::reverse(V.Path.begin(), V.Path.end());
          Out.push_back(std::move(V));
        }
        Queue.push_back(Next);
      }
    }
  }

  metrics::Registry &Reg = metrics::Registry::global();
  if (Reg.enabled()) {
    Reg.counter("taint.analyses").add();
    Reg.counter("taint.violations").add(Out.size());
  }
  return Out;
}

size_t
seldon::taint::countAffectedProjects(const PropagationGraph &Graph,
                                     const std::vector<Violation> &Violations) {
  std::unordered_set<std::string> Projects;
  for (const Violation &V : Violations) {
    const std::string &Path = Graph.files()[V.FileIdx];
    size_t Slash = Path.find('/');
    Projects.insert(Slash == std::string::npos ? Path : Path.substr(0, Slash));
  }
  return Projects.size();
}
