//===- tests/graph_merge_test.cpp - Move-append and BFS reachability ------===//
//
// Part of seldon-cpp, a reproduction of "Scalable Taint Specification
// Inference with Big Code" (PLDI 2019).
//
//===----------------------------------------------------------------------===//
//
// PropagationGraph::append moves a project graph into the corpus graph;
// these tests pin it to the copying merge it replaced. reachableFrom and
// reachingTo keep per-thread visited marks; these tests pin them to a
// plain whole-graph BFS, on one file, many files, cyclic graphs, and from
// several threads at once.
//
//===----------------------------------------------------------------------===//

#include "TestCorpus.h"

#include "propgraph/PropagationGraph.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <thread>

using namespace seldon;
using namespace seldon::propgraph;

namespace {

/// The copying merge append replaced, written against the public API: the
/// files, then each event with its id and file index shifted, then every
/// edge in successor order. addEdge records predecessors in that order,
/// which is ascending source id.
void copyAppend(PropagationGraph &Into, const PropagationGraph &Other) {
  uint32_t FileOffset = static_cast<uint32_t>(Into.files().size());
  EventId IdOffset = static_cast<EventId>(Into.numEvents());
  for (const std::string &F : Other.files())
    Into.addFile(F);
  for (const Event &E : Other.events()) {
    Event Copy = E;
    Copy.FileIdx += FileOffset;
    Into.addEvent(std::move(Copy));
  }
  for (EventId From = 0; From < Other.numEvents(); ++From)
    for (EventId To : Other.successors(From))
      Into.addEdge(From + IdOffset, To + IdOffset);
}

void expectSameGraph(const PropagationGraph &A, const PropagationGraph &B) {
  ASSERT_EQ(A.files(), B.files());
  ASSERT_EQ(A.numEvents(), B.numEvents());
  EXPECT_EQ(A.numEdges(), B.numEdges());
  for (EventId Id = 0; Id < A.numEvents(); ++Id) {
    const Event &EA = A.event(Id);
    const Event &EB = B.event(Id);
    ASSERT_EQ(EA.Id, Id);
    ASSERT_EQ(EB.Id, Id);
    EXPECT_EQ(EA.Kind, EB.Kind);
    EXPECT_EQ(EA.Reps, EB.Reps);
    EXPECT_EQ(EA.Candidates, EB.Candidates);
    EXPECT_EQ(EA.FileIdx, EB.FileIdx);
    EXPECT_EQ(EA.Loc.Line, EB.Loc.Line);
    EXPECT_EQ(EA.Loc.Col, EB.Loc.Col);
    EXPECT_EQ(A.successors(Id), B.successors(Id)) << "event " << Id;
    EXPECT_EQ(A.predecessors(Id), B.predecessors(Id)) << "event " << Id;
  }
}

/// Plain BFS with a visited vector over the whole graph.
std::vector<EventId> naiveBfs(const PropagationGraph &G, EventId Start,
                              bool Forward) {
  std::vector<EventId> Out;
  std::vector<bool> Seen(G.numEvents(), false);
  std::vector<EventId> Queue{Start};
  Seen[Start] = true;
  for (size_t Head = 0; Head < Queue.size(); ++Head) {
    EventId Cur = Queue[Head];
    for (EventId Next :
         Forward ? G.successors(Cur) : G.predecessors(Cur)) {
      if (Seen[Next])
        continue;
      Seen[Next] = true;
      Out.push_back(Next);
      Queue.push_back(Next);
    }
  }
  return Out;
}

void expectReachabilityMatches(const PropagationGraph &G) {
  for (EventId Id = 0; Id < G.numEvents(); ++Id) {
    ASSERT_EQ(G.reachableFrom(Id), naiveBfs(G, Id, true)) << "from " << Id;
    ASSERT_EQ(G.reachingTo(Id), naiveBfs(G, Id, false)) << "to " << Id;
  }
}

/// One file of \p N events with random edges; \p Cyclic also adds edges
/// from later to earlier events. Event I is named after I % \p Names, so a
/// small \p Names gives collapseByRep many events to merge.
PropagationGraph randomFileGraph(uint64_t Seed, uint32_t N, bool Cyclic,
                                 uint32_t Names = ~0u) {
  Rng R(Seed);
  PropagationGraph G;
  uint32_t File = G.addFile("f.py");
  for (uint32_t I = 0; I < N; ++I) {
    Event E;
    E.Reps = {"e" + std::to_string(I % Names) + "()"};
    E.Candidates = AllRolesMask;
    E.FileIdx = File;
    G.addEvent(std::move(E));
  }
  for (uint32_t I = 0; I < 3 * N; ++I) {
    EventId A = static_cast<EventId>(R.nextBelow(N));
    EventId B = static_cast<EventId>(R.nextBelow(N));
    if (!Cyclic && A > B)
      std::swap(A, B);
    G.addEdge(A, B);
  }
  return G;
}

class GraphAppendTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(GraphAppendTest, MoveAppendMatchesTheCopyingMerge) {
  corpus::Corpus Data = testutil::makeCorpus(GetParam());
  for (bool CrossModule : {false, true}) {
    // Cross-module linking adds edges after the per-module merge, so its
    // project graphs may list predecessors out of id order.
    BuildOptions Opts;
    Opts.CrossModuleFlows = CrossModule;
    PropagationGraph Reference, Moved;
    for (const pysem::Project &P : Data.Projects) {
      PropagationGraph Project = buildProjectGraph(P, Opts);
      copyAppend(Reference, Project);
      Moved.append(std::move(Project));
      EXPECT_EQ(Project.numEvents(), 0u);
      EXPECT_EQ(Project.numEdges(), 0u);
      EXPECT_TRUE(Project.files().empty());
    }
    SCOPED_TRACE(CrossModule ? "cross-module" : "per-module");
    ASSERT_GT(Moved.numEdges(), 0u);
    expectSameGraph(Reference, Moved);
  }
}

TEST_P(GraphAppendTest, UnorderedPredecessorsComeOutSorted) {
  PropagationGraph Cyclic = randomFileGraph(GetParam(), 60, true);
  PropagationGraph Reference;
  copyAppend(Reference, Cyclic);
  PropagationGraph Moved;
  Moved.append(PropagationGraph(Cyclic));
  expectSameGraph(Reference, Moved);
}

INSTANTIATE_TEST_SUITE_P(Seeds, GraphAppendTest,
                         ::testing::Values(uint64_t{3}, uint64_t{17},
                                           uint64_t{2024}));

TEST(ReachabilityTest, SingleFileMatchesNaiveBfs) {
  expectReachabilityMatches(randomFileGraph(7, 150, false));
}

TEST(ReachabilityTest, CyclicGraphNeverReportsTheStart) {
  PropagationGraph G = randomFileGraph(11, 150, true);
  ASSERT_FALSE(G.isAcyclic());
  expectReachabilityMatches(G);
  for (EventId Id = 0; Id < G.numEvents(); ++Id) {
    std::vector<EventId> Fwd = G.reachableFrom(Id);
    EXPECT_EQ(std::count(Fwd.begin(), Fwd.end(), Id), 0);
  }
}

TEST(ReachabilityTest, CorpusGraphMatchesNaiveBfs) {
  PropagationGraph Global =
      testutil::buildGlobalGraph(testutil::makeCorpus(5));
  ASSERT_GT(Global.files().size(), 1u);
  expectReachabilityMatches(Global);
}

TEST(ReachabilityTest, CollapsedGraphsMatchNaiveBfs) {
  expectReachabilityMatches(
      testutil::buildGlobalGraph(testutil::makeCorpus(5)).collapseByRep());
  // An acyclic file whose 200 events share 25 names collapses into a
  // graph with cycles.
  PropagationGraph Collapsed =
      randomFileGraph(19, 200, false, 25).collapseByRep();
  ASSERT_FALSE(Collapsed.isAcyclic());
  expectReachabilityMatches(Collapsed);
}

TEST(ReachabilityTest, ConcurrentCallersSeeTheirOwnTraversals) {
  // Each thread alternates between a large and a small graph, so its
  // visited marks are reused across graphs of different sizes.
  PropagationGraph Global =
      testutil::buildGlobalGraph(testutil::makeCorpus(5));
  PropagationGraph Small = randomFileGraph(13, 40, true);
  auto Expected = [](const PropagationGraph &G) {
    std::vector<std::vector<EventId>> Fwd, Bwd;
    for (EventId Id = 0; Id < G.numEvents(); ++Id) {
      Fwd.push_back(naiveBfs(G, Id, true));
      Bwd.push_back(naiveBfs(G, Id, false));
    }
    return std::make_pair(Fwd, Bwd);
  };
  auto GlobalRef = Expected(Global);
  auto SmallRef = Expected(Small);

  constexpr unsigned Threads = 4;
  std::vector<size_t> Mismatches(Threads, 0);
  std::vector<std::thread> Pool;
  for (unsigned T = 0; T < Threads; ++T)
    Pool.emplace_back([&, T] {
      for (EventId Id = T; Id < Global.numEvents(); Id += Threads) {
        Mismatches[T] += Global.reachableFrom(Id) != GlobalRef.first[Id];
        Mismatches[T] += Global.reachingTo(Id) != GlobalRef.second[Id];
        EventId S = Id % Small.numEvents();
        Mismatches[T] += Small.reachableFrom(S) != SmallRef.first[S];
        Mismatches[T] += Small.reachingTo(S) != SmallRef.second[S];
      }
    });
  for (std::thread &Th : Pool)
    Th.join();
  for (unsigned T = 0; T < Threads; ++T)
    EXPECT_EQ(Mismatches[T], 0u) << "thread " << T;
}

} // namespace
