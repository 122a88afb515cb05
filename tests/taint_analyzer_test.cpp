//===- tests/taint_analyzer_test.cpp - Taint BFS against its reference ---===//
//
// Part of seldon-cpp, a reproduction of "Scalable Taint Specification
// Inference with Big Code" (PLDI 2019).
//
//===----------------------------------------------------------------------===//
//
// TaintAnalyzer::analyze shares one set of BFS arrays across all sources
// and clears only what each search marked. The analyzer that allocated
// fresh whole-graph arrays per source is kept here as the reference: both
// must report the same violations, with the same witness paths, in the
// same order.
//
//===----------------------------------------------------------------------===//

#include "TestCorpus.h"

#include "infer/Pipeline.h"
#include "propgraph/GraphBuilder.h"
#include "taint/TaintAnalyzer.h"

#include <gtest/gtest.h>

#include <algorithm>

using namespace seldon;
using namespace seldon::propgraph;

namespace {

/// The per-source allocating analyzer, kept as the reference.
std::vector<taint::Violation>
analyzeByReference(const PropagationGraph &Graph,
                   const taint::RoleResolver &Roles) {
  std::vector<taint::Violation> Out;
  std::vector<RoleMask> Mask = taint::TaintAnalyzer(Graph).resolveRoles(Roles);
  for (const Event &SrcEvent : Graph.events()) {
    if (!maskHas(Mask[SrcEvent.Id], Role::Source))
      continue;
    EventId Src = SrcEvent.Id;
    std::vector<EventId> Parent(Graph.numEvents(), InvalidEvent);
    std::vector<bool> Seen(Graph.numEvents(), false);
    std::vector<EventId> Queue{Src};
    Seen[Src] = true;
    for (size_t Head = 0; Head < Queue.size(); ++Head) {
      EventId Cur = Queue[Head];
      for (EventId Next : Graph.successors(Cur)) {
        if (Seen[Next])
          continue;
        Seen[Next] = true;
        Parent[Next] = Cur;
        if (maskHas(Mask[Next], Role::Sanitizer))
          continue;
        if (maskHas(Mask[Next], Role::Sink)) {
          taint::Violation V;
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
  return Out;
}

void expectSameViolations(const std::vector<taint::Violation> &Got,
                          const std::vector<taint::Violation> &Want) {
  ASSERT_EQ(Got.size(), Want.size());
  for (size_t I = 0; I < Got.size(); ++I) {
    EXPECT_EQ(Got[I].Source, Want[I].Source) << I;
    EXPECT_EQ(Got[I].Sink, Want[I].Sink) << I;
    EXPECT_EQ(Got[I].Path, Want[I].Path) << I;
    EXPECT_EQ(Got[I].FileIdx, Want[I].FileIdx) << I;
  }
}

TEST(TaintReferenceTest, SharedSanitizersAndRepeatedSources) {
  // Two sources reach the same sanitizer and sink; a third path skips the
  // sanitizer. Every search must start from clean marks.
  pysem::Project Proj("p");
  const pysem::ModuleInfo &M = Proj.addModule(
      "p/app.py", "import web\nimport db\nimport safe\n"
                  "a = web.read()\n"
                  "b = safe.clean(a)\n"
                  "db.exec(b)\n"
                  "c = web.read()\n"
                  "db.exec(safe.clean(c))\n"
                  "db.exec(c)\n"
                  "d = web.read()\n"
                  "db.exec(d + a)\n");
  ASSERT_TRUE(M.Errors.empty());
  PropagationGraph G = buildModuleGraph(Proj, M);
  spec::SeedSpec Seed = spec::SeedSpec::parse(
      "o: web.read()\ni: db.exec()\na: safe.clean()\n");
  taint::RoleResolver Roles(&Seed.Spec, nullptr);
  std::vector<taint::Violation> Got = taint::TaintAnalyzer(G).analyze(Roles);
  EXPECT_GE(Got.size(), 2u);
  expectSameViolations(Got, analyzeByReference(G, Roles));
}

class TaintReferenceCorpusTest : public ::testing::TestWithParam<int> {};

TEST_P(TaintReferenceCorpusTest, MatchesThePerSourceReference) {
  corpus::Corpus Data = testutil::makeCorpus(23, GetParam());
  infer::PipelineOptions Opts;
  Opts.Jobs = 1;
  Opts.Gen.RepCutoff = 2;
  Opts.Solve.MaxIterations = 60;
  infer::Session S(Opts);
  S.addProjects(Data.Projects);
  S.generateConstraints(Data.Seed);
  infer::PipelineResult R = S.solve();
  const PropagationGraph &G = *R.Graph;

  size_t Reported = 0;
  for (double Threshold : {0.05, 0.1, 0.5}) {
    SCOPED_TRACE(Threshold);
    taint::RoleResolver Roles(&Data.Seed.Spec, &R.Learned, Threshold);
    std::vector<taint::Violation> Got =
        taint::TaintAnalyzer(G).analyze(Roles);
    expectSameViolations(Got, analyzeByReference(G, Roles));
    Reported += Got.size();
  }
  taint::RoleResolver SeedOnly(&Data.Seed.Spec, nullptr);
  expectSameViolations(taint::TaintAnalyzer(G).analyze(SeedOnly),
                       analyzeByReference(G, SeedOnly));
  EXPECT_GT(Reported, 0u);
}

INSTANTIATE_TEST_SUITE_P(Projects, TaintReferenceCorpusTest,
                         ::testing::Values(12, 60),
                         [](const ::testing::TestParamInfo<int> &Info) {
                           return "P" + std::to_string(Info.param);
                         });

} // namespace
