//===- tests/artifact_sharing_test.cpp - Session artifact ownership -------===//
//
// Part of seldon-cpp, a reproduction of "Scalable Taint Specification
// Inference with Big Code" (PLDI 2019).
//
//===----------------------------------------------------------------------===//
//
// A Session hands its global graph, rep table and constraint system to
// every PipelineResult without copying them. These tests check that the
// results really share the session's objects, and that the paths which
// change the system after a solve — pinVariable, feedback rows, and
// regeneration — copy or replace it instead, so an earlier result never
// sees the change.
//
//===----------------------------------------------------------------------===//

#include "TestCorpus.h"

#include "constraints/Feedback.h"
#include "infer/Pipeline.h"
#include "spec/SpecIO.h"

#include <gtest/gtest.h>

#include <cstring>

using namespace seldon;

namespace {

class ArtifactSharingTest : public ::testing::Test {
protected:
  void SetUp() override {
    infer::PipelineOptions Opts;
    Opts.Jobs = 1;
    Opts.Gen.RepCutoff = 2;
    Opts.Solve.MaxIterations = 60;
    S = infer::Session(Opts);
    S.addProjects(Data.Projects);
    S.generateConstraints(Data.Seed);
  }

  /// The first score variable without a pin.
  constraints::VarId firstUnpinned() const {
    const constraints::ConstraintSystem &Sys = S.system();
    std::vector<uint8_t> Pinned(Sys.Vars.numVars(), 0);
    for (const auto &[V, Value] : Sys.Pinned)
      Pinned[V] = 1;
    for (constraints::VarId V = 0; V < Sys.Vars.numVars(); ++V)
      if (!Pinned[V])
        return V;
    ADD_FAILURE() << "every variable is pinned";
    return 0;
  }

  std::string repOf(constraints::VarId V) const {
    return S.reps().repString(S.system().Vars.repOf(V));
  }

  corpus::Corpus Data = testutil::makeCorpus(31, /*NumProjects=*/6);
  infer::Session S;
};

void expectSameRows(const constraints::ConstraintSystem &A,
                    const constraints::ConstraintSystem &B) {
  EXPECT_EQ(A.Pinned, B.Pinned);
  ASSERT_EQ(A.Constraints.size(), B.Constraints.size());
  for (size_t I = 0; I < A.Constraints.size(); ++I) {
    const solver::ConstraintRef CA = A.Constraints[I];
    const solver::ConstraintRef CB = B.Constraints[I];
    EXPECT_EQ(CA.C, CB.C);
    ASSERT_EQ(CA.Lhs.size(), CB.Lhs.size());
    ASSERT_EQ(CA.Rhs.size(), CB.Rhs.size());
    for (size_t T = 0; T < CA.Lhs.size(); ++T) {
      EXPECT_EQ(CA.Lhs[T].Var, CB.Lhs[T].Var);
      EXPECT_EQ(CA.Lhs[T].Coef, CB.Lhs[T].Coef);
    }
    for (size_t T = 0; T < CA.Rhs.size(); ++T) {
      EXPECT_EQ(CA.Rhs[T].Var, CB.Rhs[T].Var);
      EXPECT_EQ(CA.Rhs[T].Coef, CB.Rhs[T].Coef);
    }
  }
}

TEST_F(ArtifactSharingTest, SolvesShareTheSessionsObjects) {
  infer::PipelineResult First = S.solve();
  infer::PipelineResult Second = S.solve();
  for (const infer::PipelineResult *R : {&First, &Second}) {
    EXPECT_EQ(R->Graph.get(), &S.graph());
    EXPECT_EQ(R->Reps.get(), &S.reps());
    EXPECT_EQ(R->System.get(), &S.system());
  }
  ASSERT_GT(First.Graph->numEvents(), 0u);
  ASSERT_GT(First.System->Constraints.size(), 0u);
}

TEST_F(ArtifactSharingTest, DefaultResultViewsEmptyArtifacts) {
  infer::PipelineResult R;
  EXPECT_EQ(R.Graph->numEvents(), 0u);
  EXPECT_EQ(R.Reps->size(), 0u);
  EXPECT_TRUE(R.System->Constraints.empty());
}

TEST_F(ArtifactSharingTest, PinAfterSolveCopiesOnce) {
  infer::PipelineResult Before = S.solve();
  const constraints::ConstraintSystem *Solved = Before.System.get();
  auto PinsBefore = Before.System->Pinned;
  size_t RowsBefore = Before.System->Constraints.size();

  constraints::VarId V = firstUnpinned();
  ASSERT_TRUE(S.pinVariable(repOf(V), S.system().Vars.roleOf(V), 1.0));
  // The result keeps its object, rows and pins; the session moved on to a
  // copy.
  EXPECT_EQ(Before.System.get(), Solved);
  EXPECT_EQ(Before.System->Pinned, PinsBefore);
  EXPECT_EQ(Before.System->Constraints.size(), RowsBefore);
  EXPECT_NE(&S.system(), Solved);
  EXPECT_EQ(S.system().Pinned.size(), PinsBefore.size() + 1);

  // The session now owns its copy alone: a second pin changes it in
  // place, and a re-pin of the same variable updates the pin.
  const constraints::ConstraintSystem *Copy = &S.system();
  ASSERT_TRUE(S.pinVariable(repOf(V), S.system().Vars.roleOf(V), 0.0));
  EXPECT_EQ(&S.system(), Copy);
  EXPECT_EQ(S.system().Pinned.size(), PinsBefore.size() + 1);
  EXPECT_EQ(Before.System->Pinned, PinsBefore);

  // The next solve shares the pinned system and honours the pin.
  infer::PipelineResult After = S.solve();
  EXPECT_EQ(After.System.get(), Copy);
  EXPECT_EQ(After.Solve.X[V], 0.0);
  EXPECT_EQ(After.Graph.get(), Before.Graph.get());
  EXPECT_EQ(After.Reps.get(), Before.Reps.get());
}

TEST_F(ArtifactSharingTest, PinWithoutAnEarlierResultDoesNotCopy) {
  const constraints::ConstraintSystem *Own = &S.system();
  constraints::VarId V = firstUnpinned();
  ASSERT_TRUE(S.pinVariable(repOf(V), S.system().Vars.roleOf(V), 1.0));
  EXPECT_EQ(&S.system(), Own);
  EXPECT_FALSE(S.pinVariable("no.such.rep()", propgraph::Role::Sink, 1.0));
}

TEST_F(ArtifactSharingTest, FeedbackRowsGoToACopy) {
  infer::PipelineResult Passive = S.solve();
  size_t Rows = S.system().Constraints.size();

  constraints::FeedbackSet Verdicts;
  constraints::VarId V = firstUnpinned();
  Verdicts.accept(repOf(V), S.system().Vars.roleOf(V));
  S.options().Feedback = &Verdicts;
  infer::PipelineResult Judged = S.solve();
  ASSERT_TRUE(Judged.UsedFeedback);
  ASSERT_GT(Judged.Feedback.EvidenceRows, 0u);

  // Only the system is copied, and only for the feedback result.
  EXPECT_NE(Judged.System.get(), &S.system());
  EXPECT_EQ(Judged.System->Constraints.size(),
            Rows + Judged.Feedback.EvidenceRows);
  EXPECT_EQ(Judged.Graph.get(), &S.graph());
  EXPECT_EQ(Judged.Reps.get(), &S.reps());
  EXPECT_EQ(S.system().Constraints.size(), Rows);
  EXPECT_EQ(Passive.System.get(), &S.system());
  EXPECT_EQ(Passive.System->Constraints.size(), Rows);

  // Dropping the feedback returns to sharing.
  S.options().Feedback = nullptr;
  infer::PipelineResult Again = S.solve();
  EXPECT_EQ(Again.System.get(), &S.system());
}

TEST_F(ArtifactSharingTest, RestoreSolveMatchesSolve) {
  constraints::FeedbackSet Verdicts;
  constraints::VarId V = firstUnpinned();
  Verdicts.reject(repOf(V), S.system().Vars.roleOf(V));
  for (const constraints::FeedbackSet *Set :
       {static_cast<const constraints::FeedbackSet *>(nullptr),
        static_cast<const constraints::FeedbackSet *>(&Verdicts)}) {
    SCOPED_TRACE(Set ? "with feedback" : "passive");
    S.options().Feedback = Set;
    infer::PipelineResult Solved = S.solve();
    infer::PipelineResult Restored;
    ASSERT_TRUE(S.restoreSolve(Solved.Solve, Restored));

    EXPECT_EQ(Restored.Graph.get(), Solved.Graph.get());
    EXPECT_EQ(Restored.Reps.get(), Solved.Reps.get());
    if (Set)
      EXPECT_NE(Restored.System.get(), Solved.System.get());
    else
      EXPECT_EQ(Restored.System.get(), Solved.System.get());
    expectSameRows(*Restored.System, *Solved.System);
    EXPECT_EQ(Restored.UsedFeedback, Solved.UsedFeedback);
    EXPECT_EQ(Restored.Feedback.EvidenceRows, Solved.Feedback.EvidenceRows);
    EXPECT_EQ(Restored.NumFiles, Solved.NumFiles);
    EXPECT_EQ(spec::writeLearnedSpec(Restored.Learned, 0.1),
              spec::writeLearnedSpec(Solved.Learned, 0.1));
  }
}

TEST_F(ArtifactSharingTest, RegenerationReplacesTheArtifacts) {
  infer::PipelineResult Old = S.solve();
  const propgraph::RepTable *OldReps = Old.Reps.get();
  const constraints::ConstraintSystem *OldSystem = Old.System.get();
  size_t OldRows = Old.System->Constraints.size();
  size_t OldVars = Old.System->Vars.numVars();

  S.options().Gen.RepCutoff = 50;
  S.generateConstraints(Data.Seed);
  EXPECT_NE(&S.reps(), OldReps);
  EXPECT_NE(&S.system(), OldSystem);
  EXPECT_EQ(&S.graph(), Old.Graph.get()); // Built once, kept.
  EXPECT_EQ(Old.System->Constraints.size(), OldRows);
  EXPECT_EQ(Old.System->Vars.numVars(), OldVars);
  EXPECT_NE(S.system().Constraints.size(), OldRows);
}

} // namespace
