//===- tests/query_index_test.cpp - Per-variable row index ---------------===//
//
// Part of seldon-cpp, a reproduction of "Scalable Taint Specification
// Inference with Big Code" (PLDI 2019).
//
//===----------------------------------------------------------------------===//
//
// explainRep answers from the constraint system's per-variable row index
// instead of scanning every row. These tests hold it to the full scan it
// replaced (kept here as the reference), check that the lazily built
// index never outlives the rows it was built over (copies, pins, feedback
// rows, appended rows), and that concurrent first queries build one
// index and agree.
//
//===----------------------------------------------------------------------===//

#include "TestCorpus.h"

#include "constraints/Explain.h"
#include "constraints/Feedback.h"
#include "infer/Pipeline.h"
#include "service/QueryResult.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <latch>
#include <thread>

using namespace seldon;
using constraints::ConstraintSystem;
using constraints::Explanation;
using constraints::VarId;

namespace {

bool mentions(const solver::TermRange &Terms, VarId V) {
  for (const solver::Term &T : Terms)
    if (T.Var == V)
      return true;
  return false;
}

double evalSide(const solver::TermRange &Terms,
                const std::vector<double> &X) {
  double Sum = 0.0;
  for (const solver::Term &T : Terms)
    Sum += T.Coef * X[T.Var];
  return Sum;
}

/// The explainRep that scanned every row, kept as the reference.
Explanation explainByScan(const ConstraintSystem &Sys,
                          const propgraph::RepTable &Reps, VarId V,
                          const std::vector<double> &X) {
  Explanation Out;
  Out.Found = true;
  Out.Score = V < X.size() ? X[V] : 0.0;
  for (const auto &[PinnedVar, Value] : Sys.Pinned)
    if (PinnedVar == V) {
      Out.Pinned = true;
      Out.PinnedValue = Value;
    }
  for (const solver::ConstraintRef C : Sys.Constraints) {
    bool Lhs = mentions(C.Lhs, V);
    bool Rhs = mentions(C.Rhs, V);
    if (!Lhs && !Rhs)
      continue;
    constraints::ExplainedConstraint EC;
    constraints::renderConstraint(Sys, Reps, C, EC.Text);
    EC.Residual = X.empty() ? 0.0
                            : evalSide(C.Lhs, X) - evalSide(C.Rhs, X) - C.C;
    EC.OnLhs = Lhs;
    Out.Constraints.push_back(std::move(EC));
  }
  return Out;
}

void expectSameExplanation(const Explanation &Got, const Explanation &Want) {
  EXPECT_EQ(Got.Found, Want.Found);
  EXPECT_EQ(Got.Score, Want.Score);
  EXPECT_EQ(Got.Pinned, Want.Pinned);
  EXPECT_EQ(Got.PinnedValue, Want.PinnedValue);
  ASSERT_EQ(Got.Constraints.size(), Want.Constraints.size());
  for (size_t I = 0; I < Got.Constraints.size(); ++I) {
    EXPECT_EQ(Got.Constraints[I].Text, Want.Constraints[I].Text) << I;
    EXPECT_EQ(Got.Constraints[I].Residual, Want.Constraints[I].Residual) << I;
    EXPECT_EQ(Got.Constraints[I].OnLhs, Want.Constraints[I].OnLhs) << I;
  }
}

/// A deterministic, non-trivial assignment (no solve needed to compare
/// residuals).
std::vector<double> syntheticX(size_t NumVars) {
  std::vector<double> X(NumVars);
  for (size_t V = 0; V < NumVars; ++V)
    X[V] = static_cast<double>((V * 2654435761u) % 1000) / 999.0;
  return X;
}

std::string repOf(const ConstraintSystem &Sys, const propgraph::RepTable &Reps,
                  VarId V) {
  return Reps.repString(Sys.Vars.repOf(V));
}

Explanation explainVar(const ConstraintSystem &Sys,
                       const propgraph::RepTable &Reps, VarId V,
                       const std::vector<double> &X) {
  return constraints::explainRep(Sys, Reps, repOf(Sys, Reps, V),
                                 Sys.Vars.roleOf(V), X);
}

class QueryIndexTest : public ::testing::TestWithParam<int> {
protected:
  void SetUp() override {
    Data = testutil::makeCorpus(17, GetParam());
    infer::PipelineOptions Opts;
    Opts.Jobs = 1;
    Opts.Gen.RepCutoff = 2;
    Opts.Solve.MaxIterations = 40;
    S = infer::Session(Opts);
    S.addProjects(Data.Projects);
    S.generateConstraints(Data.Seed);
  }

  corpus::Corpus Data;
  infer::Session S;
};

TEST_P(QueryIndexTest, EveryVariableMatchesTheFullScan) {
  // A copy gets extra rows that hold a variable on both sides and twice
  // on one side, which the generator rarely emits; each must be listed
  // once, with OnLhs as the scan sets it.
  ConstraintSystem Sys = S.system();
  const propgraph::RepTable &Reps = S.reps();
  size_t NumVars = Sys.Vars.numVars();
  ASSERT_GT(NumVars, 3u);
  ASSERT_GT(Sys.Constraints.size(), 100u);
  for (VarId V = 0; V + 1 < NumVars; V += 7) {
    VarId W = V + 1;
    Sys.Constraints.push_back({{{V, 1.0f}}, {{V, 0.5f}, {W, 1.0f}}, 0.25});
    Sys.Constraints.push_back({{{V, 1.0f}, {W, 2.0f}, {V, 1.0f}}, {}, 0.5});
    Sys.Constraints.push_back({{{W, 1.0f}}, {{V, 1.0f}, {V, 0.125f}}, 0.0});
  }
  std::vector<double> X = syntheticX(NumVars);
  for (VarId V = 0; V < NumVars; ++V) {
    SCOPED_TRACE(repOf(Sys, Reps, V));
    Explanation Got = explainVar(Sys, Reps, V, X);
    ASSERT_TRUE(Got.Found);
    expectSameExplanation(Got, explainByScan(Sys, Reps, V, X));
    if (::testing::Test::HasFailure())
      return;
  }

  // Every row appears in the index once per distinct variable it holds.
  const constraints::RowIndex &Index = Sys.rowIndex();
  EXPECT_EQ(Index.NumRows, Sys.Constraints.size());
  size_t Distinct = 0;
  for (const solver::ConstraintRef C : Sys.Constraints) {
    std::vector<VarId> Vars;
    for (const solver::Term &T : C.Lhs)
      Vars.push_back(T.Var);
    for (const solver::Term &T : C.Rhs)
      Vars.push_back(T.Var);
    std::sort(Vars.begin(), Vars.end());
    Distinct += std::unique(Vars.begin(), Vars.end()) - Vars.begin();
  }
  EXPECT_EQ(Index.Rows.size(), Distinct);
}

TEST_P(QueryIndexTest, AnUnknownPairIsNotFound) {
  std::vector<double> X = syntheticX(S.system().Vars.numVars());
  EXPECT_FALSE(constraints::explainRep(S.system(), S.reps(), "no.such.rep()",
                                       propgraph::Role::Sink, X)
                   .Found);
}

TEST_P(QueryIndexTest, AppendedRowsRebuildTheIndex) {
  ConstraintSystem Sys = S.system();
  const propgraph::RepTable &Reps = S.reps();
  std::vector<double> X = syntheticX(Sys.Vars.numVars());
  VarId V = 0;
  Explanation Before = explainVar(Sys, Reps, V, X);
  const constraints::RowIndex *Old = &Sys.rowIndex();
  EXPECT_EQ(Old->NumRows, Sys.Constraints.size());

  Sys.Constraints.push_back({{}, {{V, 1.0f}}, 1.0});
  Explanation After = explainVar(Sys, Reps, V, X);
  ASSERT_EQ(After.Constraints.size(), Before.Constraints.size() + 1);
  EXPECT_FALSE(After.Constraints.back().OnLhs);
  EXPECT_EQ(Sys.rowIndex().NumRows, Sys.Constraints.size());
  expectSameExplanation(After, explainByScan(Sys, Reps, V, X));
}

TEST_P(QueryIndexTest, ACopyStartsWithoutTheIndex) {
  const ConstraintSystem &Sys = S.system();
  const constraints::RowIndex *Built = &Sys.rowIndex();
  EXPECT_EQ(Built, &Sys.rowIndex()); // Built once, then reused.
  ConstraintSystem Copy = Sys;
  EXPECT_NE(&Copy.rowIndex(), Built);
  EXPECT_EQ(Copy.rowIndex().Rows, Built->Rows);
  ConstraintSystem Assigned;
  Assigned = Copy;
  EXPECT_NE(&Assigned.rowIndex(), &Copy.rowIndex());
  EXPECT_EQ(Assigned.rowIndex().Offsets, Built->Offsets);
}

TEST_P(QueryIndexTest, PinAndFeedbackLeaveEarlierAnswersAlone) {
  infer::PipelineResult Passive = S.solve();
  const ConstraintSystem &Solved = *Passive.System;
  size_t Rows = Solved.Constraints.size();

  // The first unpinned variable with at least one row.
  std::vector<uint8_t> IsPinned(Solved.Vars.numVars(), 0);
  for (const auto &[V, Value] : Solved.Pinned)
    IsPinned[V] = 1;
  VarId V = 0;
  while (V < Solved.Vars.numVars() &&
         (IsPinned[V] || Solved.rowIndex().rowsOf(V).empty()))
    ++V;
  ASSERT_LT(V, Solved.Vars.numVars());
  std::string Rep = repOf(Solved, *Passive.Reps, V);
  propgraph::Role Role = Solved.Vars.roleOf(V);
  auto Answer = [&](const infer::PipelineResult &R) {
    return service::renderQueryJson(
        service::queryRep(R.System, R.Reps, Rep, Role, R.Solve.X));
  };
  std::string PassiveAnswer = Answer(Passive);

  // Feedback: the judged result answers from its own rows, evidence
  // rows included; the passive result does not see them.
  constraints::FeedbackSet Verdicts;
  Verdicts.accept(Rep, Role);
  S.options().Feedback = &Verdicts;
  infer::PipelineResult Judged = S.solve();
  ASSERT_GT(Judged.Feedback.EvidenceRows, 0u);
  Explanation WithRows = constraints::explainRep(Judged.System, Judged.Reps,
                                                 Rep, Role, Judged.Solve.X);
  size_t Evidence = 0;
  for (uint32_t Row : Judged.System->rowIndex().rowsOf(V))
    Evidence += Row >= Rows;
  EXPECT_GT(Evidence, 0u);
  expectSameExplanation(
      WithRows, explainByScan(Judged.System, Judged.Reps, V, Judged.Solve.X));
  EXPECT_EQ(Answer(Passive), PassiveAnswer);

  // Pin: copy on write; the new result reports the pin, the earlier
  // ones keep their answers.
  S.options().Feedback = nullptr;
  std::string JudgedAnswer = Answer(Judged);
  ASSERT_TRUE(S.pinVariable(Rep, Role, 1.0));
  infer::PipelineResult Pinned = S.solve();
  service::QueryResult PinnedQ =
      service::queryRep(Pinned.System, Pinned.Reps, Rep, Role,
                        Pinned.Solve.X);
  EXPECT_TRUE(PinnedQ.Pinned);
  EXPECT_EQ(PinnedQ.PinnedValue, 1.0);
  EXPECT_EQ(PinnedQ.Constraints.size(),
            Solved.rowIndex().rowsOf(V).size());
  EXPECT_EQ(Answer(Passive), PassiveAnswer);
  EXPECT_EQ(Answer(Judged), JudgedAnswer);
}

TEST_P(QueryIndexTest, ConcurrentFirstQueriesAgree) {
  // Eight readers race for the index of a system nobody has queried yet;
  // all must see one index and render the same answer.
  infer::PipelineResult R = S.solve();
  const ConstraintSystem &Sys = *R.System;
  std::string Rep = repOf(Sys, *R.Reps, 0);
  propgraph::Role Role = Sys.Vars.roleOf(0);

  constexpr int Threads = 8;
  std::vector<std::string> Answers(Threads);
  std::vector<const constraints::RowIndex *> Indexes(Threads);
  std::latch Start(Threads);
  std::vector<std::thread> Pool;
  for (int T = 0; T < Threads; ++T)
    Pool.emplace_back([&, T] {
      Start.arrive_and_wait();
      Answers[T] = service::renderQueryJson(
          service::queryRep(R.System, R.Reps, Rep, Role, R.Solve.X));
      Indexes[T] = &Sys.rowIndex();
    });
  for (std::thread &Th : Pool)
    Th.join();
  for (int T = 1; T < Threads; ++T) {
    EXPECT_EQ(Answers[T], Answers[0]);
    EXPECT_EQ(Indexes[T], Indexes[0]);
  }
  EXPECT_NE(Answers[0].find("\"found\":true"), std::string::npos);
}

INSTANTIATE_TEST_SUITE_P(Projects, QueryIndexTest, ::testing::Values(60, 300),
                         [](const ::testing::TestParamInfo<int> &Info) {
                           return "P" + std::to_string(Info.param);
                         });

} // namespace
