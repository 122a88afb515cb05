//===- tests/solver_stop_test.cpp - When and why the optimizer stops ------===//
//
// AdamOptimizer ends at the first of five conditions and reports which one
// (SolveResult::Stop) along with the iteration that produced the best
// iterate. The patience rule is only worth having if it changes nothing
// but the iteration count: stopping after the last improvement a
// full-budget run would make must return the same X bit for bit. The
// Session-level suite checks exactly that on generated corpora.
//
//===----------------------------------------------------------------------===//

#include "corpus/CorpusGenerator.h"
#include "infer/Pipeline.h"
#include "solver/AdamOptimizer.h"
#include "solver/CompiledObjective.h"
#include "support/FaultInjection.h"

#include <gtest/gtest.h>

#include <cstring>
#include <random>
#include <string>
#include <utility>

using namespace seldon;
using namespace seldon::solver;

namespace {

bool bitwiseEqual(const std::vector<double> &A, const std::vector<double> &B) {
  return A.size() == B.size() &&
         std::memcmp(A.data(), B.data(), A.size() * sizeof(double)) == 0;
}

/// x0 (pinned to 1) <= x1: x1 climbs to the box bound and the objective
/// bottoms out there at exactly λ, so once x1 is clamped to 1 no later
/// iterate can improve on the best.
Objective boundarySystem() {
  LinearConstraint LC;
  LC.Lhs = {{0, 1.0f}};
  LC.Rhs = {{1, 1.0f}};
  Objective Obj(2, {LC}, 0.1);
  Obj.pin(0, 1.0);
  return Obj;
}

/// Options with the stationarity test off (no step norm is below 0), so
/// the boundary system can only stop by patience, cap or deadline.
SolveOptions noStationarity(int Iters, int Patience) {
  SolveOptions O;
  O.MaxIterations = Iters;
  O.Tolerance = 0.0;
  O.Patience = Patience;
  return O;
}

/// A random system of the generator's shape (averaging coefficients,
/// quarter-step constants, seed pins, duplicates) on which Adam's best
/// iterate comes early and then oscillates without improving.
Objective randomSystem(uint32_t Seed) {
  std::mt19937 Rng(Seed);
  auto Rand = [&](int Lo, int Hi) {
    return std::uniform_int_distribution<int>(Lo, Hi)(Rng);
  };
  const size_t NumVars = 60;
  std::vector<LinearConstraint> Constraints;
  while (Constraints.size() < 3000) {
    LinearConstraint LC;
    for (int I = 0, N = Rand(1, 3); I < N; ++I)
      LC.Lhs.push_back({static_cast<uint32_t>(Rand(0, NumVars - 1)),
                        1.0f / Rand(1, 6)});
    for (int I = 0, N = Rand(0, 3); I < N; ++I)
      LC.Rhs.push_back({static_cast<uint32_t>(Rand(0, NumVars - 1)),
                        1.0f / Rand(1, 6)});
    LC.C = 0.25 * Rand(0, 4);
    for (int I = 0, N = Rand(0, 4) == 0 ? Rand(2, 5) : 1; I < N; ++I)
      Constraints.push_back(LC);
  }
  Objective Obj(NumVars, std::move(Constraints), 0.1);
  for (size_t I = 0; I < NumVars / 10; ++I)
    Obj.pin(Rand(0, NumVars - 1), Rand(0, 1));
  return Obj;
}

class AdamStopTest : public ::testing::Test {
protected:
  void SetUp() override { fault::reset(); }
  void TearDown() override { fault::reset(); }
};

TEST_F(AdamStopTest, ReasonNames) {
  EXPECT_STREQ(stopReasonName(StopReason::Stationary), "stationary");
  EXPECT_STREQ(stopReasonName(StopReason::Patience), "patience");
  EXPECT_STREQ(stopReasonName(StopReason::MaxIters), "max_iters");
  EXPECT_STREQ(stopReasonName(StopReason::Deadline), "deadline");
  EXPECT_STREQ(stopReasonName(StopReason::FellBack), "fell_back");
  EXPECT_EQ(MaxStopReason, static_cast<uint8_t>(StopReason::FellBack));
  EXPECT_EQ(SolveOptions().Patience, DefaultPatience);
}

TEST_F(AdamStopTest, EarlyBestReturnsTheFullBudgetResultBitwise) {
  for (uint32_t Seed : {3u, 4u, 5u}) {
    CompiledObjective Obj = CompiledObjective::compile(randomSystem(Seed));
    SolveResult Full = AdamOptimizer(noStationarity(600, 0)).minimize(Obj);
    EXPECT_EQ(Full.Stop, StopReason::MaxIters);
    EXPECT_EQ(Full.Iterations, 600);
    ASSERT_LT(Full.BestIteration + 100, 600)
        << "seed " << Seed << ": the best must come early for this test";

    SolveResult Early = AdamOptimizer(noStationarity(600, 100)).minimize(Obj);
    EXPECT_EQ(Early.Stop, StopReason::Patience) << "seed " << Seed;
    EXPECT_EQ(Early.BestIteration, Full.BestIteration);
    EXPECT_EQ(Early.Iterations, Full.BestIteration + 100);
    EXPECT_TRUE(bitwiseEqual(Early.X, Full.X)) << "seed " << Seed;
    EXPECT_EQ(Early.FinalObjective, Full.FinalObjective);
  }
}

TEST_F(AdamStopTest, PatienceStopsOnceTheBestStalls) {
  Objective Obj = boundarySystem();
  SolveResult R = AdamOptimizer(noStationarity(1000, 25)).minimize(Obj);
  EXPECT_EQ(R.Stop, StopReason::Patience);
  EXPECT_GT(R.BestIteration, 0);
  EXPECT_EQ(R.Iterations, R.BestIteration + 25);
  EXPECT_DOUBLE_EQ(R.X[1], 1.0);
}

TEST_F(AdamStopTest, MaxItersWhileStillImproving) {
  // x1 is still climbing after 5 steps: every iteration is a new best.
  Objective Obj = boundarySystem();
  SolveResult R = AdamOptimizer(noStationarity(5, 3)).minimize(Obj);
  EXPECT_EQ(R.Stop, StopReason::MaxIters);
  EXPECT_EQ(R.Iterations, 5);
  EXPECT_EQ(R.BestIteration, 5);
}

TEST_F(AdamStopTest, StationaryAtTheBoxBound) {
  // With the default tolerance the projected step falls below it as x1
  // reaches its bound, before patience could fire.
  Objective Obj = boundarySystem();
  SolveOptions O;
  O.MaxIterations = 1000;
  SolveResult R = AdamOptimizer(O).minimize(Obj);
  EXPECT_EQ(R.Stop, StopReason::Stationary);
  EXPECT_LT(R.Iterations, 1000);
  EXPECT_NEAR(R.X[1], 1.0, O.Tolerance);
}

TEST_F(AdamStopTest, DeadlineWhenAskedToStop) {
  Objective Obj = boundarySystem();
  SolveOptions O = noStationarity(1000, 25);
  int Polls = 0;
  O.ShouldStop = [&Polls] { return ++Polls > 4; };
  SolveResult R = AdamOptimizer(O).minimize(Obj);
  EXPECT_EQ(R.Stop, StopReason::Deadline);
  EXPECT_TRUE(R.deadlineExpired());
  EXPECT_FALSE(R.fellBack());
  EXPECT_EQ(R.Iterations, 4);
}

TEST_F(AdamStopTest, FellBackWhenTheLadderRunsDry) {
  // Every evaluation is poisoned: the ladder spends its rungs and the
  // solve returns the projected start.
  ASSERT_TRUE(fault::configure("solver-step:*"));
  Objective Obj = boundarySystem();
  SolveOptions O = noStationarity(100, 25);
  O.MaxRecoveries = 3;
  SolveResult R = AdamOptimizer(O).minimize(Obj);
  EXPECT_EQ(R.Stop, StopReason::FellBack);
  EXPECT_TRUE(R.fellBack());
  EXPECT_FALSE(R.deadlineExpired());
  EXPECT_EQ(R.Recoveries, 3);
  EXPECT_DOUBLE_EQ(R.X[0], 1.0);
  EXPECT_DOUBLE_EQ(R.X[1], 0.0);
}

TEST_F(AdamStopTest, RecoveryRungDoesNotResetPatience) {
  // Find where the best comes without faults, then poison one evaluation
  // halfway through the patience window. The rung reverts to the best
  // iterate, which is already optimal, so nothing improves afterwards and
  // the stop must still come Patience iterations after the best — not
  // Patience iterations after the recovery.
  const int Patience = 40;
  Objective Obj = boundarySystem();
  SolveResult Clean =
      AdamOptimizer(noStationarity(1000, Patience)).minimize(Obj);
  ASSERT_EQ(Clean.Stop, StopReason::Patience);
  const int Fault = Clean.BestIteration + Patience / 2;
  ASSERT_TRUE(fault::configure("solver-step:" + std::to_string(Fault)));

  SolveResult R = AdamOptimizer(noStationarity(1000, Patience)).minimize(Obj);
  EXPECT_EQ(R.Recoveries, 1);
  EXPECT_EQ(R.NonFiniteSteps, 1);
  EXPECT_EQ(R.Stop, StopReason::Patience);
  EXPECT_EQ(R.BestIteration, Clean.BestIteration);
  EXPECT_EQ(R.Iterations, Clean.BestIteration + Patience);
  EXPECT_TRUE(bitwiseEqual(R.X, Clean.X));
}

/// The production path: Session::solve with the CLI's iteration cap, the
/// default patience against a Patience=0 full-budget reference, on
/// generated corpora of (projects, seed).
class SessionPatienceTest
    : public ::testing::TestWithParam<std::pair<int, uint64_t>> {};

TEST_P(SessionPatienceTest, DefaultSolveMatchesFullBudgetReference) {
  corpus::CorpusOptions CO;
  CO.NumProjects = GetParam().first;
  CO.Seed = GetParam().second;
  corpus::Corpus C = corpus::generateCorpus(CO);

  infer::PipelineOptions Opts;
  Opts.Jobs = 2;
  Opts.Solve.MaxIterations = 600;
  infer::Session S(Opts);
  S.addProjects(C.Projects);
  S.generateConstraints(C.Seed);
  infer::PipelineResult Default = S.solve();
  S.options().Solve.Patience = 0;
  infer::PipelineResult Reference = S.solve();

  EXPECT_EQ(Reference.Solve.Stop, StopReason::MaxIters);
  EXPECT_EQ(Reference.Solve.Iterations, 600);
  // 60 projects is below the row threshold (the full budget runs), 300
  // is above it (the patience stop fires).
  const bool Large = Default.SolverStats.RowsAfter >= MinPatienceRows;
  EXPECT_EQ(Large, CO.NumProjects >= 300)
      << Default.SolverStats.RowsAfter << " rows";
  if (Large) {
    EXPECT_EQ(Default.Solve.Stop, StopReason::Patience);
    EXPECT_LT(Default.Solve.Iterations, Reference.Solve.Iterations);
    EXPECT_EQ(Default.Solve.Iterations,
              Default.Solve.BestIteration + DefaultPatience);
  } else {
    EXPECT_EQ(Default.Solve.Stop, StopReason::MaxIters);
    EXPECT_EQ(Default.Solve.Iterations, Reference.Solve.Iterations);
  }
  EXPECT_EQ(Default.Solve.BestIteration, Reference.Solve.BestIteration);
  EXPECT_TRUE(bitwiseEqual(Default.Solve.X, Reference.Solve.X));
  EXPECT_EQ(Default.Solve.FinalObjective, Reference.Solve.FinalObjective);

  // Role flips at the CLI threshold: a variable whose score crosses 0.1
  // in one solve but not the other.
  size_t Flips = 0;
  ASSERT_EQ(Default.Solve.X.size(), Reference.Solve.X.size());
  for (size_t V = 0; V < Default.Solve.X.size(); ++V)
    Flips += (Default.Solve.X[V] >= 0.1) != (Reference.Solve.X[V] >= 0.1);
  EXPECT_EQ(Flips, 0u);
}

INSTANTIATE_TEST_SUITE_P(Corpora, SessionPatienceTest,
                         ::testing::Values(std::make_pair(60, 7),
                                           std::make_pair(300, 7),
                                           std::make_pair(300, 8)));

} // namespace
