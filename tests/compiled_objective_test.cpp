//===- tests/compiled_objective_test.cpp - Compiled solver kernel tests ---===//
//
// The compiled kernel must be an exact drop-in for the legacy Objective:
// same values, same gradients, same optimizer trajectories, for any Jobs
// setting. The bitwise assertions below are not wishful thinking — the
// comparison points are chosen so every sum the two evaluators perform is
// exact in double (coefficients are small dyadic floats, evaluation points
// are multiples of 2^-8), which makes the results independent of term
// order, merging, and duplicate coalescing. Gradient entries are sums of
// coefficients alone (no dependence on X), so trajectory equality holds
// even at the non-grid iterates Adam produces.
//
//===----------------------------------------------------------------------===//

#include "solver/AdamOptimizer.h"
#include "solver/CompiledObjective.h"
#include "solver/ProjectedGradient.h"
#include "support/ThreadPool.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <map>
#include <random>
#include <stdexcept>
#include <string>

using namespace seldon;
using namespace seldon::solver;

namespace {

//===----------------------------------------------------------------------===//
// Canonicalization unit cases
//===----------------------------------------------------------------------===//

TEST(CompileTest, MergesDuplicateTermsWithinASide) {
  // x0·0.5 + x0·0.25 <= 0.25 lowers to one CSR entry with coef 0.75.
  LinearConstraint LC;
  LC.Lhs = {{0, 0.5f}, {0, 0.25f}};
  LC.C = 0.25;
  CompiledObjective Obj(1, {LC}, 0.0);
  EXPECT_EQ(Obj.numRows(), 1u);
  EXPECT_EQ(Obj.numNonZeros(), 1u);
  EXPECT_DOUBLE_EQ(Obj.hingeLoss({1.0}), 0.5);
  std::vector<double> Grad;
  Obj.gradient({1.0}, Grad);
  EXPECT_DOUBLE_EQ(Grad[0], 0.75);
}

TEST(CompileTest, FoldsRhsWithNegatedCoefficients) {
  // x0 <= 0.5·x1 + 0.25 becomes x0 − 0.5·x1 <= 0.25.
  LinearConstraint LC;
  LC.Lhs = {{0, 1.0f}};
  LC.Rhs = {{1, 0.5f}};
  LC.C = 0.25;
  CompiledObjective Obj(2, {LC}, 0.0);
  EXPECT_EQ(Obj.numNonZeros(), 2u);
  EXPECT_DOUBLE_EQ(Obj.hingeLoss({1.0, 0.5}), 0.5);
  std::vector<double> Grad;
  Obj.gradient({1.0, 0.5}, Grad);
  EXPECT_DOUBLE_EQ(Grad[0], 1.0);
  EXPECT_DOUBLE_EQ(Grad[1], -0.5);
}

TEST(CompileTest, DropsTermsThatCancelAcrossSides) {
  // x0 + 0.5·x1 <= 0.5·x1: the x1 terms cancel exactly and vanish.
  LinearConstraint LC;
  LC.Lhs = {{0, 1.0f}, {1, 0.5f}};
  LC.Rhs = {{1, 0.5f}};
  CompiledObjective Obj(2, {LC}, 0.0);
  EXPECT_EQ(Obj.numNonZeros(), 1u);
  std::vector<double> Grad;
  Obj.gradient({1.0, 1.0}, Grad);
  EXPECT_DOUBLE_EQ(Grad[0], 1.0);
  EXPECT_DOUBLE_EQ(Grad[1], 0.0);
}

TEST(CompileTest, CoalescesExactDuplicatesWithMultiplicity) {
  LinearConstraint A;
  A.Lhs = {{0, 1.0f}};
  A.Rhs = {{1, 1.0f}};
  A.C = 0.25;
  LinearConstraint B;
  B.Lhs = {{1, 1.0f}};
  B.C = 0.75;
  CompiledObjective Obj(2, {A, A, B, A}, 0.0);
  const CompileStats &S = Obj.stats();
  EXPECT_EQ(S.RowsBefore, 4u);
  EXPECT_EQ(S.RowsAfter, 2u);
  EXPECT_EQ(S.MaxMultiplicity, 3u);
  EXPECT_DOUBLE_EQ(S.dedupRatio(), 2.0);
  // Three copies of A, each violated by 0.75: the weighted row must
  // contribute exactly 3 · 0.75.
  EXPECT_DOUBLE_EQ(Obj.hingeLoss({1.0, 0.0}), 3 * 0.75);
  std::vector<double> Grad;
  Obj.gradient({1.0, 0.0}, Grad);
  EXPECT_DOUBLE_EQ(Grad[0], 3.0);
  EXPECT_DOUBLE_EQ(Grad[1], -3.0);
}

TEST(CompileTest, CoalescesRowsThatDifferOnlyInTermOrder) {
  LinearConstraint A;
  A.Lhs = {{0, 0.5f}, {1, 0.25f}};
  A.C = 0.25;
  LinearConstraint B;
  B.Lhs = {{1, 0.25f}, {0, 0.5f}}; // Same row, different spelling.
  B.C = 0.25;
  CompiledObjective Obj(2, {A, B}, 0.0);
  EXPECT_EQ(Obj.stats().RowsAfter, 1u);
  EXPECT_EQ(Obj.stats().MaxMultiplicity, 2u);
}

TEST(CompileTest, DoesNotCoalesceDifferentConstants) {
  LinearConstraint A;
  A.Lhs = {{0, 1.0f}};
  A.C = 0.25;
  LinearConstraint B = A;
  B.C = 0.75;
  CompiledObjective Obj(1, {A, B}, 0.0);
  EXPECT_EQ(Obj.stats().RowsAfter, 2u);
}

TEST(CompileTest, PinsBehaveLikeLegacy) {
  CompiledObjective Obj(2, {}, 0.1);
  Obj.pin(0, 1.0);
  EXPECT_TRUE(Obj.isPinned(0));
  EXPECT_DOUBLE_EQ(Obj.pinnedValue(0), 1.0);
  // Pinned vars carry no L1 term and no gradient; project restores them.
  EXPECT_NEAR(Obj.value({1.0, 1.0}), 0.1, 1e-12);
  std::vector<double> Grad;
  Obj.gradient({1.0, 1.0}, Grad);
  EXPECT_DOUBLE_EQ(Grad[0], 0.0);
  EXPECT_DOUBLE_EQ(Grad[1], 0.1);
  std::vector<double> X{0.25, -1.0};
  Obj.project(X);
  EXPECT_DOUBLE_EQ(X[0], 1.0);
  EXPECT_DOUBLE_EQ(X[1], 0.0);
}

TEST(CompileTest, RejectsSystemsOverflowingThe32BitCsrLayout) {
  // RowBegin/VarIdx are uint32_t; past ~4.29B entries the offsets would
  // wrap silently. SELDON_TEST_CSR_LIMIT shrinks the limit so the guard
  // can be exercised without allocating billions of entries.
  setenv("SELDON_TEST_CSR_LIMIT", "6", 1);
  // Four distinct 2-term rows = 8 non-zeros > 6: must throw, descriptively.
  std::vector<LinearConstraint> Big;
  for (int I = 0; I < 4; ++I) {
    LinearConstraint LC;
    LC.Lhs = {{static_cast<uint32_t>(2 * I), 1.0f},
              {static_cast<uint32_t>(2 * I + 1), 0.5f}};
    LC.C = 0.25;
    Big.push_back(LC);
  }
  try {
    CompiledObjective Obj(8, Big, 0.1);
    unsetenv("SELDON_TEST_CSR_LIMIT");
    FAIL() << "expected the CSR overflow guard to throw";
  } catch (const std::runtime_error &E) {
    EXPECT_NE(std::string(E.what()).find("32-bit CSR layout"),
              std::string::npos)
        << E.what();
  }

  // Rows past the limit trip the guard even when non-zeros stay under it.
  // The rows hold no terms: the source store's term offsets are 32-bit
  // too and obey the same limit, so only term-free rows can outnumber it
  // there and still reach the coalescing check.
  setenv("SELDON_TEST_CSR_LIMIT", "3", 1);
  std::vector<LinearConstraint> ManyRows;
  for (int I = 0; I < 4; ++I) {
    LinearConstraint LC;
    LC.C = 0.25 * I;
    ManyRows.push_back(LC);
  }
  EXPECT_THROW(CompiledObjective(4, ManyRows, 0.1), std::runtime_error);

  // Duplicates coalesce before the check: many copies of few rows pass.
  std::vector<LinearConstraint> Duplicates(100, ManyRows[0]);
  EXPECT_NO_THROW(CompiledObjective(4, Duplicates, 0.1));

  // Source terms past the limit trip the flat store's own guard.
  std::vector<LinearConstraint> ManyTerms(4);
  for (int I = 0; I < 4; ++I)
    ManyTerms[I].Lhs = {{static_cast<uint32_t>(I), 1.0f}};
  EXPECT_THROW(CompiledObjective(4, ManyTerms, 0.1), std::runtime_error);
  unsetenv("SELDON_TEST_CSR_LIMIT");

  // Back at the real limit, ordinary systems compile.
  EXPECT_NO_THROW(CompiledObjective(8, Big, 0.1));
}

TEST(CompileTest, CompileCopiesPinsFromLegacyObjective) {
  Objective Legacy(3, {}, 0.1);
  Legacy.pin(1, 1.0);
  CompiledObjective Compiled = CompiledObjective::compile(Legacy);
  EXPECT_TRUE(Compiled.isPinned(1));
  EXPECT_DOUBLE_EQ(Compiled.pinnedValue(1), 1.0);
  EXPECT_FALSE(Compiled.isPinned(0));
  EXPECT_DOUBLE_EQ(Compiled.lambda(), 0.1);
}

//===----------------------------------------------------------------------===//
// Randomized bitwise equivalence
//===----------------------------------------------------------------------===//

/// A random system in the shape the generator emits: averaging
/// coefficients 1/n, constants that are multiples of 0.25, seed pins, and
/// a healthy fraction of exact duplicates. Large enough (3k constraints)
/// to span multiple shards.
Objective randomSystem(uint32_t Seed, size_t NumVars = 60,
                       size_t NumConstraints = 3000, double Lambda = 0.1) {
  std::mt19937 Rng(Seed);
  auto Rand = [&](int Lo, int Hi) {
    return std::uniform_int_distribution<int>(Lo, Hi)(Rng);
  };
  std::vector<LinearConstraint> Constraints;
  Constraints.reserve(NumConstraints);
  while (Constraints.size() < NumConstraints) {
    LinearConstraint LC;
    int NumLhs = Rand(1, 3), NumRhs = Rand(0, 3);
    for (int I = 0; I < NumLhs; ++I)
      LC.Lhs.push_back({static_cast<uint32_t>(Rand(0, NumVars - 1)),
                        1.0f / Rand(1, 6)});
    for (int I = 0; I < NumRhs; ++I)
      LC.Rhs.push_back({static_cast<uint32_t>(Rand(0, NumVars - 1)),
                        1.0f / Rand(1, 6)});
    LC.C = 0.25 * Rand(0, 4);
    // Duplicate some constraints, as big-code corpora do.
    int Copies = Rand(0, 4) == 0 ? Rand(2, 5) : 1;
    for (int I = 0; I < Copies && Constraints.size() < NumConstraints; ++I)
      Constraints.push_back(LC);
  }
  Objective Obj(NumVars, std::move(Constraints), Lambda);
  for (size_t I = 0; I < NumVars / 10; ++I)
    Obj.pin(Rand(0, NumVars - 1), Rand(0, 1));
  return Obj;
}

/// A random system for trajectory comparison at arbitrary (non-grid)
/// iterates. Off the grid, per-row sums round, so the violation test
/// (V > 0) could flip between evaluation orders when a row lands within
/// an ulp of zero; these rows are shaped so canonicalization preserves
/// the legacy addition sequence bit for bit: within a row the Lhs
/// variables are distinct, sorted, and all smaller than the (distinct,
/// sorted) Rhs variables, and a − b rounds identically to a + (−b).
/// Duplicate rows still coalesce — the weighted gradient W·c equals W
/// additions of the float c exactly — so the optimizer trajectories match
/// bitwise even though the hinge values may differ in ulps.
Objective structuredSystem(uint32_t Seed, size_t NumVars = 60,
                           size_t NumConstraints = 3000,
                           double Lambda = 0.1) {
  std::mt19937 Rng(Seed);
  auto Rand = [&](int Lo, int Hi) {
    return std::uniform_int_distribution<int>(Lo, Hi)(Rng);
  };
  const int Split = static_cast<int>(NumVars) / 2;
  auto PickVars = [&](int Count, int Lo, int Hi) {
    std::vector<uint32_t> Vars;
    for (int I = 0; I < Count; ++I)
      Vars.push_back(static_cast<uint32_t>(Rand(Lo, Hi)));
    std::sort(Vars.begin(), Vars.end());
    Vars.erase(std::unique(Vars.begin(), Vars.end()), Vars.end());
    return Vars;
  };
  std::vector<LinearConstraint> Constraints;
  Constraints.reserve(NumConstraints);
  while (Constraints.size() < NumConstraints) {
    LinearConstraint LC;
    for (uint32_t Var : PickVars(Rand(1, 3), 0, Split - 1))
      LC.Lhs.push_back({Var, 1.0f / Rand(1, 6)});
    for (uint32_t Var : PickVars(Rand(0, 3), Split, NumVars - 1))
      LC.Rhs.push_back({Var, 1.0f / Rand(1, 6)});
    LC.C = 0.25 * Rand(0, 4);
    int Copies = Rand(0, 4) == 0 ? Rand(2, 5) : 1;
    for (int I = 0; I < Copies && Constraints.size() < NumConstraints; ++I)
      Constraints.push_back(LC);
  }
  Objective Obj(NumVars, std::move(Constraints), Lambda);
  for (size_t I = 0; I < NumVars / 10; ++I)
    Obj.pin(Rand(0, NumVars - 1), Rand(0, 1));
  return Obj;
}

/// A random point on the 2^-8 grid: every product with a coefficient is
/// exact in double, so evaluation order cannot affect the result.
std::vector<double> gridPoint(std::mt19937 &Rng, size_t NumVars) {
  std::uniform_int_distribution<int> Dist(0, 256);
  std::vector<double> X(NumVars);
  for (double &V : X)
    V = Dist(Rng) / 256.0;
  return X;
}

bool bitwiseEqual(const std::vector<double> &A, const std::vector<double> &B) {
  return A.size() == B.size() &&
         std::memcmp(A.data(), B.data(), A.size() * sizeof(double)) == 0;
}

TEST(CompiledEquivalenceTest, ValuesAndGradientsBitwiseEqualOnGridPoints) {
  for (uint32_t Seed : {1u, 2u, 3u}) {
    Objective Legacy = randomSystem(Seed);
    CompiledObjective Compiled = CompiledObjective::compile(Legacy);
    EXPECT_LT(Compiled.numRows(), Legacy.numConstraints())
        << "random system must contain duplicates for this test to bite";

    std::mt19937 Rng(Seed * 7919);
    for (int Trial = 0; Trial < 20; ++Trial) {
      std::vector<double> X = gridPoint(Rng, Legacy.numVars());
      Legacy.project(X);
      EXPECT_EQ(Legacy.hingeLoss(X), Compiled.hingeLoss(X));
      EXPECT_EQ(Legacy.value(X), Compiled.value(X));
      std::vector<double> GradL, GradC;
      Legacy.gradient(X, GradL);
      Compiled.gradient(X, GradC);
      EXPECT_TRUE(bitwiseEqual(GradL, GradC)) << "seed " << Seed;
      // The fused kernel must agree with its own split evaluators.
      std::vector<double> GradF;
      EXPECT_EQ(Compiled.valueAndGradient(X, GradF), Compiled.value(X));
      EXPECT_TRUE(bitwiseEqual(GradF, GradC));
    }
  }
}

TEST(CompiledEquivalenceTest, ParallelSweepsBitwiseEqualSerial) {
  Objective Legacy = randomSystem(42);
  CompiledObjective Serial = CompiledObjective::compile(Legacy);
  CompiledObjective Parallel = CompiledObjective::compile(Legacy);
  ASSERT_GT(Serial.numShards(), 1u) << "system too small to test sharding";
  ThreadPool Pool(4);
  Parallel.setThreadPool(&Pool);

  std::mt19937 Rng(99);
  for (int Trial = 0; Trial < 10; ++Trial) {
    std::vector<double> X = gridPoint(Rng, Legacy.numVars());
    Serial.project(X);
    std::vector<double> GradS, GradP;
    double ValueS = Serial.valueAndGradient(X, GradS);
    double ValueP = Parallel.valueAndGradient(X, GradP);
    EXPECT_EQ(ValueS, ValueP);
    EXPECT_TRUE(bitwiseEqual(GradS, GradP));
  }
}

/// Runs Adam over \p Obj with a deterministic option set.
template <class ObjT>
SolveResult runAdam(const ObjT &Obj, int Iters = 120) {
  SolveOptions O;
  O.MaxIterations = Iters;
  O.LearningRate = 0.05;
  O.Tolerance = 1e-9;
  AdamOptimizer Opt(O);
  return Opt.minimize(Obj);
}

TEST(CompiledEquivalenceTest, FullAdamTrajectoryMatchesLegacy) {
  // Gradients are sums of coefficients alone, so they stay bitwise equal
  // at the arbitrary iterates Adam visits — and with them the entire X
  // trajectory, the iteration count, and the convergence flag.
  for (uint32_t Seed : {5u, 6u}) {
    Objective Legacy = structuredSystem(Seed);
    CompiledObjective Compiled = CompiledObjective::compile(Legacy);
    SolveResult RL = runAdam(Legacy);
    SolveResult RC = runAdam(Compiled);
    EXPECT_EQ(RL.Iterations, RC.Iterations);
    EXPECT_EQ(RL.Stop, RC.Stop);
    EXPECT_TRUE(bitwiseEqual(RL.X, RC.X)) << "seed " << Seed;
    EXPECT_NEAR(RL.FinalObjective, RC.FinalObjective,
                1e-12 * std::abs(RL.FinalObjective));
  }
}

TEST(CompiledEquivalenceTest, FullAdamTrajectoryMatchesAcrossJobs) {
  Objective Legacy = randomSystem(7);
  CompiledObjective Serial = CompiledObjective::compile(Legacy);
  CompiledObjective Parallel = CompiledObjective::compile(Legacy);
  ThreadPool Pool(4);
  Parallel.setThreadPool(&Pool);
  SolveResult RS = runAdam(Serial);
  SolveResult RP = runAdam(Parallel);
  EXPECT_EQ(RS.Iterations, RP.Iterations);
  EXPECT_TRUE(bitwiseEqual(RS.X, RP.X));
  EXPECT_EQ(RS.FinalObjective, RP.FinalObjective);
}

TEST(CompiledEquivalenceTest, ProjectedGradientTrajectoryMatchesLegacy) {
  Objective Legacy = structuredSystem(11);
  CompiledObjective Compiled = CompiledObjective::compile(Legacy);
  SolveOptions O;
  O.MaxIterations = 80;
  O.LearningRate = 0.05;
  O.Tolerance = 1e-9;
  ProjectedGradient Opt(O);
  SolveResult RL = Opt.minimize(Legacy);
  SolveResult RC = Opt.minimize(Compiled);
  EXPECT_EQ(RL.Iterations, RC.Iterations);
  EXPECT_TRUE(bitwiseEqual(RL.X, RC.X));
}

TEST(CompiledEquivalenceTest, WarmStartTrajectoryMatchesLegacy) {
  Objective Legacy = structuredSystem(13);
  CompiledObjective Compiled = CompiledObjective::compile(Legacy);
  std::mt19937 Rng(17);
  std::vector<double> X0 = gridPoint(Rng, Legacy.numVars());
  SolveOptions O;
  O.MaxIterations = 60;
  O.LearningRate = 0.05;
  O.Tolerance = 1e-9;
  AdamOptimizer Opt(O);
  SolveResult RL = Opt.minimize(Legacy, X0);
  SolveResult RC = Opt.minimize(Compiled, X0);
  EXPECT_EQ(RL.Iterations, RC.Iterations);
  EXPECT_TRUE(bitwiseEqual(RL.X, RC.X));
}

//===----------------------------------------------------------------------===//
// Coalescing edge cases
//===----------------------------------------------------------------------===//

/// Values and gradients at grid points must match the legacy oracle bit
/// for bit (every sum is exact there, so order and coalescing cannot
/// matter), and the fused kernel must agree with its split evaluators.
void expectMatchesOracle(const Objective &Legacy,
                         const CompiledObjective &Compiled, uint32_t Seed) {
  std::mt19937 Rng(Seed);
  for (int Trial = 0; Trial < 8; ++Trial) {
    std::vector<double> X = gridPoint(Rng, Legacy.numVars());
    Legacy.project(X);
    EXPECT_EQ(Legacy.value(X), Compiled.value(X)) << "trial " << Trial;
    std::vector<double> GradL, GradC;
    Legacy.gradient(X, GradL);
    EXPECT_EQ(Compiled.valueAndGradient(X, GradC), Compiled.value(X));
    EXPECT_TRUE(bitwiseEqual(GradL, GradC)) << "trial " << Trial;
  }
}

LinearConstraint row(std::vector<Term> Lhs, std::vector<Term> Rhs,
                     double C) {
  LinearConstraint LC;
  LC.Lhs = std::move(Lhs);
  LC.Rhs = std::move(Rhs);
  LC.C = C;
  return LC;
}

TEST(CompileCoalesceTest, RowsThatDifferOnlyInTheConstantStaySeparate) {
  // Same terms, three constants — including 0.0 and -0.0, which compare
  // equal as doubles but not as bytes: the key is the byte image, so they
  // stay two rows (each evaluates identically, so this costs a row, never
  // a wrong value).
  LinearConstraint A = row({{0, 0.5f}}, {{1, 0.25f}}, 0.25);
  LinearConstraint B = row({{0, 0.5f}}, {{1, 0.25f}}, 0.5);
  LinearConstraint Z = row({{0, 0.5f}}, {{1, 0.25f}}, 0.0);
  LinearConstraint NZ = row({{0, 0.5f}}, {{1, 0.25f}}, -0.0);
  Objective Legacy(2, {A, B, A, Z, NZ, Z}, 0.1);
  CompiledObjective Compiled = CompiledObjective::compile(Legacy);
  ASSERT_EQ(Compiled.numRows(), 4u);
  EXPECT_EQ(Compiled.weight(), (std::vector<double>{2.0, 1.0, 2.0, 1.0}));
  EXPECT_EQ(Compiled.rowConstant()[0], 0.25); // First-occurrence order.
  EXPECT_EQ(Compiled.rowConstant()[1], 0.5);
  EXPECT_FALSE(std::signbit(Compiled.rowConstant()[2]));
  EXPECT_TRUE(std::signbit(Compiled.rowConstant()[3]));
  expectMatchesOracle(Legacy, Compiled, 1);
}

TEST(CompileCoalesceTest, CoefficientsOneUlpApartStaySeparate) {
  const float Half = 0.5f;
  const float NextHalf = std::nextafter(Half, 1.0f);
  LinearConstraint A = row({{0, Half}, {1, 1.0f}}, {}, 0.25);
  LinearConstraint B = row({{0, NextHalf}, {1, 1.0f}}, {}, 0.25);
  Objective Legacy(2, {A, B, B, A, A}, 0.1);
  CompiledObjective Compiled = CompiledObjective::compile(Legacy);
  ASSERT_EQ(Compiled.numRows(), 2u);
  EXPECT_EQ(Compiled.weight(), (std::vector<double>{3.0, 2.0}));
  EXPECT_EQ(Compiled.coef()[0], static_cast<double>(Half));
  EXPECT_EQ(Compiled.coef()[2], static_cast<double>(NextHalf));
  expectMatchesOracle(Legacy, Compiled, 2);
}

TEST(CompileCoalesceTest, TermsThatCancelToZeroVanishBeforeKeying) {
  // x0 + 0.5·x1 <= 0.5·x1 + 0.25 is x0 <= 0.25, and coalesces with it.
  // A row whose every term cancels keeps only its constant: an empty row
  // that is violated by −C whenever C is negative.
  LinearConstraint Cancelled = row({{0, 1.0f}, {1, 0.5f}}, {{1, 0.5f}}, 0.25);
  LinearConstraint Plain = row({{0, 1.0f}}, {}, 0.25);
  LinearConstraint Empty = row({{1, 0.75f}}, {{1, 0.75f}}, -0.5);
  LinearConstraint SignedZero = row({{0, -0.0f}, {1, 0.25f}}, {}, 0.25);
  LinearConstraint JustX1 = row({{1, 0.25f}}, {}, 0.25);
  Objective Legacy(2, {Cancelled, Empty, Plain, SignedZero, Empty, JustX1},
                   0.1);
  CompiledObjective Compiled = CompiledObjective::compile(Legacy);
  ASSERT_EQ(Compiled.numRows(), 3u);
  EXPECT_EQ(Compiled.rowBegin(), (std::vector<uint32_t>{0, 1, 1, 2}));
  EXPECT_EQ(Compiled.varIdx(), (std::vector<uint32_t>{0, 1}));
  EXPECT_EQ(Compiled.weight(), (std::vector<double>{2.0, 2.0, 2.0}));
  EXPECT_EQ(Compiled.hingeLoss({0.0, 0.0}), 2 * 0.5);
  expectMatchesOracle(Legacy, Compiled, 3);
}

TEST(CompileCoalesceTest, ReorderedAndRepeatedTermsCoalesce) {
  // 0.25·x1 + 0.5·x0 + 0.25·x1 merges to 0.5·x0 + 0.5·x1; Rhs terms fold
  // in wherever they appear.
  LinearConstraint A = row({{0, 0.5f}, {1, 0.5f}}, {{2, 1.0f}}, 0.0);
  LinearConstraint B =
      row({{1, 0.25f}, {0, 0.5f}, {1, 0.25f}}, {{2, 1.0f}}, 0.0);
  LinearConstraint C = row({{1, 0.5f}}, {{2, 0.5f}, {2, 0.5f}}, 0.0);
  LinearConstraint D = row({{1, 0.5f}, {0, 0.5f}}, {{2, 1.0f}}, 0.0);
  Objective Legacy(3, {A, B, C, D}, 0.1);
  CompiledObjective Compiled = CompiledObjective::compile(Legacy);
  ASSERT_EQ(Compiled.numRows(), 2u);
  EXPECT_EQ(Compiled.weight(), (std::vector<double>{3.0, 1.0}));
  EXPECT_EQ(Compiled.varIdx(), (std::vector<uint32_t>{0, 1, 2, 1, 2}));
  EXPECT_EQ(Compiled.coef(),
            (std::vector<double>{0.5, 0.5, -1.0, 0.5, -1.0}));
  expectMatchesOracle(Legacy, Compiled, 4);
}

TEST(CompileCoalesceTest, ManyTrueDuplicatesCarryTheirCountAsWeight) {
  // Thousands of copies of three rows, interleaved with distinct ones:
  // every copy lands on its first occurrence's row, and the weight is
  // the exact copy count.
  const LinearConstraint Hot[3] = {row({{0, 1.0f}}, {{1, 1.0f}}, 0.25),
                                   row({{1, 0.5f}, {2, 0.5f}}, {}, 0.75),
                                   row({{2, 1.0f}}, {{0, 0.25f}}, 0.0)};
  std::vector<LinearConstraint> Rows;
  std::vector<double> Want; // Hot-row weights in first-occurrence order.
  size_t WantAt[3] = {3, 3, 3};
  std::mt19937 Rng(5);
  for (uint32_t I = 0; I < 6000; ++I) {
    size_t Pick = Rng() % 4;
    if (Pick == 3) {
      // A distinct row on its own variable (ids from 3 up).
      Rows.push_back(row({{3 + I, 1.0f}}, {}, 0.5));
      continue;
    }
    Rows.push_back(Hot[Pick]);
    if (WantAt[Pick] == 3) {
      WantAt[Pick] = Want.size();
      Want.push_back(0.0);
    }
    Want[WantAt[Pick]] += 1.0;
  }
  Objective Legacy(3 + 6000, Rows, 0.1);
  CompiledObjective Compiled = CompiledObjective::compile(Legacy);
  // Hot rows are the ones whose first variable is below 3.
  std::vector<double> HotWeights;
  for (size_t R = 0; R < Compiled.numRows(); ++R) {
    if (Compiled.varIdx()[Compiled.rowBegin()[R]] < 3)
      HotWeights.push_back(Compiled.weight()[R]);
    else
      EXPECT_EQ(Compiled.weight()[R], 1.0);
  }
  EXPECT_EQ(HotWeights, Want);
  EXPECT_EQ(Compiled.numRows(),
            Rows.size() - static_cast<size_t>(Want[0] + Want[1] + Want[2]) +
                3);
  EXPECT_EQ(Compiled.stats().MaxMultiplicity,
            static_cast<size_t>(*std::max_element(Want.begin(), Want.end())));
  expectMatchesOracle(Legacy, Compiled, 6);
}

/// The byte-image-keyed compile this pass replaced: a std::map from the
/// canonical row's bytes to its row id. The hashed pass must produce the
/// same arrays bit for bit.
struct KeyedReference {
  std::vector<uint32_t> RowBegin{0}, VarIdx;
  std::vector<double> Coef, Weight, C;

  explicit KeyedReference(const std::vector<LinearConstraint> &Rows) {
    std::map<std::string, size_t> Index;
    for (const LinearConstraint &LC : Rows) {
      std::vector<std::pair<uint32_t, double>> Terms;
      for (const Term &T : LC.Lhs)
        Terms.emplace_back(T.Var, static_cast<double>(T.Coef));
      for (const Term &T : LC.Rhs)
        Terms.emplace_back(T.Var, -static_cast<double>(T.Coef));
      std::sort(Terms.begin(), Terms.end(), [](const auto &A, const auto &B) {
        return A.first < B.first;
      });
      std::vector<std::pair<uint32_t, double>> Merged;
      for (size_t I = 0; I < Terms.size();) {
        uint32_t Var = Terms[I].first;
        double Sum = 0.0;
        for (; I < Terms.size() && Terms[I].first == Var; ++I)
          Sum += Terms[I].second;
        if (Sum != 0.0)
          Merged.emplace_back(Var, Sum);
      }
      std::string Key(reinterpret_cast<const char *>(&LC.C), sizeof(double));
      for (const auto &[Var, Coef] : Merged) {
        Key.append(reinterpret_cast<const char *>(&Var), sizeof(Var));
        Key.append(reinterpret_cast<const char *>(&Coef), sizeof(Coef));
      }
      auto [It, Inserted] = Index.emplace(Key, C.size());
      if (!Inserted) {
        Weight[It->second] += 1.0;
        continue;
      }
      for (const auto &[Var, CoefV] : Merged) {
        VarIdx.push_back(Var);
        Coef.push_back(CoefV);
      }
      RowBegin.push_back(static_cast<uint32_t>(VarIdx.size()));
      Weight.push_back(1.0);
      C.push_back(LC.C);
    }
  }
};

TEST(CompileCoalesceTest, ArraysBitwiseEqualTheByteKeyedReference) {
  for (uint32_t Seed : {21u, 22u, 23u}) {
    for (Objective Legacy : {randomSystem(Seed, 60, 3000),
                             structuredSystem(Seed, 200, 20000)}) {
      CompiledObjective Compiled = CompiledObjective::compile(Legacy);
      KeyedReference Ref(Legacy.constraints());
      EXPECT_EQ(Compiled.rowBegin(), Ref.RowBegin) << "seed " << Seed;
      EXPECT_EQ(Compiled.varIdx(), Ref.VarIdx) << "seed " << Seed;
      EXPECT_TRUE(bitwiseEqual(Compiled.coef(), Ref.Coef)) << "seed " << Seed;
      EXPECT_TRUE(bitwiseEqual(Compiled.weight(), Ref.Weight));
      EXPECT_TRUE(bitwiseEqual(Compiled.rowConstant(), Ref.C));
    }
  }
}

TEST(CompiledEquivalenceTest, CallbackSeesEveryIteration) {
  // The fused loop must preserve the iteration/callback contract the
  // pipeline's progress observer relies on: exactly one callback per
  // counted iteration, including the converging one.
  Objective Legacy = randomSystem(19, /*NumVars=*/20, /*NumConstraints=*/50);
  CompiledObjective Compiled = CompiledObjective::compile(Legacy);
  SolveOptions O;
  O.MaxIterations = 2000;
  O.LearningRate = 0.05;
  O.Tolerance = 1e-7;
  int Calls = 0, LastIter = 0;
  O.OnIteration = [&](int Iter, double) {
    ++Calls;
    LastIter = Iter;
  };
  AdamOptimizer Opt(O);
  SolveResult R = Opt.minimize(Compiled);
  EXPECT_EQ(Calls, R.Iterations);
  EXPECT_EQ(LastIter, R.Iterations);
  EXPECT_EQ(R.Stop, StopReason::Stationary);
}

} // namespace
