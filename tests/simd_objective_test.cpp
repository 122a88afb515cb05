//===- tests/simd_objective_test.cpp - Blocked SIMD kernel tests ----------===//
//
// The blocked SIMD kernel (the production solver) must be an exact
// drop-in for CompiledObjective: byte-identical values, gradients, and
// optimizer trajectories, for any Jobs setting, on every kernel tier
// (AVX-512, AVX2, scalar). Unlike the compiled-vs-legacy comparison
// (which needs grid points or structured rows to pin down the summation order), these
// assertions hold at *arbitrary* points: each SIMD lane accumulates its
// row's terms in the original CSR order with separate mul/add, so every
// per-row value is the same IEEE operation sequence as the scalar kernel.
//
//===----------------------------------------------------------------------===//

#include "solver/AdamOptimizer.h"
#include "solver/CompiledObjective.h"
#include "solver/ProjectedGradient.h"
#include "solver/SimdObjective.h"
#include "support/ThreadPool.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <random>

using namespace seldon;
using namespace seldon::solver;

namespace {

/// A random system in the shape the generator emits (averaging
/// coefficients 1/n, constants that are multiples of 0.25, duplicates,
/// seed pins), large enough to span multiple shards.
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
    int Copies = Rand(0, 4) == 0 ? Rand(2, 5) : 1;
    for (int I = 0; I < Copies && Constraints.size() < NumConstraints; ++I)
      Constraints.push_back(LC);
  }
  Objective Obj(NumVars, std::move(Constraints), Lambda);
  for (size_t I = 0; I < NumVars / 10; ++I)
    Obj.pin(Rand(0, NumVars - 1), Rand(0, 1));
  return Obj;
}

/// A random point on the 2^-8 grid.
std::vector<double> gridPoint(std::mt19937 &Rng, size_t NumVars) {
  std::uniform_int_distribution<int> Dist(0, 256);
  std::vector<double> X(NumVars);
  for (double &V : X)
    V = Dist(Rng) / 256.0;
  return X;
}

/// An arbitrary (non-grid) point in [0, 1]: per-row accumulation order
/// matches the compiled kernel exactly, so no grid alignment is needed.
std::vector<double> randomPoint(std::mt19937 &Rng, size_t NumVars) {
  std::uniform_real_distribution<double> Dist(0.0, 1.0);
  std::vector<double> X(NumVars);
  for (double &V : X)
    V = Dist(Rng);
  return X;
}

bool bitwiseEqual(const std::vector<double> &A, const std::vector<double> &B) {
  return A.size() == B.size() &&
         std::memcmp(A.data(), B.data(), A.size() * sizeof(double)) == 0;
}

template <class ObjT> SolveResult runAdam(const ObjT &Obj, int Iters = 120) {
  SolveOptions O;
  O.MaxIterations = Iters;
  O.LearningRate = 0.05;
  O.Tolerance = 1e-9;
  AdamOptimizer Opt(O);
  return Opt.minimize(Obj);
}

/// Temporarily caps the kernel tier via SELDON_SIMD (the dispatch is
/// sampled at construction): "off" forces the scalar fallback, "avx2"
/// the 256-bit kernels.
struct ScopedSimdOverride {
  explicit ScopedSimdOverride(const char *Value) {
    setenv("SELDON_SIMD", Value, 1);
  }
  ~ScopedSimdOverride() { unsetenv("SELDON_SIMD"); }
};

//===----------------------------------------------------------------------===//
// Layout
//===----------------------------------------------------------------------===//

TEST(SimdLayoutTest, BlocksCoverEveryRowOnce) {
  Objective Legacy = randomSystem(3);
  SimdObjective Simd = SimdObjective::compile(Legacy);
  const CompiledObjective &Inner = Simd.inner();
  EXPECT_EQ(Simd.numRows(), Inner.numRows());
  EXPECT_EQ(Simd.numNonZeros(), Inner.numNonZeros());
  // At least ceil(rows/lanes) blocks, padding bounded by the per-block
  // spread (at most (lanes-1)·width per block).
  EXPECT_GE(Simd.numBlocks() * Simd.lanesPerBlock(), Simd.numRows());
  EXPECT_LT(Simd.numBlocks(), Simd.numRows());
  EXPECT_GT(Simd.paddedEntries(), 0u) << "variable-length rows must pad";
  // Same shard structure as the compiled kernel.
  EXPECT_EQ(Simd.numShards(), Inner.numShards());
}

TEST(SimdLayoutTest, CompileCopiesPins) {
  Objective Legacy(3, {}, 0.1);
  Legacy.pin(1, 1.0);
  SimdObjective Simd = SimdObjective::compile(Legacy);
  EXPECT_TRUE(Simd.isPinned(1));
  EXPECT_DOUBLE_EQ(Simd.pinnedValue(1), 1.0);
  EXPECT_FALSE(Simd.isPinned(0));
  EXPECT_DOUBLE_EQ(Simd.lambda(), 0.1);
}

TEST(SimdLayoutTest, EmptySystemEvaluatesToZero) {
  SimdObjective Simd(4, {}, 0.5);
  std::vector<double> Grad;
  EXPECT_EQ(Simd.hingeLoss({0.0, 0.0, 0.0, 0.0}), 0.0);
  EXPECT_EQ(Simd.valueAndGradient({1.0, 1.0, 1.0, 1.0}, Grad), 2.0);
  for (double G : Grad)
    EXPECT_DOUBLE_EQ(G, 0.5);
}

//===----------------------------------------------------------------------===//
// fp64: byte-identical to CompiledObjective
//===----------------------------------------------------------------------===//

TEST(SimdEquivalenceTest, ValuesAndGradientsBitwiseEqualAtArbitraryPoints) {
  for (uint32_t Seed : {1u, 2u, 3u}) {
    Objective Legacy = randomSystem(Seed);
    CompiledObjective Compiled = CompiledObjective::compile(Legacy);
    SimdObjective Simd = SimdObjective::compile(Legacy);

    std::mt19937 Rng(Seed * 7919);
    for (int Trial = 0; Trial < 20; ++Trial) {
      std::vector<double> X = Trial % 2 ? randomPoint(Rng, Legacy.numVars())
                                        : gridPoint(Rng, Legacy.numVars());
      Compiled.project(X);
      EXPECT_EQ(Compiled.hingeLoss(X), Simd.hingeLoss(X));
      EXPECT_EQ(Compiled.value(X), Simd.value(X));
      std::vector<double> GradC, GradS, GradF;
      Compiled.gradient(X, GradC);
      Simd.gradient(X, GradS);
      EXPECT_TRUE(bitwiseEqual(GradC, GradS)) << "seed " << Seed;
      EXPECT_EQ(Simd.valueAndGradient(X, GradF), Compiled.value(X));
      EXPECT_TRUE(bitwiseEqual(GradF, GradC));
    }
  }
}

TEST(SimdEquivalenceTest, ParallelSweepsBitwiseEqualSerial) {
  Objective Legacy = randomSystem(42);
  SimdObjective Serial = SimdObjective::compile(Legacy);
  SimdObjective Parallel = SimdObjective::compile(Legacy);
  ASSERT_GT(Serial.numShards(), 1u) << "system too small to test sharding";
  ThreadPool Pool(4);
  Parallel.setThreadPool(&Pool);

  std::mt19937 Rng(99);
  for (int Trial = 0; Trial < 10; ++Trial) {
    std::vector<double> X = randomPoint(Rng, Legacy.numVars());
    Serial.project(X);
    std::vector<double> GradS, GradP;
    double ValueS = Serial.valueAndGradient(X, GradS);
    double ValueP = Parallel.valueAndGradient(X, GradP);
    EXPECT_EQ(ValueS, ValueP);
    EXPECT_TRUE(bitwiseEqual(GradS, GradP));
  }
}

TEST(SimdEquivalenceTest, FullAdamTrajectoryMatchesCompiledAcrossJobs) {
  // fp64 SIMD is bit-identical to the compiled kernel at every iterate,
  // so the whole trajectory — iterate values, iteration count,
  // convergence — matches byte for byte, serial and parallel.
  for (uint32_t Seed : {5u, 7u}) {
    Objective Legacy = randomSystem(Seed);
    CompiledObjective Compiled = CompiledObjective::compile(Legacy);
    SimdObjective Serial = SimdObjective::compile(Legacy);
    SimdObjective Parallel = SimdObjective::compile(Legacy);
    ThreadPool Pool(4);
    Parallel.setThreadPool(&Pool);
    SolveResult RC = runAdam(Compiled);
    SolveResult RS = runAdam(Serial);
    SolveResult RP = runAdam(Parallel);
    EXPECT_EQ(RC.Iterations, RS.Iterations);
    EXPECT_EQ(RC.Converged, RS.Converged);
    EXPECT_TRUE(bitwiseEqual(RC.X, RS.X)) << "seed " << Seed;
    EXPECT_EQ(RC.FinalObjective, RS.FinalObjective);
    EXPECT_EQ(RS.Iterations, RP.Iterations);
    EXPECT_TRUE(bitwiseEqual(RS.X, RP.X));
    EXPECT_EQ(RS.FinalObjective, RP.FinalObjective);
  }
}

TEST(SimdEquivalenceTest, ProjectedGradientTrajectoryMatchesCompiled) {
  Objective Legacy = randomSystem(11);
  CompiledObjective Compiled = CompiledObjective::compile(Legacy);
  SimdObjective Simd = SimdObjective::compile(Legacy);
  SolveOptions O;
  O.MaxIterations = 80;
  O.LearningRate = 0.05;
  O.Tolerance = 1e-9;
  ProjectedGradient Opt(O);
  SolveResult RC = Opt.minimize(Compiled);
  SolveResult RS = Opt.minimize(Simd);
  EXPECT_EQ(RC.Iterations, RS.Iterations);
  EXPECT_TRUE(bitwiseEqual(RC.X, RS.X));
}

TEST(SimdEquivalenceTest, WarmStartTrajectoryMatchesCompiled) {
  // Both explicit-X0 and SolveOptions::WarmStart entry points.
  Objective Legacy = randomSystem(13);
  CompiledObjective Compiled = CompiledObjective::compile(Legacy);
  SimdObjective Simd = SimdObjective::compile(Legacy);
  std::mt19937 Rng(17);
  std::vector<double> X0 = randomPoint(Rng, Legacy.numVars());
  SolveOptions O;
  O.MaxIterations = 60;
  O.LearningRate = 0.05;
  O.Tolerance = 1e-9;
  AdamOptimizer Opt(O);
  SolveResult RC = Opt.minimize(Compiled, X0);
  SolveResult RS = Opt.minimize(Simd, X0);
  EXPECT_EQ(RC.Iterations, RS.Iterations);
  EXPECT_TRUE(bitwiseEqual(RC.X, RS.X));

  O.WarmStart = X0;
  AdamOptimizer WarmOpt(O);
  SolveResult RW = WarmOpt.minimize(Simd);
  EXPECT_TRUE(bitwiseEqual(RW.X, RS.X));
}

//===----------------------------------------------------------------------===//
// Runtime dispatch
//===----------------------------------------------------------------------===//

TEST(SimdDispatchTest, ScalarFallbackBitwiseEqualAvx2) {
  // SELDON_SIMD=off forces the scalar kernels (the only path on non-AVX2
  // hosts); both kernels perform the same per-lane operation sequence, so
  // results match byte for byte whichever one dispatch picks.
  Objective Legacy = randomSystem(23);
  SimdObjective Native = SimdObjective::compile(Legacy);
  std::vector<double> XNative, XFallback;
  {
    SolveResult R = runAdam(Native, 60);
    XNative = std::move(R.X);
  }
  {
    ScopedSimdOverride Scoped("off");
    SimdObjective Fallback = SimdObjective::compile(Legacy);
    EXPECT_EQ(Fallback.tier(), SimdTier::Scalar);
    EXPECT_FALSE(SimdObjective::simdSupported());
    SolveResult R = runAdam(Fallback, 60);
    XFallback = std::move(R.X);
  }
  EXPECT_TRUE(bitwiseEqual(XNative, XFallback));
}

TEST(SimdDispatchTest, NativeTierBitwiseEqualAvx2Tier) {
  // SELDON_SIMD=avx2 caps dispatch at the 4-lane kernels. On an AVX-512
  // host the native run uses the 8-lane blocks and the masked-compress
  // epilogue instead, so this is the check that the widest tier matches
  // the AVX2 tier bit for bit (on other hosts both runs share a tier).
  Objective Legacy = randomSystem(29);
  SimdObjective Native = SimdObjective::compile(Legacy);
  SimdObjective Avx2 = [&] {
    ScopedSimdOverride Scoped("avx2");
    EXPECT_FALSE(SimdObjective::avx512Supported());
    return SimdObjective::compile(Legacy);
  }();
  EXPECT_NE(Avx2.tier(), SimdTier::Avx512);
  if (SimdObjective::simdSupported()) {
    EXPECT_EQ(Avx2.tier(), SimdTier::Avx2);
  }
  ThreadPool Pool(3);
  Avx2.setThreadPool(&Pool);

  // Per-row rounding differences can vanish in one hinge total, so probe
  // several points.
  std::mt19937 Rng(29);
  for (int Trial = 0; Trial < 10; ++Trial) {
    std::vector<double> X = randomPoint(Rng, Legacy.numVars());
    Native.project(X);
    EXPECT_EQ(Native.hingeLoss(X), Avx2.hingeLoss(X)) << "trial " << Trial;
    std::vector<double> GNative, GAvx2;
    EXPECT_EQ(Native.valueAndGradient(X, GNative),
              Avx2.valueAndGradient(X, GAvx2))
        << "trial " << Trial;
    EXPECT_TRUE(bitwiseEqual(GNative, GAvx2)) << "trial " << Trial;
  }
  SolveResult RN = runAdam(Native, 60);
  SolveResult RA = runAdam(Avx2, 60);
  EXPECT_EQ(RN.Iterations, RA.Iterations);
  EXPECT_TRUE(bitwiseEqual(RN.X, RA.X));
  EXPECT_EQ(RN.FinalObjective, RA.FinalObjective);
}

} // namespace
