//===- solver/SimdObjective.cpp - Blocked SIMD solver kernel --------------===//

#include "solver/SimdObjective.h"

#include "support/ThreadPool.h"

#include <algorithm>
#include <cassert>
#include <cstdlib>
#include <cstring>
#include <numeric>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define SELDON_X86 1
#else
#define SELDON_X86 0
#endif

using namespace seldon;
using namespace seldon::solver;

namespace {

// The value-pass kernels. All three tiers accumulate each lane's row in
// the original CSR term order with separate mul and add (no FMA), so every
// tier computes bit-identical per-row values: the vector kernels round each
// lane exactly like the scalar loop. Each also forms the weighted hinge
// Weight·max(V, 0) — a max followed by a separate multiply, the same two
// operations the compiled row loop issues for a violated row — so the
// epilogue needs only H.

void valuePassScalar(size_t BlockBegin, size_t BlockEnd, const size_t *Off,
                     const uint32_t *Width, const uint32_t *Rows,
                     const double *NegC, const double *Wt,
                     const uint32_t *Idx, const double *Val, const double *X,
                     uint32_t Sentinel, double *RowHinge) {
  for (size_t B = BlockBegin; B < BlockEnd; ++B) {
    const size_t O = Off[B];
    const uint32_t W = Width[B];
    double Acc[4];
    for (int L = 0; L < 4; ++L)
      Acc[L] = NegC[4 * B + L];
    for (uint32_t J = 0; J < W; ++J)
      for (int L = 0; L < 4; ++L)
        Acc[L] += Val[O + 4 * J + L] * X[Idx[O + 4 * J + L]];
    for (int L = 0; L < 4; ++L) {
      const uint32_t R = Rows[4 * B + L];
      // (Acc > 0 ? Acc : +0.0) mirrors vmaxpd's exact zero handling.
      if (R != Sentinel)
        RowHinge[R] = Wt[4 * B + L] * (Acc[L] > 0.0 ? Acc[L] : 0.0);
    }
  }
}

#if SELDON_X86

__attribute__((target("avx2")))
void valuePassAvx2(size_t BlockBegin, size_t BlockEnd, const size_t *Off,
                   const uint32_t *Width, const uint32_t *Rows,
                   const double *NegC, const double *Wt, const uint32_t *Idx,
                   const double *Val, const double *X, uint32_t Sentinel,
                   double *RowHinge) {
  for (size_t B = BlockBegin; B < BlockEnd; ++B) {
    const uint32_t W = Width[B];
    const uint32_t *IdxP = Idx + Off[B];
    const double *ValP = Val + Off[B];
    __m256d Acc = _mm256_loadu_pd(NegC + 4 * B);
    for (uint32_t J = 0; J < W; ++J) {
      __m128i I = _mm_loadu_si128(
          reinterpret_cast<const __m128i *>(IdxP + 4 * J));
      __m256d Xv = _mm256_i32gather_pd(X, I, 8);
      __m256d Cv = _mm256_loadu_pd(ValP + 4 * J);
      Acc = _mm256_add_pd(Acc, _mm256_mul_pd(Cv, Xv));
    }
    __m256d Wv = _mm256_loadu_pd(Wt + 4 * B);
    __m256d Hv =
        _mm256_mul_pd(Wv, _mm256_max_pd(Acc, _mm256_setzero_pd()));
    alignas(32) double Lane[4];
    _mm256_store_pd(Lane, Hv);
    for (int L = 0; L < 4; ++L) {
      const uint32_t R = Rows[4 * B + L];
      if (R != Sentinel)
        RowHinge[R] = Lane[L];
    }
  }
}

// The AVX-512 tier: same per-lane arithmetic at twice the width, with
// masked scatter stores replacing the scalar sentinel branch. Rows within
// a block are distinct, so the row-value scatter never conflicts.

__attribute__((target("avx512f,avx512vl")))
void valuePassAvx512(size_t BlockBegin, size_t BlockEnd, const size_t *Off,
                     const uint32_t *Width, const uint32_t *Rows,
                     const double *NegC, const double *Wt,
                     const uint32_t *Idx, const double *Val, const double *X,
                     uint32_t Sentinel, double *RowHinge) {
  const __m256i Sent = _mm256_set1_epi32(static_cast<int>(Sentinel));
  for (size_t B = BlockBegin; B < BlockEnd; ++B) {
    const uint32_t W = Width[B];
    const uint32_t *IdxP = Idx + Off[B];
    const double *ValP = Val + Off[B];
    __m512d Acc = _mm512_loadu_pd(NegC + 8 * B);
    for (uint32_t J = 0; J < W; ++J) {
      __m256i I = _mm256_loadu_si256(
          reinterpret_cast<const __m256i *>(IdxP + 8 * J));
      __m512d Xv = _mm512_i32gather_pd(I, X, 8);
      __m512d Cv = _mm512_loadu_pd(ValP + 8 * J);
      Acc = _mm512_add_pd(Acc, _mm512_mul_pd(Cv, Xv));
    }
    __m512d Wv = _mm512_loadu_pd(Wt + 8 * B);
    __m512d Hv =
        _mm512_mul_pd(Wv, _mm512_max_pd(Acc, _mm512_setzero_pd()));
    __m256i R = _mm256_loadu_si256(
        reinterpret_cast<const __m256i *>(Rows + 8 * B));
    __mmask8 M = _mm256_cmpneq_epu32_mask(R, Sent);
    _mm512_mask_i32scatter_pd(RowHinge, M, R, Hv, 8);
  }
}

// Order-preserving violated-row compaction for the epilogue: the masked
// compress emits exactly the rows with H > 0, in ascending row order — the same set and sequence the branchy scalar
// loop visits, just without the per-row branch.

__attribute__((target("avx512f,avx512vl")))
size_t compressViolated(const double *H, size_t Begin, size_t End,
                        double *HOut, uint32_t *ROut) {
  size_t N = 0;
  size_t R = Begin;
  __m256i Idx = _mm256_add_epi32(
      _mm256_set1_epi32(static_cast<int>(Begin)),
      _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
  const __m256i Step = _mm256_set1_epi32(8);
  const __m512d Zero = _mm512_setzero_pd();
  for (; R + 8 <= End; R += 8) {
    __m512d Hv = _mm512_loadu_pd(H + R);
    __mmask8 M = _mm512_cmp_pd_mask(Hv, Zero, _CMP_GT_OQ);
    _mm512_mask_compressstoreu_pd(HOut + N, M, Hv);
    _mm256_mask_compressstoreu_epi32(ROut + N, M, Idx);
    N += static_cast<unsigned>(__builtin_popcount(M));
    Idx = _mm256_add_epi32(Idx, Step);
  }
  for (; R < End; ++R)
    if (H[R] > 0.0) {
      HOut[N] = H[R];
      ROut[N] = static_cast<uint32_t>(R);
      ++N;
    }
  return N;
}

#endif // SELDON_X86

} // namespace

const char *seldon::solver::simdTierName(SimdTier Tier) {
  switch (Tier) {
  case SimdTier::Scalar:
    return "scalar";
  case SimdTier::Avx2:
    return "avx2";
  case SimdTier::Avx512:
    return "avx512";
  }
  return "scalar";
}

bool SimdObjective::simdSupported() {
  // SELDON_SIMD=off|0|scalar forces the scalar fallback — the dispatch
  // seam the fallback tests exercise on AVX2 hosts.
  if (const char *Env = std::getenv("SELDON_SIMD"))
    if (!std::strcmp(Env, "off") || !std::strcmp(Env, "0") ||
        !std::strcmp(Env, "scalar"))
      return false;
#if SELDON_X86
  return __builtin_cpu_supports("avx2");
#else
  return false;
#endif
}

bool SimdObjective::avx512Supported() {
  // SELDON_SIMD=avx2 caps the dispatch at the 256-bit kernels — the
  // tier-equivalence tests exercise this on AVX-512 hosts.
  if (const char *Env = std::getenv("SELDON_SIMD"))
    if (!std::strcmp(Env, "avx2"))
      return false;
#if SELDON_X86
  return __builtin_cpu_supports("avx512f") &&
         __builtin_cpu_supports("avx512vl");
#else
  return false;
#endif
}

SimdObjective::SimdObjective(size_t NumVars,
                             const std::vector<LinearConstraint> &Constraints,
                             double Lambda)
    : Inner(NumVars, Constraints, Lambda),
      Tier(!simdSupported()    ? SimdTier::Scalar
           : avx512Supported() ? SimdTier::Avx512
                               : SimdTier::Avx2) {
  buildBlocks();
}

SimdObjective SimdObjective::compile(const Objective &Obj) {
  SimdObjective Compiled(Obj.numVars(), Obj.constraints(), Obj.lambda());
  const std::vector<uint8_t> &Mask = Obj.pinnedMask();
  const std::vector<double> &Values = Obj.pinnedValues();
  for (uint32_t V = 0; V < Obj.numVars(); ++V)
    if (Mask[V])
      Compiled.Inner.pin(V, Values[V]);
  return Compiled;
}

void SimdObjective::buildBlocks() {
  const std::vector<uint32_t> &RB = Inner.rowBegin();
  const std::vector<uint32_t> &VI = Inner.varIdx();
  const std::vector<double> &CO = Inner.coef();
  const std::vector<double> &RC = Inner.rowConstant();
  const std::vector<double> &WT = Inner.weight();
  const size_t NumRows = Inner.numRows();
  const uint32_t Sentinel = static_cast<uint32_t>(NumRows);
  const size_t L = lanes();

  RowHinge.assign(NumRows, 0.0);
  HScratch.assign(NumRows, 0.0);
  RScratch.assign(NumRows, 0);

  // The scatter operands, precomputed in the inner kernel's contiguous
  // term order: the same Weight·Coef scalar product the compiled kernel
  // forms per violated term — precomputing it cannot change its rounding.
  SWC.resize(CO.size());
  for (size_t R = 0; R < NumRows; ++R)
    for (uint32_t K = RB[R]; K < RB[R + 1]; ++K)
      SWC[K] = WT[R] * CO[K];

  // Same shard partitioning rule as Objective/CompiledObjective: a
  // function of the row count only, so the shard-order reduction matches
  // the compiled path bit for bit at every Jobs setting.
  const size_t Size =
      std::max(MinShardSize, (NumRows + MaxShards - 1) / MaxShards);
  for (size_t Begin = 0; Begin < NumRows; Begin += Size) {
    Shard S;
    S.Begin = Begin;
    S.End = std::min(NumRows, Begin + Size);
    S.BlockBegin = BlockWidth.size();

    // Stable sort by descending row length: rows of similar length share
    // a block, minimizing the padding a block's widest lane imposes on
    // the others. Stability keeps equal-length rows in original order.
    std::vector<uint32_t> Order(S.End - S.Begin);
    std::iota(Order.begin(), Order.end(), static_cast<uint32_t>(S.Begin));
    std::stable_sort(Order.begin(), Order.end(),
                     [&](uint32_t A, uint32_t B) {
                       return RB[A + 1] - RB[A] > RB[B + 1] - RB[B];
                     });

    for (size_t I = 0; I < Order.size(); I += L) {
      const uint32_t Widest = Order[I]; // Sorted: lane 0 is the longest.
      const uint32_t W = RB[Widest + 1] - RB[Widest];
      BlockWidth.push_back(W);
      BlockOff.push_back(BIdx.size());
      BIdx.resize(BIdx.size() + static_cast<size_t>(W) * L, 0);
      BVal.resize(BIdx.size(), 0.0);
      for (size_t Lane = 0; Lane < L; ++Lane) {
        const size_t Slot = I + Lane;
        if (Slot >= Order.size()) {
          BlockRows.push_back(Sentinel);
          BNegC.push_back(0.0);
          BW.push_back(0.0);
          continue;
        }
        const uint32_t Row = Order[Slot];
        BlockRows.push_back(Row);
        BNegC.push_back(-RC[Row]);
        BW.push_back(WT[Row]);
        const uint32_t Len = RB[Row + 1] - RB[Row];
        for (uint32_t J = 0; J < Len; ++J) {
          const size_t At = BlockOff.back() + static_cast<size_t>(J) * L +
                            Lane;
          BIdx[At] = VI[RB[Row] + J];
          BVal[At] = CO[RB[Row] + J];
        }
      }
    }
    S.BlockEnd = BlockWidth.size();
    Shards.push_back(S);
  }
}

void SimdObjective::valuePass(const Shard &S, const double *X) const {
  const uint32_t Sentinel = static_cast<uint32_t>(numRows());
#if SELDON_X86
  if (Tier == SimdTier::Avx512) {
    valuePassAvx512(S.BlockBegin, S.BlockEnd, BlockOff.data(),
                    BlockWidth.data(), BlockRows.data(), BNegC.data(),
                    BW.data(), BIdx.data(), BVal.data(), X, Sentinel,
                    RowHinge.data());
    return;
  }
  if (Tier == SimdTier::Avx2) {
    valuePassAvx2(S.BlockBegin, S.BlockEnd, BlockOff.data(),
                  BlockWidth.data(), BlockRows.data(), BNegC.data(),
                  BW.data(), BIdx.data(), BVal.data(), X, Sentinel,
                  RowHinge.data());
    return;
  }
#endif
  valuePassScalar(S.BlockBegin, S.BlockEnd, BlockOff.data(),
                  BlockWidth.data(), BlockRows.data(), BNegC.data(),
                  BW.data(), BIdx.data(), BVal.data(), X, Sentinel,
                  RowHinge.data());
}

double SimdObjective::shardEpilogue(size_t Begin, size_t End,
                                    double *GradOut) const {
  // Original row order, same accumulation sequence as
  // CompiledObjective::shardSweep — this is where bit-identity of the
  // hinge total and gradient is anchored. The value pass already formed
  // H = Weight·max(V, 0): H > 0 iff V > 0 (weights are >= 1, so the
  // product cannot underflow to zero), and for a violated row H is
  // exactly the compiled kernel's Weight·V term. The scatter
  // adds the precomputed contiguous Weight·Coef products: same values,
  // same targets, same order as the compiled kernel.
  const std::vector<uint32_t> &RB = Inner.rowBegin();
  const std::vector<uint32_t> &VI = Inner.varIdx();
  double Total = 0.0;
#if SELDON_X86
  if (Tier == SimdTier::Avx512) {
    // Branch-free variant: compact the violated rows (order-preserving),
    // then accumulate and scatter over the compact list — the identical
    // value sequence, minus the per-row mispredictions.
    uint32_t *ROut = RScratch.data() + Begin;
    // The scatter coalesces runs of consecutive violated rows into one
    // streaming pass over their (contiguous) CSR entry ranges — the same
    // K sequence as per-row loops, minus the per-row bookkeeping. The
    // hinge total still accumulates one row at a time, in order.
    double *HOut = HScratch.data() + Begin;
    const size_t N =
        compressViolated(RowHinge.data(), Begin, End, HOut, ROut);
    size_t I = 0;
    while (I < N) {
      const uint32_t R0 = ROut[I];
      uint32_t R1 = R0;
      Total += HOut[I];
      ++I;
      while (I < N && ROut[I] == R1 + 1) {
        R1 = ROut[I];
        Total += HOut[I];
        ++I;
      }
      if (GradOut)
        for (uint32_t K = RB[R0]; K < RB[R1 + 1]; ++K)
          GradOut[VI[K]] += SWC[K];
    }
    return Total;
  }
#endif
  for (size_t R = Begin; R < End; ++R) {
    const double H = RowHinge[R];
    if (H <= 0.0)
      continue; // Satisfied: no loss, subgradient 0.
    Total += H;
    if (GradOut)
      for (uint32_t K = RB[R]; K < RB[R + 1]; ++K)
        GradOut[VI[K]] += SWC[K];
  }
  return Total;
}

double SimdObjective::sweep(const std::vector<double> &X, bool WithGradient,
                            std::vector<double> *Grad) const {
  const size_t NumVars = Inner.numVars();
  assert(X.size() == NumVars);
  if (WithGradient)
    Grad->assign(NumVars, 0.0);
  if (Shards.empty())
    return 0.0;

  if (Shards.size() == 1) {
    valuePass(Shards[0], X.data());
    return shardEpilogue(Shards[0].Begin, Shards[0].End,
                         WithGradient ? Grad->data() : nullptr);
  }

  ShardHinge.assign(Shards.size(), 0.0);
  if (WithGradient)
    ShardGrad.resize(Shards.size());
  auto RunShard = [&](size_t S, unsigned) {
    valuePass(Shards[S], X.data());
    double *GradOut = nullptr;
    if (WithGradient) {
      ShardGrad[S].assign(NumVars, 0.0);
      GradOut = ShardGrad[S].data();
    }
    ShardHinge[S] = shardEpilogue(Shards[S].Begin, Shards[S].End, GradOut);
  };
  if (Pool)
    Pool->parallelFor(Shards.size(), RunShard);
  else
    for (size_t S = 0; S < Shards.size(); ++S)
      RunShard(S, 0);

  // Reduce in shard order (deterministic regardless of execution order),
  // exactly like CompiledObjective::sweep.
  double Total = 0.0;
  for (double P : ShardHinge)
    Total += P;
  if (!WithGradient)
    return Total;

  double *Out = Grad->data();
  auto ReduceRange = [&](size_t Begin, size_t End) {
    for (const std::vector<double> &Buf : ShardGrad)
      for (size_t V = Begin; V < End; ++V)
        Out[V] += Buf[V];
  };
  if (Pool && NumVars >= 4096) {
    unsigned Workers = Pool->numWorkers();
    size_t Chunk = (NumVars + Workers - 1) / Workers;
    size_t NumChunks = (NumVars + Chunk - 1) / Chunk;
    Pool->parallelFor(NumChunks, [&](size_t Ch, unsigned) {
      ReduceRange(Ch * Chunk, std::min(NumVars, (Ch + 1) * Chunk));
    });
  } else {
    ReduceRange(0, NumVars);
  }
  return Total;
}

double SimdObjective::valueAndGradient(const std::vector<double> &X,
                                       std::vector<double> &Grad) const {
  double Total = sweep(X, /*WithGradient=*/true, &Grad);
  // Flat pin/L1 epilogue, identical sequence to CompiledObjective.
  const uint8_t *Pin = Inner.pinnedMask().data();
  const double Lambda = Inner.lambda();
  const size_t NumVars = Inner.numVars();
  double *G = Grad.data();
  for (uint32_t V = 0; V < NumVars; ++V) {
    if (Pin[V]) {
      G[V] = 0.0;
    } else {
      G[V] += Lambda;
      Total += Lambda * X[V];
    }
  }
  return Total;
}

double SimdObjective::hingeLoss(const std::vector<double> &X) const {
  return sweep(X, /*WithGradient=*/false, nullptr);
}

double SimdObjective::value(const std::vector<double> &X) const {
  double Total = hingeLoss(X);
  const uint8_t *Pin = Inner.pinnedMask().data();
  const double Lambda = Inner.lambda();
  const size_t NumVars = Inner.numVars();
  for (uint32_t V = 0; V < NumVars; ++V)
    if (!Pin[V])
      Total += Lambda * X[V];
  return Total;
}

void SimdObjective::gradient(const std::vector<double> &X,
                             std::vector<double> &Grad) const {
  sweep(X, /*WithGradient=*/true, &Grad);
  const uint8_t *Pin = Inner.pinnedMask().data();
  const double Lambda = Inner.lambda();
  const size_t NumVars = Inner.numVars();
  double *G = Grad.data();
  for (uint32_t V = 0; V < NumVars; ++V) {
    if (Pin[V])
      G[V] = 0.0;
    else
      G[V] += Lambda;
  }
}
