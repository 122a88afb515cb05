//===- solver/CompiledObjective.cpp - Compiled fused solver kernel --------===//

#include "solver/CompiledObjective.h"

#include "support/ThreadPool.h"

#include <algorithm>
#include <cassert>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>

using namespace seldon;
using namespace seldon::solver;

namespace {

/// One term of a canonical row: (variable, merged coefficient).
using CanonicalTerm = std::pair<uint32_t, double>;

/// Canonicalizes one constraint into \p Terms (cleared first, capacity
/// reused across rows): folds Rhs into Lhs with negated coefficients,
/// sorts by variable id, merges duplicates by summing their coefficients
/// in double (float + float is exact in double), and drops terms whose
/// merged coefficient cancelled to exactly zero. A -0.0 coefficient is
/// dropped as zero too, so the bytes of the surviving coefficients are a
/// faithful image of their values.
void canonicalize(const LinearConstraint &LC,
                  std::vector<CanonicalTerm> &Terms) {
  Terms.clear();
  for (const Term &T : LC.Lhs)
    Terms.emplace_back(T.Var, static_cast<double>(T.Coef));
  for (const Term &T : LC.Rhs)
    Terms.emplace_back(T.Var, -static_cast<double>(T.Coef));
  std::sort(Terms.begin(), Terms.end(),
            [](const auto &A, const auto &B) { return A.first < B.first; });

  size_t Out = 0;
  for (size_t I = 0; I < Terms.size();) {
    uint32_t Var = Terms[I].first;
    double Sum = 0.0;
    for (; I < Terms.size() && Terms[I].first == Var; ++I)
      Sum += Terms[I].second;
    if (Sum != 0.0)
      Terms[Out++] = {Var, Sum};
  }
  Terms.resize(Out);
}

uint64_t bitsOf(double V) {
  uint64_t Bits;
  std::memcpy(&Bits, &V, sizeof(Bits));
  return Bits;
}

/// 64-bit hash of a canonical row's (C, var, coefficient-bits) image.
/// Rows equal under the coalescing rule hash equal; collisions are
/// resolved by an exact comparison, so the hash only steers probing.
uint64_t hashRow(double C, const std::vector<CanonicalTerm> &Terms) {
  constexpr uint64_t K = 0x9E3779B97F4A7C15ull;
  auto Mix = [](uint64_t H, uint64_t W) {
    return ((H << 5 | H >> 59) ^ W) * K;
  };
  uint64_t H = Mix(Terms.size(), bitsOf(C));
  for (const auto &[Var, Coef] : Terms)
    H = Mix(Mix(H, Var), bitsOf(Coef));
  // Final avalanche (MurmurHash3 fmix64): probing uses the low bits.
  H ^= H >> 33;
  H *= 0xFF51AFD7ED558CCDull;
  H ^= H >> 33;
  H *= 0xC4CEB9FE1A85EC53ull;
  H ^= H >> 33;
  return H;
}

/// RowBegin/VarIdx are uint32_t; a corpus past ~4.29B rows or non-zeros
/// would silently wrap the offsets and corrupt every row after the
/// overflow point. Compilation checks against this limit and fails with a
/// descriptive error instead. SELDON_TEST_CSR_LIMIT lowers the limit so
/// the guard can be unit-tested without allocating four billion entries.
uint64_t csrIndexLimit() {
  if (const char *Env = std::getenv("SELDON_TEST_CSR_LIMIT")) {
    char *End = nullptr;
    unsigned long long V = std::strtoull(Env, &End, 10);
    if (End != Env && *End == '\0' && V > 0)
      return V;
  }
  return std::numeric_limits<uint32_t>::max();
}

} // namespace

CompiledObjective::CompiledObjective(
    size_t NumVars, const std::vector<LinearConstraint> &Constraints,
    double Lambda)
    : NumVars(NumVars), Lambda(Lambda), Pinned(NumVars, 0),
      PinnedValues(NumVars, 0.0) {
  Stats.RowsBefore = Constraints.size();
  for (const LinearConstraint &LC : Constraints)
    Stats.TermsBefore += LC.Lhs.size() + LC.Rhs.size();
  // Upper bounds (no coalescing, no merged terms): the arrays never
  // reallocate, and capacity past what is written is never touched.
  RowBegin.reserve(Constraints.size() + 1);
  C.reserve(Constraints.size());
  Weight.reserve(Constraints.size());
  VarIdx.reserve(Stats.TermsBefore);
  Coef.reserve(Stats.TermsBefore);

  // Coalesce canonically-identical constraints, keeping survivors in
  // first-occurrence order so the row layout is deterministic and mirrors
  // the legacy constraint order. The index is an open-addressed table
  // with at least twice as many slots as there are constraints (load
  // factor <= 1/2); a slot holds the row's hash tag in its high half and
  // row id + 1 in its low half (0 = empty), and a tag match is confirmed
  // against the row already emitted into the CSR arrays.
  size_t Slots = 16;
  while (Slots < 2 * Constraints.size())
    Slots *= 2;
  std::vector<uint64_t> Table(Slots, 0);
  const uint64_t SlotMask = Slots - 1;
  std::vector<CanonicalTerm> Terms;
  // Exact duplicate test against emitted row \p Row. Bytewise, like the
  // byte-image key it replaces: coefficients and constants compare by
  // their bits, never by floating-point ==.
  auto RowEquals = [&](uint32_t Row, double RowC) {
    const uint32_t Begin = RowBegin[Row], End = RowBegin[Row + 1];
    if (End - Begin != Terms.size() || bitsOf(C[Row]) != bitsOf(RowC))
      return false;
    for (size_t I = 0; I < Terms.size(); ++I)
      if (VarIdx[Begin + I] != Terms[I].first ||
          bitsOf(Coef[Begin + I]) != bitsOf(Terms[I].second))
        return false;
    return true;
  };
  RowBegin.push_back(0);
  const uint64_t IndexLimit = csrIndexLimit();
  // Each constraint's terms live in their own heap blocks; fetching a few
  // constraints ahead hides most of that pointer-chasing latency.
  constexpr size_t PrefetchAhead = 8;
  for (size_t Index = 0; Index < Constraints.size(); ++Index) {
    if (Index + PrefetchAhead < Constraints.size()) {
      const LinearConstraint &Ahead = Constraints[Index + PrefetchAhead];
      __builtin_prefetch(Ahead.Lhs.data());
      __builtin_prefetch(Ahead.Rhs.data());
    }
    const LinearConstraint &LC = Constraints[Index];
    canonicalize(LC, Terms);
#ifndef NDEBUG
    for (const auto &[Var, CoefV] : Terms) {
      (void)CoefV;
      assert(Var < NumVars && "constraint references unknown variable");
    }
#endif
    const uint64_t Hash = hashRow(LC.C, Terms);
    const uint64_t Tag = Hash & 0xFFFFFFFF00000000ull;
    uint64_t Slot = Hash & SlotMask;
    bool Duplicate = false;
    for (; Table[Slot] != 0; Slot = (Slot + 1) & SlotMask) {
      if ((Table[Slot] & 0xFFFFFFFF00000000ull) != Tag)
        continue;
      uint32_t Row = static_cast<uint32_t>(Table[Slot]) - 1;
      if (RowEquals(Row, LC.C)) {
        Weight[Row] += 1.0;
        Duplicate = true;
        break;
      }
    }
    if (Duplicate)
      continue;
    if (static_cast<uint64_t>(C.size()) >= IndexLimit ||
        static_cast<uint64_t>(VarIdx.size()) + Terms.size() > IndexLimit)
      throw std::runtime_error(
          "constraint system overflows the 32-bit CSR layout: " +
          std::to_string(C.size() + 1) + " coalesced rows / " +
          std::to_string(VarIdx.size() + Terms.size()) +
          " non-zeros exceed the index limit of " +
          std::to_string(IndexLimit) +
          "; split the corpus into smaller solves");
    Table[Slot] = Tag | (static_cast<uint64_t>(C.size()) + 1);
    for (const auto &[Var, CoefV] : Terms) {
      VarIdx.push_back(Var);
      Coef.push_back(CoefV);
    }
    RowBegin.push_back(static_cast<uint32_t>(VarIdx.size()));
    Weight.push_back(1.0);
    C.push_back(LC.C);
  }
  Stats.RowsAfter = C.size();
  Stats.NonZeros = VarIdx.size();
  for (double W : Weight)
    Stats.MaxMultiplicity =
        std::max(Stats.MaxMultiplicity, static_cast<size_t>(W));

  // Fixed shard structure: a function of the row count only, so every
  // Jobs setting performs the same floating-point reductions. Same
  // partitioning rule as the legacy Objective.
  size_t N = C.size();
  size_t Size = std::max(MinShardSize, (N + MaxShards - 1) / MaxShards);
  for (size_t Begin = 0; Begin < N; Begin += Size)
    Shards.push_back({Begin, std::min(N, Begin + Size)});
}

CompiledObjective CompiledObjective::compile(const Objective &Obj) {
  CompiledObjective Compiled(Obj.numVars(), Obj.constraints(), Obj.lambda());
  Compiled.Pinned = Obj.pinnedMask();
  Compiled.PinnedValues = Obj.pinnedValues();
  return Compiled;
}

void CompiledObjective::pin(uint32_t Var, double Value) {
  assert(Var < NumVars);
  assert(Value >= 0.0 && Value <= 1.0 && "pinned values must lie in [0,1]");
  Pinned[Var] = 1;
  PinnedValues[Var] = Value;
}

std::vector<double> CompiledObjective::initialPoint() const {
  std::vector<double> X(NumVars, 0.0);
  project(X);
  return X;
}

double CompiledObjective::shardSweep(const Shard &S, const double *X,
                                     double *GradOut) const {
  double Total = 0.0;
  for (size_t R = S.Begin; R < S.End; ++R) {
    const uint32_t Begin = RowBegin[R], End = RowBegin[R + 1];
    double V = -C[R];
    for (uint32_t K = Begin; K < End; ++K)
      V += Coef[K] * X[VarIdx[K]];
    if (V <= 0.0)
      continue; // Satisfied: no loss, subgradient 0.
    const double W = Weight[R];
    Total += W * V;
    if (GradOut)
      for (uint32_t K = Begin; K < End; ++K)
        GradOut[VarIdx[K]] += W * Coef[K];
  }
  return Total;
}

double CompiledObjective::sweep(const std::vector<double> &X,
                                bool WithGradient,
                                std::vector<double> *Grad) const {
  assert(X.size() == NumVars);
  if (WithGradient)
    Grad->assign(NumVars, 0.0);
  if (Shards.empty())
    return 0.0;
  if (Shards.size() == 1)
    return shardSweep(Shards[0], X.data(),
                      WithGradient ? Grad->data() : nullptr);

  ShardHinge.assign(Shards.size(), 0.0);
  if (WithGradient)
    ShardGrad.resize(Shards.size());
  auto RunShard = [&](size_t S, unsigned) {
    double *GradOut = nullptr;
    if (WithGradient) {
      ShardGrad[S].assign(NumVars, 0.0);
      GradOut = ShardGrad[S].data();
    }
    ShardHinge[S] = shardSweep(Shards[S], X.data(), GradOut);
  };
  if (Pool)
    Pool->parallelFor(Shards.size(), RunShard);
  else
    for (size_t S = 0; S < Shards.size(); ++S)
      RunShard(S, 0);

  // Reduce in shard order (deterministic regardless of execution order).
  double Total = 0.0;
  for (double P : ShardHinge)
    Total += P;
  if (!WithGradient)
    return Total;

  // Reduce gradient buffers in shard order. Each variable's sum is an
  // independent fixed-order chain, so the reduction may fan out over
  // variable ranges without changing a single bit of the result.
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

double CompiledObjective::valueAndGradient(const std::vector<double> &X,
                                           std::vector<double> &Grad) const {
  double Total = sweep(X, /*WithGradient=*/true, &Grad);
  // Flat epilogue over the pin mask: pinned variables lose their gradient
  // and carry no L1 term; free variables pick up +λ and λ·x. The L1
  // additions run in ascending variable order after the whole hinge term,
  // matching the legacy value() addition sequence exactly.
  const uint8_t *Pin = Pinned.data();
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

double CompiledObjective::hingeLoss(const std::vector<double> &X) const {
  return sweep(X, /*WithGradient=*/false, nullptr);
}

double CompiledObjective::value(const std::vector<double> &X) const {
  double Total = hingeLoss(X);
  const uint8_t *Pin = Pinned.data();
  for (uint32_t V = 0; V < NumVars; ++V)
    if (!Pin[V])
      Total += Lambda * X[V];
  return Total;
}

void CompiledObjective::gradient(const std::vector<double> &X,
                                 std::vector<double> &Grad) const {
  sweep(X, /*WithGradient=*/true, &Grad);
  const uint8_t *Pin = Pinned.data();
  double *G = Grad.data();
  for (uint32_t V = 0; V < NumVars; ++V) {
    if (Pin[V])
      G[V] = 0.0;
    else
      G[V] += Lambda;
  }
}

void CompiledObjective::project(std::vector<double> &X) const {
  assert(X.size() == NumVars);
  const uint8_t *Pin = Pinned.data();
  for (uint32_t V = 0; V < NumVars; ++V) {
    if (Pin[V])
      X[V] = PinnedValues[V];
    else
      X[V] = std::clamp(X[V], 0.0, 1.0);
  }
}
