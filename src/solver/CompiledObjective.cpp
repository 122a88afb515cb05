//===- solver/CompiledObjective.cpp - Compiled fused solver kernel --------===//

#include "solver/CompiledObjective.h"

#include "support/ThreadPool.h"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>

using namespace seldon;
using namespace seldon::solver;

namespace {

/// One term of a canonical row: (variable, merged coefficient).
using CanonicalTerm = std::pair<uint32_t, double>;

/// Canonicalizes one row into \p Terms (cleared first, capacity reused
/// across rows): folds Rhs into Lhs with negated coefficients, sorts by
/// variable id, merges duplicates by summing their coefficients in double
/// (float + float is exact in double), and drops terms whose merged
/// coefficient cancelled to exactly zero. A -0.0 coefficient is dropped
/// as zero too, so the bytes of the surviving coefficients are a faithful
/// image of their values.
void canonicalize(const ConstraintRef &LC,
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

} // namespace

CompiledObjective::CompiledObjective(
    size_t NumVars, const std::vector<LinearConstraint> &Constraints,
    double Lambda)
    : CompiledObjective(NumVars, ConstraintRows(Constraints), Lambda,
                        nullptr) {}

CompiledObjective::CompiledObjective(size_t NumVars,
                                     const ConstraintRows &Rows,
                                     double Lambda, ThreadPool *Pool)
    : NumVars(NumVars), Lambda(Lambda), Pinned(NumVars, 0),
      PinnedValues(NumVars, 0.0) {
  const size_t NumSource = Rows.size();
  Stats.RowsBefore = NumSource;
  Stats.TermsBefore = Rows.numTerms();
  const std::vector<uint32_t> &SourceBegin = Rows.rowBegin();
  const std::vector<double> &SourceC = Rows.constants();

  // Pass 1, parallel: each row's canonical image, stored at the row's own
  // source term offset (canonicalization never adds terms), and its hash.
  // Rows are independent, so the chunking only spreads the work; chunks
  // are a fixed size, not a function of the thread count.
  // Scratch arrays are left uninitialized: every entry read is written
  // first, and the first touch of their pages happens in the parallel
  // pass instead of a serial zero fill.
  auto CanonVar = std::make_unique_for_overwrite<uint32_t[]>(Stats.TermsBefore);
  auto CanonCoef = std::make_unique_for_overwrite<double[]>(Stats.TermsBefore);
  auto CanonLen = std::make_unique_for_overwrite<uint32_t[]>(NumSource);
  auto Hash = std::make_unique_for_overwrite<uint64_t[]>(NumSource);
  constexpr size_t ChunkRows = 4096;
  auto CanonicalizeChunk = [&](size_t Chunk, unsigned) {
    std::vector<CanonicalTerm> Terms;
    const size_t End = std::min(NumSource, (Chunk + 1) * ChunkRows);
    for (size_t R = Chunk * ChunkRows; R < End; ++R) {
      const ConstraintRef Row = Rows[R];
      canonicalize(Row, Terms);
      const uint32_t At = SourceBegin[R];
      for (size_t I = 0; I < Terms.size(); ++I) {
        assert(Terms[I].first < NumVars &&
               "constraint references unknown variable");
        CanonVar[At + I] = Terms[I].first;
        CanonCoef[At + I] = Terms[I].second;
      }
      CanonLen[R] = static_cast<uint32_t>(Terms.size());
      Hash[R] = hashRow(Row.C, Terms);
    }
  };
  const size_t NumChunks = (NumSource + ChunkRows - 1) / ChunkRows;
  if (Pool)
    Pool->parallelFor(NumChunks, CanonicalizeChunk);
  else
    for (size_t Chunk = 0; Chunk < NumChunks; ++Chunk)
      CanonicalizeChunk(Chunk, 0);

  // Exact duplicate test. Bytewise, like the byte-image key it replaces:
  // coefficients and constants compare by their bits, never by
  // floating-point ==.
  auto SameRow = [&](size_t A, size_t B) {
    const uint32_t Len = CanonLen[A];
    if (CanonLen[B] != Len || bitsOf(SourceC[A]) != bitsOf(SourceC[B]))
      return false;
    if (Len == 0)
      return true;
    const uint32_t AtA = SourceBegin[A], AtB = SourceBegin[B];
    return std::memcmp(CanonVar.get() + AtA, CanonVar.get() + AtB,
                       Len * sizeof(uint32_t)) == 0 &&
           std::memcmp(CanonCoef.get() + AtA, CanonCoef.get() + AtB,
                       Len * sizeof(double)) == 0;
  };

  // Pass 2, parallel: find each row's first occurrence. Equal rows hash
  // equal, so splitting the rows by the top bits of their hash into a
  // fixed number of partitions puts every class of duplicates in one
  // partition. Each partition walks its own rows in row order through an
  // open-addressed table at most half full, whose slots hold a row's hash
  // tag in the high half and its row id + 1 in the low half (0 = empty);
  // a tag match is confirmed with SameRow. The first row of each class
  // is therefore the same one a single serial walk would find, whatever
  // the thread count. A partition's table is a sixteenth of the one a
  // single walk would need, small enough to stay in cache.
  assert(NumSource < UINT32_MAX && "row ids must fit in 32 bits");
  constexpr size_t NumParts = 16;
  auto FirstOf = std::make_unique_for_overwrite<uint32_t[]>(NumSource);
  auto FindFirsts = [&](size_t Part, unsigned) {
    std::vector<uint32_t> Mine;
    for (size_t R = 0; R < NumSource; ++R)
      if ((Hash[R] >> 60) == Part)
        Mine.push_back(static_cast<uint32_t>(R));
    size_t Slots = 16;
    while (Slots < 2 * Mine.size())
      Slots *= 2;
    std::vector<uint64_t> Table(Slots, 0);
    const uint64_t SlotMask = Slots - 1;
    for (uint32_t R : Mine) {
      const uint64_t Tag = Hash[R] & 0xFFFFFFFF00000000ull;
      uint64_t Slot = Hash[R] & SlotMask;
      FirstOf[R] = R;
      for (; Table[Slot] != 0; Slot = (Slot + 1) & SlotMask) {
        if ((Table[Slot] & 0xFFFFFFFF00000000ull) != Tag)
          continue;
        const uint32_t Row = static_cast<uint32_t>(Table[Slot]) - 1;
        if (SameRow(Row, R)) {
          FirstOf[R] = Row;
          break;
        }
      }
      if (FirstOf[R] == R)
        Table[Slot] = Tag | (static_cast<uint64_t>(R) + 1);
    }
  };
  if (Pool)
    Pool->parallelFor(NumParts, FindFirsts);
  else
    for (size_t Part = 0; Part < NumParts; ++Part)
      FindFirsts(Part, 0);

  // Then, serially in row order: each first occurrence becomes the next
  // compiled row, so survivors keep first-occurrence order, and every
  // later occurrence adds one to its compiled row's multiplicity.
  // Source[K] is the first occurrence of compiled row K.
  const uint64_t IndexLimit = indexLimit();
  auto Compiled = std::make_unique_for_overwrite<uint32_t[]>(NumSource);
  std::vector<uint32_t> Source;
  size_t NonZeros = 0;
  for (size_t R = 0; R < NumSource; ++R) {
    if (FirstOf[R] != R) {
      Weight[Compiled[FirstOf[R]]] += 1.0;
      continue;
    }
    if (static_cast<uint64_t>(Source.size()) >= IndexLimit ||
        static_cast<uint64_t>(NonZeros) + CanonLen[R] > IndexLimit)
      throw std::runtime_error(
          "constraint system overflows the 32-bit CSR layout: " +
          std::to_string(Source.size() + 1) + " coalesced rows / " +
          std::to_string(NonZeros + CanonLen[R]) +
          " non-zeros exceed the index limit of " +
          std::to_string(IndexLimit) +
          "; split the corpus into smaller solves");
    Compiled[R] = static_cast<uint32_t>(Source.size());
    Source.push_back(static_cast<uint32_t>(R));
    Weight.push_back(1.0);
    NonZeros += CanonLen[R];
  }

  // Pass 3: the CSR offsets (serial prefix sum), then the survivors'
  // canonical images copied into place in parallel, again over fixed
  // chunks.
  const size_t NumRows = Source.size();
  RowBegin.resize(NumRows + 1);
  RowBegin[0] = 0;
  C.resize(NumRows);
  for (size_t K = 0; K < NumRows; ++K) {
    RowBegin[K + 1] = RowBegin[K] + CanonLen[Source[K]];
    C[K] = SourceC[Source[K]];
  }
  VarIdx.resize(NonZeros);
  Coef.resize(NonZeros);
  auto EmitChunk = [&](size_t Chunk, unsigned) {
    const size_t End = std::min(NumRows, (Chunk + 1) * ChunkRows);
    for (size_t K = Chunk * ChunkRows; K < End; ++K) {
      const uint32_t From = SourceBegin[Source[K]];
      const uint32_t Len = RowBegin[K + 1] - RowBegin[K];
      std::copy_n(CanonVar.get() + From, Len, VarIdx.data() + RowBegin[K]);
      std::copy_n(CanonCoef.get() + From, Len, Coef.data() + RowBegin[K]);
    }
  };
  const size_t NumEmitChunks = (NumRows + ChunkRows - 1) / ChunkRows;
  if (Pool)
    Pool->parallelFor(NumEmitChunks, EmitChunk);
  else
    for (size_t Chunk = 0; Chunk < NumEmitChunks; ++Chunk)
      EmitChunk(Chunk, 0);

  Stats.RowsAfter = NumRows;
  Stats.NonZeros = NonZeros;
  for (double W : Weight)
    Stats.MaxMultiplicity =
        std::max(Stats.MaxMultiplicity, static_cast<size_t>(W));

  // Fixed shard structure: a function of the row count only, so every
  // Jobs setting performs the same floating-point reductions. Same
  // partitioning rule as the legacy Objective.
  size_t N = NumRows;
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
