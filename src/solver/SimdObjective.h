//===- solver/SimdObjective.h - Blocked SIMD solver kernel -------*- C++ -*-===//
//
// Part of seldon-cpp, a reproduction of "Scalable Taint Specification
// Inference with Big Code" (PLDI 2019).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The production solver kernel: a blocked, row-length-sorted re-layout of
/// the compiled CSR rows with explicit AVX-512/AVX2 value sweeps
/// (dispatched from CPUID at construction, with a bit-identical scalar
/// fallback). `Session::solve` evaluates every solve on it.
///
/// The layout vectorizes **across rows** (a SELL-C-style sliced format):
/// within each shard, rows are stably sorted by descending length and packed
/// into blocks of `Lanes` rows (4 under AVX2 and the scalar tier, 8 under
/// AVX-512). A block stores its coefficients lane-interleaved — entry
/// (j, lane) at `Off + j·Lanes + lane` — so one vector load per j advances
/// every lane's dot product by one term.
/// Short lanes are padded with (VarIdx 0, Coef 0.0) entries.
///
/// Why this is byte-identical to `CompiledObjective`:
///
///  * Each lane accumulates **its own row's** terms in the original CSR
///    order, `Acc = Acc + Coef·X` per step. A vector add/mul rounds each
///    lane independently, exactly like the scalar loop — the accumulation
///    chain per row is the same sequence of IEEE operations. FMA is never
///    used (it would skip the intermediate rounding of the product).
///  * Padding appends `+ 0.0·X[0]` terms, which cannot change a finite
///    lane value (projection keeps X in [0, 1], so the product is +0.0 and
///    v + 0.0 == v for every finite v except -0.0 — and a row value of
///    ±0.0 is on the satisfied side of the `V <= 0` test either way).
///  * The value pass also forms each row's weighted hinge
///    `H = Weight · max(V, 0)` — `max` then a separate multiply, the same
///    two IEEE operations the compiled row loop performs, rounded per
///    lane exactly like scalar code. `H > 0` iff `V > 0` (weights are
///    ≥ 1), so H alone drives the epilogue.
///  * The hinge total and the gradient scatter run in an epilogue over
///    the **original row order**, reading the per-row values the vector
///    pass stored. Under AVX-512 the violated rows are first compacted
///    with an order-preserving masked compress (`H > 0`, branch-free);
///    either way the total accumulates the same H values in the same
///    ascending-row sequence as the compiled kernel (skipping exact
///    zeros), and the scatter adds precomputed `Weight · Coef` products
///    (contiguous, original CSR order) — products formed with the same
///    scalar multiply the compiled kernel issues per term, hitting the
///    same variables in the same order, so the gradient is bit-identical.
///    Shard partitioning and shard-order reduction mirror
///    `CompiledObjective::sweep`, so every Jobs setting and every kernel
///    tier (AVX-512, AVX2, scalar) produce bit-identical results.
///
//===----------------------------------------------------------------------===//

#ifndef SELDON_SOLVER_SIMDOBJECTIVE_H
#define SELDON_SOLVER_SIMDOBJECTIVE_H

#include "solver/CompiledObjective.h"

#include <cstdint>
#include <vector>

namespace seldon {

class ThreadPool;

namespace solver {

/// The kernel tier a SimdObjective dispatched to at construction. The
/// numeric values are the `solver.simd_tier` gauge and the seldond
/// `learn` response's "simd_tier".
enum class SimdTier : uint8_t {
  Scalar = 0, ///< Portable loops (non-x86 hosts, or SELDON_SIMD=off).
  Avx2 = 1,   ///< 4-lane AVX2 kernels (or SELDON_SIMD=avx2).
  Avx512 = 2, ///< 8-lane AVX-512F+VL kernels.
};

/// Display name of \p Tier: scalar | avx2 | avx512.
const char *simdTierName(SimdTier Tier);

/// The relaxed objective of paper Eq. (9) evaluated by a blocked SIMD
/// kernel. Same interface and semantics as `CompiledObjective`, and
/// bit-identical to it on every input.
class SimdObjective {
public:
  SimdObjective(size_t NumVars,
                const std::vector<LinearConstraint> &Constraints,
                double Lambda);

  /// Compiles an existing legacy objective, copying its pins.
  static SimdObjective compile(const Objective &Obj);

  /// Evaluates sweeps on \p Pool (one task per shard); null reverts to
  /// serial execution with identical arithmetic. The pool must outlive
  /// the objective (or be reset to null first).
  void setThreadPool(ThreadPool *Pool) { this->Pool = Pool; }

  /// Pins variable \p Var to \p Value (seed labels).
  void pin(uint32_t Var, double Value) { Inner.pin(Var, Value); }

  /// A feasible starting point: all zeros, pinned values applied.
  std::vector<double> initialPoint() const { return Inner.initialPoint(); }

  /// The fused kernel: one blocked value sweep plus a scalar epilogue;
  /// writes a subgradient into \p Grad (resized/zeroed) and returns the
  /// full objective value.
  double valueAndGradient(const std::vector<double> &X,
                          std::vector<double> &Grad) const;

  /// Σ_r Weight_r · max(Σ c_i·x_i − C_r, 0).
  double hingeLoss(const std::vector<double> &X) const;

  /// Full objective: hinge loss + λ · Σ free x_v.
  double value(const std::vector<double> &X) const;

  /// Subgradient only (prefer valueAndGradient in loops).
  void gradient(const std::vector<double> &X,
                std::vector<double> &Grad) const;

  /// Projects \p X onto the feasible set.
  void project(std::vector<double> &X) const { Inner.project(X); }

  size_t numVars() const { return Inner.numVars(); }
  size_t numRows() const { return Inner.numRows(); }
  size_t numNonZeros() const { return Inner.numNonZeros(); }
  double lambda() const { return Inner.lambda(); }
  bool isPinned(uint32_t Var) const { return Inner.isPinned(Var); }
  double pinnedValue(uint32_t Var) const { return Inner.pinnedValue(Var); }
  const CompileStats &stats() const { return Inner.stats(); }
  size_t numShards() const { return Shards.size(); }

  /// Number of row blocks in the sliced layout (tests/diagnostics).
  size_t numBlocks() const { return BlockWidth.size(); }
  /// Rows per block in the active layout (depends on the dispatched
  /// kernel tier).
  size_t lanesPerBlock() const { return lanes(); }
  /// Padded entries the blocking added on top of numNonZeros().
  size_t paddedEntries() const { return BIdx.size() - Inner.numNonZeros(); }

  /// The kernel tier selected at construction: the widest the host
  /// supports, unless the SELDON_SIMD test/diagnostic override caps it.
  SimdTier tier() const { return Tier; }
  /// Host/override check: AVX2 available and not disabled via
  /// SELDON_SIMD=off|0|scalar. Evaluated per construction.
  static bool simdSupported();
  /// Host/override check for the AVX-512 tier; SELDON_SIMD=avx2 caps the
  /// dispatch at the AVX2 kernels.
  static bool avx512Supported();

  /// The compiled objective this layout was derived from (reference path
  /// for tests; also owns pins and projection).
  const CompiledObjective &inner() const { return Inner; }

private:
  /// Row range [Begin, End) and its block range [BlockBegin, BlockEnd).
  struct Shard {
    size_t Begin = 0;
    size_t End = 0;
    size_t BlockBegin = 0;
    size_t BlockEnd = 0;
  };

  size_t lanes() const { return Tier == SimdTier::Avx512 ? 8 : 4; }

  /// Builds the sliced layout (shards, blocks, interleaved arrays).
  void buildBlocks();

  /// Runs the blocked value pass for one shard, storing each row's
  /// weighted hinge into RowHinge, indexed by original row.
  void valuePass(const Shard &S, const double *X) const;

  /// Scalar pass in original row order over [Begin, End): hinge total
  /// and (when \p GradOut is non-null) gradient scatter from the blocked
  /// Weight·Coef products.
  double shardEpilogue(size_t Begin, size_t End, double *GradOut) const;

  /// Sweep over all shards; mirrors CompiledObjective::sweep reductions.
  double sweep(const std::vector<double> &X, bool WithGradient,
               std::vector<double> *Grad) const;

  CompiledObjective Inner;
  SimdTier Tier;

  /// Sliced layout. Block b covers lanes BlockRows[b·Lanes .. +Lanes)
  /// (Sentinel = numRows marks a padding lane), has width BlockWidth[b]
  /// and data at BlockOff[b], lane-interleaved.
  std::vector<size_t> BlockOff;
  std::vector<uint32_t> BlockWidth;
  std::vector<uint32_t> BlockRows;
  std::vector<uint32_t> BIdx;
  std::vector<double> BVal;  ///< Coefficients.
  std::vector<double> BNegC; ///< −C per lane.
  std::vector<double> BW;    ///< Weight per lane.
  /// Precomputed Weight·Coef per CSR entry (contiguous in the inner
  /// CompiledObjective's term order): the gradient scatter's operands,
  /// bit-identical to the compiled kernel's per-term scalar products.
  std::vector<double> SWC;

  std::vector<Shard> Shards;
  ThreadPool *Pool = nullptr;

  /// Per-row results of the value pass (original row index): the
  /// weighted hinge Weight·max(V, 0).
  mutable std::vector<double> RowHinge;
  /// Violated-row compaction scratch for the AVX-512 epilogue; each
  /// shard writes only its own [Begin, End) subrange, so parallel sweeps
  /// never share a region.
  mutable std::vector<uint32_t> RScratch;
  mutable std::vector<double> HScratch;
  /// Per-shard reduction buffers (only used with more than one shard).
  mutable std::vector<std::vector<double>> ShardGrad;
  mutable std::vector<double> ShardHinge;
};

} // namespace solver
} // namespace seldon

#endif // SELDON_SOLVER_SIMDOBJECTIVE_H
