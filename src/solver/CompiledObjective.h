//===- solver/CompiledObjective.h - Compiled fused solver kernel -*- C++ -*-===//
//
// Part of seldon-cpp, a reproduction of "Scalable Taint Specification
// Inference with Big Code" (PLDI 2019).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The constraint compilation pass: lowers the flat row store of a
/// generated system (solver/ConstraintRows.h) into an immutable, flat,
/// duplicate-coalesced form with a fused single-pass value+gradient
/// kernel.
///
/// Compilation performs three lowerings:
///
///  1. **Canonicalization.** Each constraint Σ Lhs ≤ Σ Rhs + C becomes one
///     row Σ c_i·x_i ≤ C: Rhs terms move to the Lhs with negated
///     coefficients, terms are sorted by variable id, duplicate variables
///     are merged by summing coefficients (in double precision — the sum
///     of the original float coefficients is exact), and exact-zero
///     coefficients are dropped.
///
///  2. **Coalescing.** Big-code corpora instantiate the same (rep, role)
///     inequality thousands of times across files; canonically-identical
///     rows (equal constant and coefficients, bit for bit) collapse into
///     one row with an integer multiplicity. This is exact: K identical
///     hinges sum to K · max(0, V). Duplicates are found through an
///     open-addressed hash table of row ids, with no per-row allocation.
///     Canonicalization and hashing run over fixed row chunks on the
///     thread pool, and so does the search for each row's first
///     occurrence, over fixed hash partitions; compiled row ids are then
///     assigned by one serial walk in row order, so the result does not
///     depend on the thread count.
///
///  3. **CSR layout.** Survivors are stored in flat RowBegin / VarIdx /
///     Coef / Weight / C arrays — no per-constraint heap vectors, one
///     contiguous streaming pass per sweep.
///
/// The fused kernel valueAndGradient() computes the objective value and a
/// subgradient in a single constraint sweep (the legacy `Objective` needs
/// one sweep for each). Rows are sharded exactly like the legacy class —
/// the shard structure depends only on the row count, never the thread
/// count — and shard partials are reduced in shard order, so results are
/// bit-identical for every Jobs setting. Pins and the L1 term are applied
/// in a flat epilogue over a `uint8_t` mask.
///
/// See docs/architecture.md ("The compiled solver kernel") for why the
/// learned specification stays byte-identical to the legacy path.
///
//===----------------------------------------------------------------------===//

#ifndef SELDON_SOLVER_COMPILEDOBJECTIVE_H
#define SELDON_SOLVER_COMPILEDOBJECTIVE_H

#include "solver/ConstraintRows.h"
#include "solver/Objective.h"

#include <cstdint>
#include <vector>

namespace seldon {

class ThreadPool;

namespace solver {

/// What the compilation pass did to the constraint system.
struct CompileStats {
  /// Constraints in the source system.
  size_t RowsBefore = 0;
  /// Rows surviving duplicate coalescing.
  size_t RowsAfter = 0;
  /// Terms (Lhs + Rhs) in the source system.
  size_t TermsBefore = 0;
  /// CSR entries after folding, merging, and coalescing.
  size_t NonZeros = 0;
  /// Largest multiplicity any coalesced row carries.
  size_t MaxMultiplicity = 0;

  /// Constraint-sweep traffic saved by coalescing: RowsBefore / RowsAfter.
  double dedupRatio() const {
    return RowsAfter == 0 ? 1.0
                          : static_cast<double>(RowsBefore) /
                                static_cast<double>(RowsAfter);
  }
};

/// The relaxed objective of paper Eq. (9) over a compiled constraint
/// system. Immutable row data; same semantics as `Objective`, evaluated by
/// a fused single-sweep kernel. SimdObjective builds its blocked layout on
/// top of this class; on its own it is the bitwise reference the tests
/// and bench/solver_kernel compare the blocked kernel against at
/// arbitrary points.
class CompiledObjective {
public:
  /// Compiles \p Rows (not retained) into CSR form, on \p Pool when
  /// non-null. The arrays are the same for every thread count.
  CompiledObjective(size_t NumVars, const ConstraintRows &Rows,
                    double Lambda, ThreadPool *Pool);

  /// Flattens \p Constraints and compiles them like the constructor
  /// above (the tests' and the legacy oracle's input).
  CompiledObjective(size_t NumVars,
                    const std::vector<LinearConstraint> &Constraints,
                    double Lambda);

  /// Compiles an existing legacy objective, copying its pins; the tests
  /// and benches use this to compare both evaluators on one system.
  static CompiledObjective compile(const Objective &Obj);

  /// Evaluates sweeps on \p Pool (one task per shard); null reverts to
  /// serial execution with identical arithmetic. The pool must outlive
  /// the objective (or be reset to null first).
  void setThreadPool(ThreadPool *Pool) { this->Pool = Pool; }

  /// Pins variable \p Var to \p Value (seed labels). Pinned variables are
  /// reset by project() and carry no L1 penalty and no gradient.
  void pin(uint32_t Var, double Value);

  /// A feasible starting point: all zeros, pinned values applied.
  std::vector<double> initialPoint() const;

  /// The fused kernel: writes a subgradient into \p Grad
  /// (resized/zeroed) and returns the full objective value — hinge loss
  /// plus λ · Σ free x_v — in one constraint sweep.
  double valueAndGradient(const std::vector<double> &X,
                          std::vector<double> &Grad) const;

  /// Σ_r Weight_r · max(Σ c_i·x_i − C_r, 0).
  double hingeLoss(const std::vector<double> &X) const;

  /// Full objective: hinge loss + λ · Σ free x_v.
  double value(const std::vector<double> &X) const;

  /// Subgradient only (one sweep; prefer valueAndGradient in loops).
  void gradient(const std::vector<double> &X,
                std::vector<double> &Grad) const;

  /// Projects \p X onto the feasible set: clamps to [0, 1] and restores
  /// pinned values.
  void project(std::vector<double> &X) const;

  size_t numVars() const { return NumVars; }
  size_t numRows() const { return C.size(); }
  size_t numNonZeros() const { return VarIdx.size(); }
  double lambda() const { return Lambda; }
  bool isPinned(uint32_t Var) const { return Pinned[Var] != 0; }
  double pinnedValue(uint32_t Var) const { return PinnedValues[Var]; }
  const CompileStats &stats() const { return Stats; }
  size_t numShards() const { return Shards.size(); }

  /// Read-only views of the compiled CSR arrays and pin state. The SIMD
  /// kernel builds its blocked layout from these rows and keeps this
  /// exact layout for its original-order gradient epilogue.
  const std::vector<uint32_t> &rowBegin() const { return RowBegin; }
  const std::vector<uint32_t> &varIdx() const { return VarIdx; }
  const std::vector<double> &coef() const { return Coef; }
  const std::vector<double> &weight() const { return Weight; }
  const std::vector<double> &rowConstant() const { return C; }
  const std::vector<uint8_t> &pinnedMask() const { return Pinned; }
  const std::vector<double> &pinnedValues() const { return PinnedValues; }

private:
  /// Half-open row range [Begin, End) accumulated serially.
  struct Shard {
    size_t Begin = 0;
    size_t End = 0;
  };

  /// Streams shard \p S once: returns its weighted hinge loss and, when
  /// \p GradOut is non-null, adds the weighted hinge subgradient into it.
  double shardSweep(const Shard &S, const double *X, double *GradOut) const;

  /// Runs the sweep over all shards (on the pool when set) and reduces
  /// hinge partials in shard order; per-shard gradients land in ShardGrad
  /// when \p WithGradient is set and more than one shard exists.
  double sweep(const std::vector<double> &X, bool WithGradient,
               std::vector<double> *Grad) const;

  size_t NumVars;
  double Lambda;

  /// CSR rows: row R spans [RowBegin[R], RowBegin[R + 1]) in VarIdx/Coef.
  std::vector<uint32_t> RowBegin;
  std::vector<uint32_t> VarIdx;
  std::vector<double> Coef;
  /// Integer multiplicity of each coalesced row (kept as double so the
  /// kernel never converts).
  std::vector<double> Weight;
  /// Row constants (the C of Σ c_i·x_i ≤ C).
  std::vector<double> C;

  /// Flat pin mask (1 = pinned) and the pinned values.
  std::vector<uint8_t> Pinned;
  std::vector<double> PinnedValues;

  CompileStats Stats;

  std::vector<Shard> Shards;
  ThreadPool *Pool = nullptr;
  /// Per-shard reduction buffers, reused across iterations (only
  /// allocated when more than one shard exists).
  mutable std::vector<std::vector<double>> ShardGrad;
  mutable std::vector<double> ShardHinge;
};

} // namespace solver
} // namespace seldon

#endif // SELDON_SOLVER_COMPILEDOBJECTIVE_H
