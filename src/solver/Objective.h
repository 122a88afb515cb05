//===- solver/Objective.h - Relaxed constraint-system objective --*- C++ -*-===//
//
// Part of seldon-cpp, a reproduction of "Scalable Taint Specification
// Inference with Big Code" (PLDI 2019).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The relaxed linear optimization problem of paper §4.4, Eq. (9):
///
///   min  Σ_i max(L_i − R_i, 0)  +  λ · Σ_v x_v
///   s.t. 0 ≤ x_v ≤ 1            (Eq. 10, enforced by projection)
///        x_v = c_v for pinned v (Eq. 11, the seed specification)
///
/// Each soft constraint states Σ lhs ≤ Σ rhs + C; its violation
/// max(Σ lhs − Σ rhs − C, 0) is hinge-shaped, so the objective is convex
/// and a subgradient method converges.
///
//===----------------------------------------------------------------------===//

#ifndef SELDON_SOLVER_OBJECTIVE_H
#define SELDON_SOLVER_OBJECTIVE_H

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace seldon {

class ThreadPool;

namespace solver {

/// Shard partitioning rule, shared by Objective and CompiledObjective:
/// shards smaller than MinShardSize are not worth a task dispatch; the cap
/// bounds the per-shard gradient buffers (MaxShards * NumVars doubles).
constexpr size_t MinShardSize = 1024;
constexpr size_t MaxShards = 32;

/// One weighted variable occurrence.
struct Term {
  uint32_t Var = 0;
  float Coef = 1.0f;
};

/// A soft constraint: Σ Lhs ≤ Σ Rhs + C.
struct LinearConstraint {
  std::vector<Term> Lhs;
  std::vector<Term> Rhs;
  double C = 0.0;
};

/// The relaxed objective over a fixed constraint system, evaluated
/// straight from the constraint list. This is the legacy reference
/// evaluator: production solves run on SimdObjective, and the tests and
/// bench/solver_kernel keep this class as the grid-exact oracle for the
/// compilation pass (canonicalization and coalescing).
///
/// Constraints are partitioned into fixed-size shards at construction.
/// hingeLoss() and gradient() accumulate each shard serially into its own
/// buffer and reduce the buffers in shard order, so the floating-point
/// result is bit-identical whether shards run on one thread or many: the
/// shard structure depends only on the constraint count, never on the
/// thread count.
class Objective {
public:
  Objective(size_t NumVars, std::vector<LinearConstraint> Constraints,
            double Lambda);

  /// Evaluates hinge loss and gradients on \p Pool (one task per shard).
  /// Null reverts to serial execution; either way the arithmetic — and
  /// therefore the optimizer trajectory — is identical. The pool must
  /// outlive the objective (or be reset to null first).
  void setThreadPool(ThreadPool *Pool) { this->Pool = Pool; }

  /// Pins variable \p Var to \p Value (seed labels). Pinned variables are
  /// reset to their value by project() and carry no L1 penalty.
  void pin(uint32_t Var, double Value);

  /// A feasible starting point: all zeros, pinned values applied.
  std::vector<double> initialPoint() const;

  /// Σ_i max(L_i − R_i − C_i, 0).
  double hingeLoss(const std::vector<double> &X) const;

  /// Full objective: hinge loss + λ · Σ free x_v.
  double value(const std::vector<double> &X) const;

  /// Writes a subgradient of the objective into \p Grad (resized/zeroed).
  /// Pinned variables receive gradient 0.
  void gradient(const std::vector<double> &X, std::vector<double> &Grad) const;

  /// Reference evaluator for the optimizer's fused interface: gradient()
  /// followed by value() — two constraint sweeps, bit-identical to calling
  /// them separately. CompiledObjective fuses the same quantities into one
  /// sweep.
  double valueAndGradient(const std::vector<double> &X,
                          std::vector<double> &Grad) const {
    gradient(X, Grad);
    return value(X);
  }

  /// Projects \p X onto the feasible set: clamps to [0, 1] and restores
  /// pinned values.
  void project(std::vector<double> &X) const;

  size_t numVars() const { return NumVars; }
  size_t numConstraints() const { return Constraints.size(); }
  double lambda() const { return Lambda; }
  bool isPinned(uint32_t Var) const { return Pinned[Var] != 0; }
  double pinnedValue(uint32_t Var) const { return PinnedValues[Var]; }

  /// The source constraints and pin state, exposed for the compilation
  /// pass (CompiledObjective::compile).
  const std::vector<LinearConstraint> &constraints() const {
    return Constraints;
  }
  const std::vector<uint8_t> &pinnedMask() const { return Pinned; }
  const std::vector<double> &pinnedValues() const { return PinnedValues; }

  size_t numShards() const { return Shards.size(); }

private:
  /// Half-open constraint range [Begin, End) accumulated serially.
  struct Shard {
    size_t Begin = 0;
    size_t End = 0;
  };

  /// Adds the hinge subgradient of shard \p S into \p Out (not zeroed).
  void shardGradient(const Shard &S, const std::vector<double> &X,
                     std::vector<double> &Out) const;
  /// Hinge loss of shard \p S.
  double shardHingeLoss(const Shard &S, const std::vector<double> &X) const;

  size_t NumVars;
  std::vector<LinearConstraint> Constraints;
  double Lambda;
  /// Flat pin mask (1 = pinned): a byte load in the project()/gradient()
  /// hot loops instead of std::vector<bool> bit extraction.
  std::vector<uint8_t> Pinned;
  std::vector<double> PinnedValues;

  std::vector<Shard> Shards;
  ThreadPool *Pool = nullptr;
  /// Per-shard gradient buffers, reused across iterations (only allocated
  /// when more than one shard exists).
  mutable std::vector<std::vector<double>> ShardGrad;
};

/// Kept only because the benchmark tool in perfbench/tool sets
/// `SolveOptions::Backend` and must keep compiling. Session::solve always
/// evaluates on the blocked SimdObjective kernel; nothing reads this.
enum class SolverBackend {
  Compiled,
};

/// Default for SolveOptions::Patience. On generated corpora of 300 and
/// 1200 projects the best iterate of a 600-iteration solve stopped
/// improving by iteration 140, and no two consecutive improvements were
/// more than 38 iterations apart; 100 leaves a wide margin over that gap.
constexpr int DefaultPatience = 100;

/// Session::solve applies the patience stop only to systems with at least
/// this many coalesced rows. Below it, Adam's best iterate keeps improving
/// in rare late dips for the whole budget: with patience 100 against a
/// full 600-iteration reference, about half of 60-project corpora (~6k
/// rows) and a quarter of 90-project ones (~11k) ended on a different
/// point, and one of 60 150-project corpora (~22k) did; none of the 82
/// measured corpora of 175 projects (~26k rows) or more did. Solves below
/// the threshold are cheap, so they keep the full budget.
constexpr size_t MinPatienceRows = 25000;

/// Shared optimizer knobs and results.
struct SolveOptions {
  /// Iteration cap. AdamOptimizer may stop earlier (see Patience).
  int MaxIterations = 500;
  double LearningRate = 0.05;
  /// Stationarity threshold. AdamOptimizer stops once the max-norm of a
  /// projected gradient step, |P(X − LearningRate·∇) − X|∞, falls below
  /// it; ProjectedGradient stops once two successive objective values
  /// differ by less. Both stop with StopReason::Stationary. A hinge
  /// subgradient rarely gets that small away from the box boundary, so on
  /// real corpora AdamOptimizer's stop is Patience, not this test.
  double Tolerance = 1e-7;
  /// AdamOptimizer stops with StopReason::Patience once the best iterate
  /// has not improved for this many consecutive iterations. The returned
  /// point is the best iterate either way, so a stop that comes after the
  /// last improvement a full-budget run would make returns the same X bit
  /// for bit. 0 disables the rule (full-budget reference solves in tests
  /// and benches); Session::solve also sets 0 for systems below
  /// MinPatienceRows. ProjectedGradient ignores it.
  int Patience = DefaultPatience;
  /// Adam moment decay rates.
  double Beta1 = 0.9;
  double Beta2 = 0.999;
  double Epsilon = 1e-8;
  /// Wall-clock budget for the whole minimize() call; 0 is unlimited.
  /// Checked cooperatively once per iteration: an expired budget stops the
  /// loop and returns the best iterate so far with StopReason::Deadline —
  /// partial and flagged, never a hang.
  double BudgetSeconds = 0.0;
  /// Bound on the non-finite recovery ladder (see docs/architecture.md
  /// "Failure discipline"): each recovery reverts to the best finite
  /// iterate, resets the Adam moments, and halves the step scale. Once
  /// exhausted the solve falls back to best-so-far with
  /// StopReason::FellBack.
  int MaxRecoveries = 8;
  /// Cooperative cancellation, polled once per iteration (run-level
  /// deadline). Returning true stops the loop like an expired budget.
  std::function<bool()> ShouldStop;
  /// Invoked after every completed iteration with (iteration, current
  /// objective value). Called from the optimizing thread; must not mutate
  /// the objective. Never invoked with a non-finite objective value —
  /// poisoned evaluations are rolled back before any callback fires.
  std::function<void(int Iteration, double Objective)> OnIteration;
  /// Warm-start point: the previous solve's scores mapped onto the current
  /// variable ids, with new variables pre-filled with the cold init (the
  /// caller builds this from a spec::LearnedSpec — see Session::solve).
  /// Used by minimize(Obj) when its size matches the objective's variable
  /// count; the point is projected before the first iteration. Empty (the
  /// default) keeps the exact cold start from Obj.initialPoint().
  std::vector<double> WarmStart;
  /// Unused; kept only for the benchmark tool (see SolverBackend).
  SolverBackend Backend = SolverBackend::Compiled;
};

/// Why a minimize() call stopped. The numeric values are the
/// `solve.stop_reason` gauge and the seldond snapshot's stop byte.
enum class StopReason : uint8_t {
  Stationary = 0, ///< The stationarity test fired (see Tolerance).
  Patience = 1,   ///< No best-iterate improvement for Patience iterations.
  MaxIters = 2,   ///< Ran the full MaxIterations cap.
  Deadline = 3,   ///< BudgetSeconds or ShouldStop ended the loop.
  FellBack = 4,   ///< The non-finite recovery ladder ran dry.
};

/// The largest StopReason value (decoders reject anything above it).
constexpr uint8_t MaxStopReason = static_cast<uint8_t>(StopReason::FellBack);

/// Printable name: stationary | patience | max_iters | deadline | fell_back.
const char *stopReasonName(StopReason Reason);

struct SolveResult {
  std::vector<double> X;
  double FinalObjective = 0.0;
  int Iterations = 0;
  /// The iteration that last improved the best objective value (0 = the
  /// starting point). X is that iterate, unless the final iterate ties
  /// its value, in which case X is the final iterate.
  int BestIteration = 0;
  StopReason Stop = StopReason::MaxIters;

  /// Evaluations whose objective value or gradient came back non-finite
  /// (NaN/Inf). Zero on a healthy run — the guards never change the
  /// trajectory of a finite solve.
  int NonFiniteSteps = 0;
  /// Recovery-ladder rungs taken (revert + moment reset + step backoff)
  /// that produced a finite re-evaluation.
  int Recoveries = 0;

  /// The ladder ran dry: the result is the best finite iterate seen (or
  /// the projected initial point when nothing ever evaluated finite).
  bool fellBack() const { return Stop == StopReason::FellBack; }
  /// BudgetSeconds or ShouldStop ended the loop early.
  bool deadlineExpired() const { return Stop == StopReason::Deadline; }
};

} // namespace solver
} // namespace seldon

#endif // SELDON_SOLVER_OBJECTIVE_H
