//===- solver/ProjectedGradient.cpp - Plain projected subgradient ---------===//

#include "solver/ProjectedGradient.h"

#include "solver/CompiledObjective.h"
#include "solver/NumericGuard.h"
#include "solver/SimdObjective.h"
#include "solver/SolveTelemetry.h"
#include "support/Timer.h"

#include <cmath>

using namespace seldon;
using namespace seldon::solver;

template <class ObjT>
SolveResult ProjectedGradient::minimize(const ObjT &Obj) const {
  // Same contract as AdamOptimizer: a size-mismatched warm-start point is
  // ignored in favor of the exact cold start.
  if (!Options.WarmStart.empty() &&
      Options.WarmStart.size() == Obj.numVars())
    return minimize(Obj, Options.WarmStart);
  return minimize(Obj, Obj.initialPoint());
}

template <class ObjT>
SolveResult ProjectedGradient::minimize(const ObjT &Obj,
                                        std::vector<double> X0) const {
  SolveResult Result;
  Result.X = std::move(X0);
  Obj.project(Result.X);

  std::vector<double> Grad;
  SolveTelemetry Telemetry;
  Timer Budget;
  // The fused call at the start of each step doubles as the value check of
  // the previous one: a single constraint sweep per iteration.
  double Value = guardedEval(Obj, Result.X, Grad, 0);
  std::vector<double> Best = Result.X;
  double BestValue = Value;
  double PrevValue = Value;
  // 1.0 on a healthy run (1.0 * Step is bit-exact); halved per recovery.
  double StepScale = 1.0;

  // Non-finite recovery ladder (same discipline as AdamOptimizer, minus
  // the moment reset — plain subgradient descent carries no momentum):
  // revert to the best finite iterate, halve the step scale, re-evaluate.
  auto Recover = [&](int Iter) -> bool {
    ++Result.NonFiniteSteps;
    if (!std::isfinite(BestValue)) {
      BestValue = std::numeric_limits<double>::infinity();
      PrevValue = BestValue; // Never spuriously "converge" onto a NaN.
    }
    while (Result.Recoveries < Options.MaxRecoveries) {
      ++Result.Recoveries;
      Result.X = Best;
      StepScale *= 0.5;
      double Revived = guardedEval(Obj, Result.X, Grad, Iter);
      if (allFinite(Revived, Grad)) {
        PrevValue = Revived;
        return true;
      }
      ++Result.NonFiniteSteps;
    }
    Result.FellBack = true;
    return false;
  };

  if (!allFinite(Value, Grad) && !Recover(0)) {
    Result.FinalObjective = 0.0; // Projected start; nothing finite seen.
    return Result;
  }

  for (int Iter = 1; Iter <= Options.MaxIterations; ++Iter) {
    if ((Options.ShouldStop && Options.ShouldStop()) ||
        (Options.BudgetSeconds > 0 &&
         Budget.seconds() >= Options.BudgetSeconds)) {
      Result.DeadlineExpired = true;
      break;
    }
    double Step = StepScale * (Options.LearningRate /
                               std::sqrt(static_cast<double>(Iter)));
    for (size_t I = 0; I < Grad.size(); ++I)
      Result.X[I] -= Step * Grad[I];
    Obj.project(Result.X);

    double Current = guardedEval(Obj, Result.X, Grad, Iter);
    Result.Iterations = Iter;
    if (!allFinite(Current, Grad)) {
      // Roll back before any telemetry or callback sees the poisoned
      // evaluation; a recovered iteration resumes from the best iterate.
      if (!Recover(Iter))
        break;
      continue;
    }
    // Subgradient steps are not monotone; track the best iterate.
    if (Current < BestValue) {
      BestValue = Current;
      Best = Result.X;
      Telemetry.onBestUpdate();
    }
    Telemetry.onIteration(Iter, Current, Grad);
    if (Options.OnIteration)
      Options.OnIteration(Iter, Current);
    if (std::abs(PrevValue - Current) < Options.Tolerance) {
      Result.Converged = true;
      break;
    }
    PrevValue = Current;
  }
  Result.X = std::move(Best);
  Result.FinalObjective = BestValue;
  if (!std::isfinite(Result.FinalObjective))
    Result.FinalObjective = 0.0; // Nothing finite past the start (FellBack).
  return Result;
}

namespace seldon {
namespace solver {

template SolveResult ProjectedGradient::minimize<Objective>(const Objective &)
    const;
template SolveResult
ProjectedGradient::minimize<Objective>(const Objective &,
                                       std::vector<double>) const;
template SolveResult ProjectedGradient::minimize<CompiledObjective>(
    const CompiledObjective &) const;
template SolveResult
ProjectedGradient::minimize<SimdObjective>(const SimdObjective &) const;

} // namespace solver
} // namespace seldon
