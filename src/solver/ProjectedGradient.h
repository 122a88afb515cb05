//===- solver/ProjectedGradient.h - Plain projected subgradient --*- C++ -*-===//
//
// Part of seldon-cpp, a reproduction of "Scalable Taint Specification
// Inference with Big Code" (PLDI 2019).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A plain projected-subgradient baseline with 1/sqrt(t) step decay. Used
/// by the optimizer-choice ablation and as a sanity cross-check of Adam:
/// both must converge to the same objective value on convex systems.
///
/// Like AdamOptimizer, the loop drives any objective exposing the fused
/// interface and performs one valueAndGradient evaluation per iteration.
///
//===----------------------------------------------------------------------===//

#ifndef SELDON_SOLVER_PROJECTEDGRADIENT_H
#define SELDON_SOLVER_PROJECTEDGRADIENT_H

#include "solver/Objective.h"

namespace seldon {
namespace solver {

/// Projected subgradient descent with diminishing steps, over
/// SimdObjective, CompiledObjective or Objective (explicitly instantiated
/// in ProjectedGradient.cpp).
class ProjectedGradient {
public:
  explicit ProjectedGradient(SolveOptions Options = SolveOptions())
      : Options(Options) {}

  /// Minimizes \p Obj starting from Obj.initialPoint().
  template <class ObjT> SolveResult minimize(const ObjT &Obj) const;

  /// Minimizes starting from \p X0 (projected first).
  template <class ObjT>
  SolveResult minimize(const ObjT &Obj, std::vector<double> X0) const;

private:
  SolveOptions Options;
};

} // namespace solver
} // namespace seldon

#endif // SELDON_SOLVER_PROJECTEDGRADIENT_H
