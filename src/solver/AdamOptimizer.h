//===- solver/AdamOptimizer.h - Projected Adam descent -----------*- C++ -*-===//
//
// Part of seldon-cpp, a reproduction of "Scalable Taint Specification
// Inference with Big Code" (PLDI 2019).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Projected Adam (Kingma & Ba 2014), the optimizer the paper uses through
/// TensorFlow (§4.4): full-batch subgradient steps with first/second moment
/// estimates and bias correction, projecting onto [0,1] (and the pinned
/// seed values) after every step.
///
/// The loop drives any objective exposing the fused interface
/// (numVars / project / initialPoint / valueAndGradient) and needs exactly
/// one valueAndGradient evaluation per iteration: the objective value, the
/// stationarity probe, best-iterate tracking, and the progress callback all
/// derive from that single call. Production solves run it over the blocked
/// SimdObjective (one constraint sweep per iteration); the tests also run
/// it over the two reference evaluators — CompiledObjective and the legacy
/// Objective, whose valueAndGradient spends two sweeps — to check that the
/// trajectories match bit for bit.
///
//===----------------------------------------------------------------------===//

#ifndef SELDON_SOLVER_ADAMOPTIMIZER_H
#define SELDON_SOLVER_ADAMOPTIMIZER_H

#include "solver/Objective.h"

namespace seldon {
namespace solver {

/// Projected Adam gradient descent over SimdObjective, CompiledObjective
/// or Objective (explicitly instantiated for each in AdamOptimizer.cpp).
class AdamOptimizer {
public:
  explicit AdamOptimizer(SolveOptions Options = SolveOptions())
      : Options(Options) {}

  /// Minimizes \p Obj starting from Obj.initialPoint().
  template <class ObjT> SolveResult minimize(const ObjT &Obj) const;

  /// Minimizes \p Obj starting from \p X0 (projected first).
  template <class ObjT>
  SolveResult minimize(const ObjT &Obj, std::vector<double> X0) const;

private:
  SolveOptions Options;
};

} // namespace solver
} // namespace seldon

#endif // SELDON_SOLVER_ADAMOPTIMIZER_H
