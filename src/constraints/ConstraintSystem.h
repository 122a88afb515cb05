//===- constraints/ConstraintSystem.h - Generated system ---------*- C++ -*-===//
//
// Part of seldon-cpp, a reproduction of "Scalable Taint Specification
// Inference with Big Code" (PLDI 2019).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The output of constraint generation: the soft information-flow
/// constraints (paper §4.2/§4.3), the variable table, the pinned seed
/// variables (§4.1), and per-event candidate bookkeeping used by the
/// evaluation (Tab. 1 statistics and precision sampling).
///
//===----------------------------------------------------------------------===//

#ifndef SELDON_CONSTRAINTS_CONSTRAINTSYSTEM_H
#define SELDON_CONSTRAINTS_CONSTRAINTSYSTEM_H

#include "constraints/VarTable.h"
#include "solver/Objective.h"
#include "solver/SimdObjective.h"

#include <vector>

namespace seldon {
namespace constraints {

/// A generated constraint system ready for the solver.
struct ConstraintSystem {
  /// Soft constraints (Σ Lhs ≤ Σ Rhs + C form).
  std::vector<solver::LinearConstraint> Constraints;
  /// (rep, role) -> variable mapping.
  VarTable Vars;
  /// Seed pins: (variable, value in {0, 1}).
  std::vector<std::pair<VarId, double>> Pinned;

  /// Per-event surviving backoff options Reps(v) (after the frequency
  /// cutoff and the blacklist); empty entries mean the event is ignored.
  std::vector<std::vector<RepId>> EventReps;

  /// Number of events with a non-empty backoff set (Tab. 1 "# Candidates").
  size_t NumCandidates = 0;
  /// Mean |Reps(v)| over candidates (Tab. 1 "Average # backoff options").
  double AvgBackoffOptions = 0.0;

  /// Builds the legacy reference objective (hinge relaxation + L1,
  /// Eq. 9) with the regularization strength \p Lambda — the oracle the
  /// tests compare the production kernel against.
  solver::Objective makeObjective(double Lambda) const;

  /// Compiles the system into the blocked SIMD kernel every solve runs on
  /// (same semantics as makeObjective; see solver/SimdObjective.h).
  solver::SimdObjective makeSimdObjective(double Lambda) const;
};

} // namespace constraints
} // namespace seldon

#endif // SELDON_CONSTRAINTS_CONSTRAINTSYSTEM_H
