//===- constraints/Explain.h - Constraint-level explanations -----*- C++ -*-===//
//
// Part of seldon-cpp, a reproduction of "Scalable Taint Specification
// Inference with Big Code" (PLDI 2019).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Explains *why* a representation received its score: the paper's Fig. 1
/// workflow has an expert examine the learned specifications, and the
/// natural question is which information-flow constraints pushed a score
/// up. This renders the constraints mentioning a (representation, role)
/// variable together with their residuals under the solved assignment.
///
//===----------------------------------------------------------------------===//

#ifndef SELDON_CONSTRAINTS_EXPLAIN_H
#define SELDON_CONSTRAINTS_EXPLAIN_H

#include "constraints/ConstraintSystem.h"

#include <string>
#include <vector>

namespace seldon {
namespace constraints {

/// Appends one constraint to \p Out as `lhs <= rhs + C`, with variables
/// shown as `rep^role` and non-unit coefficients prefixed (`0.5*rep^role`,
/// printf `%.3g`); C prints as printf `%.2f`.
void renderConstraint(const ConstraintSystem &Sys,
                      const propgraph::RepTable &Reps,
                      const solver::ConstraintRef &C, std::string &Out);

/// One constraint's appearance in an explanation.
struct ExplainedConstraint {
  /// Rendered `lhs <= rhs + C` text (renderConstraint).
  std::string Text;
  /// L - R - C under the solution (> 0 means still violated).
  double Residual = 0.0;
  /// True when the explained variable sits on the left-hand side (the
  /// constraint *caps* it); false for the right-hand side (the constraint
  /// *demands* it).
  bool OnLhs = false;
};

/// Everything known about one (representation, role) variable: the
/// answer of the `seldond` query op and of `seldon explain` (rendered by
/// service/QueryResult.h).
struct Explanation {
  std::string Rep;
  propgraph::Role Role = propgraph::Role::Source;
  /// False when the pair has no variable (blacklisted, below the
  /// frequency cutoff, or never a candidate); the fields below are then
  /// zero/empty.
  bool Found = false;
  double Score = 0.0;
  bool Pinned = false;
  double PinnedValue = 0.0;
  std::vector<ExplainedConstraint> Constraints;
};

/// Explains (\p Rep, \p R) under the solved assignment \p X (indexed by
/// the system's variable ids). Returns Found = false when the pair has no
/// variable (blacklisted, below cutoff, or never a candidate). Visits only
/// the rows the system's row index lists for the variable, in ascending
/// row order, so an answer costs its own size rather than the system's.
Explanation explainRep(const ConstraintSystem &Sys,
                       const propgraph::RepTable &Reps,
                       const std::string &Rep, propgraph::Role R,
                       const std::vector<double> &X);

} // namespace constraints
} // namespace seldon

#endif // SELDON_CONSTRAINTS_EXPLAIN_H
