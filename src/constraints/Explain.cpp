//===- constraints/Explain.cpp - Constraint-level explanations ------------===//

#include "constraints/Explain.h"

#include "support/StrUtil.h"

using namespace seldon;
using namespace seldon::constraints;
using namespace seldon::propgraph;

namespace {

void renderTerms(const ConstraintSystem &Sys, const RepTable &Reps,
                 const solver::TermRange &Terms, std::string &Out) {
  if (Terms.empty()) {
    Out += "0";
    return;
  }
  for (size_t I = 0; I < Terms.size(); ++I) {
    if (I)
      Out += " + ";
    if (Terms[I].Coef != 1.0f) {
      appendGeneral(Out, Terms[I].Coef, 3);
      Out += '*';
    }
    Out += Reps.repString(Sys.Vars.repOf(Terms[I].Var));
    Out += '^';
    Out += roleName(Sys.Vars.roleOf(Terms[I].Var));
  }
}

double evalSide(const solver::TermRange &Terms,
                const std::vector<double> &X) {
  double Sum = 0.0;
  for (const solver::Term &T : Terms)
    Sum += T.Coef * X[T.Var];
  return Sum;
}

bool mentions(const solver::TermRange &Terms, VarId V) {
  for (const solver::Term &T : Terms)
    if (T.Var == V)
      return true;
  return false;
}

} // namespace

void seldon::constraints::renderConstraint(const ConstraintSystem &Sys,
                                           const RepTable &Reps,
                                           const solver::ConstraintRef &C,
                                           std::string &Out) {
  renderTerms(Sys, Reps, C.Lhs, Out);
  Out += " <= ";
  renderTerms(Sys, Reps, C.Rhs, Out);
  Out += " + ";
  appendFixed(Out, C.C, 2);
}

Explanation seldon::constraints::explainRep(const ConstraintSystem &Sys,
                                            const RepTable &Reps,
                                            const std::string &Rep, Role R,
                                            const std::vector<double> &X) {
  Explanation Out;
  Out.Rep = Rep;
  Out.Role = R;
  RepId Id;
  if (!Reps.lookup(Rep, Id))
    return Out;
  VarId V;
  if (!Sys.Vars.lookup(Id, R, V))
    return Out;
  Out.Found = true;
  Out.Score = V < X.size() ? X[V] : 0.0;
  for (const auto &[PinnedVar, Value] : Sys.Pinned)
    if (PinnedVar == V) {
      Out.Pinned = true;
      Out.PinnedValue = Value;
    }

  RowIndex::Slice Rows = Sys.rowIndex().rowsOf(V);
  Out.Constraints.reserve(Rows.size());
  for (uint32_t Row : Rows) {
    const solver::ConstraintRef C = Sys.Constraints[Row];
    bool Lhs = mentions(C.Lhs, V);
    ExplainedConstraint EC;
    renderConstraint(Sys, Reps, C, EC.Text);
    EC.Residual = X.empty() ? 0.0
                            : evalSide(C.Lhs, X) - evalSide(C.Rhs, X) - C.C;
    EC.OnLhs = Lhs;
    Out.Constraints.push_back(std::move(EC));
  }
  return Out;
}
