//===- constraints/ConstraintSystem.cpp - Generated system ----------------===//

#include "constraints/ConstraintSystem.h"

using namespace seldon;
using namespace seldon::constraints;

solver::Objective ConstraintSystem::makeObjective(double Lambda) const {
  solver::Objective Obj(Vars.numVars(), Constraints, Lambda);
  for (const auto &[Var, Value] : Pinned)
    Obj.pin(Var, Value);
  return Obj;
}

solver::SimdObjective
ConstraintSystem::makeSimdObjective(double Lambda) const {
  solver::SimdObjective Obj(Vars.numVars(), Constraints, Lambda);
  for (const auto &[Var, Value] : Pinned)
    Obj.pin(Var, Value);
  return Obj;
}
