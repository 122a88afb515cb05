//===- constraints/ConstraintSystem.cpp - Generated system ----------------===//

#include "constraints/ConstraintSystem.h"

#include <algorithm>
#include <cassert>
#include <limits>

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

RowIndex RowIndex::build(const ConstraintSystem &Sys) {
  assert(Sys.Constraints.size() < std::numeric_limits<uint32_t>::max() &&
         "row ids must fit in 32 bits");
  size_t NumVars = Sys.Vars.numVars();
  for (const solver::LinearConstraint &C : Sys.Constraints) {
    for (const solver::Term &T : C.Lhs)
      NumVars = std::max<size_t>(NumVars, T.Var + size_t(1));
    for (const solver::Term &T : C.Rhs)
      NumVars = std::max<size_t>(NumVars, T.Var + size_t(1));
  }

  RowIndex Index;
  Index.NumRows = Sys.Constraints.size();
  Index.Offsets.assign(NumVars + 1, 0);
  // Counting pass: Last[V] is the last row counted for V, so a variable
  // mentioned several times in one row counts that row once.
  constexpr uint32_t None = std::numeric_limits<uint32_t>::max();
  std::vector<uint32_t> Last(NumVars, None);
  auto Count = [&](const std::vector<solver::Term> &Terms, uint32_t Row) {
    for (const solver::Term &T : Terms)
      if (Last[T.Var] != Row) {
        Last[T.Var] = Row;
        ++Index.Offsets[T.Var + 1];
      }
  };
  for (uint32_t Row = 0; Row < Index.NumRows; ++Row) {
    Count(Sys.Constraints[Row].Lhs, Row);
    Count(Sys.Constraints[Row].Rhs, Row);
  }
  for (size_t V = 0; V < NumVars; ++V)
    Index.Offsets[V + 1] += Index.Offsets[V];

  // Fill pass in row order, so each slice comes out ascending. A row is
  // already listed for V exactly when V's last filled entry is this row.
  Index.Rows.resize(Index.Offsets.back());
  std::vector<uint32_t> Fill(Index.Offsets.begin(), Index.Offsets.end() - 1);
  auto Place = [&](const std::vector<solver::Term> &Terms, uint32_t Row) {
    for (const solver::Term &T : Terms) {
      uint32_t &At = Fill[T.Var];
      if (At > Index.Offsets[T.Var] && Index.Rows[At - 1] == Row)
        continue;
      Index.Rows[At++] = Row;
    }
  };
  for (uint32_t Row = 0; Row < Index.NumRows; ++Row) {
    Place(Sys.Constraints[Row].Lhs, Row);
    Place(Sys.Constraints[Row].Rhs, Row);
  }
  return Index;
}

const RowIndex &LazyRowIndex::get(const ConstraintSystem &Sys) const {
  const RowIndex *Index = Ready.load(std::memory_order_acquire);
  if (Index && Index->NumRows == Sys.Constraints.size())
    return *Index;
  std::lock_guard<std::mutex> Lock(BuildMutex);
  if (!Built || Built->NumRows != Sys.Constraints.size()) {
    Built = std::make_unique<const RowIndex>(RowIndex::build(Sys));
    Ready.store(Built.get(), std::memory_order_release);
  }
  return *Built;
}
