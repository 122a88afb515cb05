//===- constraints/ConstraintSystem.cpp - Generated system ----------------===//

#include "constraints/ConstraintSystem.h"

#include <algorithm>
#include <cassert>
#include <limits>

using namespace seldon;
using namespace seldon::constraints;

solver::Objective ConstraintSystem::makeObjective(double Lambda) const {
  solver::Objective Obj(Vars.numVars(), Constraints.toVector(), Lambda);
  for (const auto &[Var, Value] : Pinned)
    Obj.pin(Var, Value);
  return Obj;
}

solver::SimdObjective
ConstraintSystem::makeSimdObjective(double Lambda, ThreadPool *Pool) const {
  solver::SimdObjective Obj(Vars.numVars(), Constraints, Lambda, Pool);
  for (const auto &[Var, Value] : Pinned)
    Obj.pin(Var, Value);
  return Obj;
}

RowIndex RowIndex::build(const ConstraintSystem &Sys) {
  assert(Sys.Constraints.size() < std::numeric_limits<uint32_t>::max() &&
         "row ids must fit in 32 bits");
  size_t NumVars = Sys.Vars.numVars();
  for (const solver::Term &T : Sys.Constraints.terms())
    NumVars = std::max<size_t>(NumVars, T.Var + size_t(1));

  RowIndex Index;
  Index.NumRows = Sys.Constraints.size();
  Index.Offsets.assign(NumVars + 1, 0);
  // A row's Lhs and Rhs terms are adjacent in the flat store, so each
  // pass walks one term span per row.
  const solver::Term *Terms = Sys.Constraints.terms().data();
  const std::vector<uint32_t> &Begin = Sys.Constraints.rowBegin();
  // Counting pass: Last[V] is the last row counted for V, so a variable
  // mentioned several times in one row counts that row once.
  constexpr uint32_t None = std::numeric_limits<uint32_t>::max();
  std::vector<uint32_t> Last(NumVars, None);
  for (uint32_t Row = 0; Row < Index.NumRows; ++Row)
    for (uint32_t K = Begin[Row]; K < Begin[Row + 1]; ++K) {
      const uint32_t V = Terms[K].Var;
      if (Last[V] != Row) {
        Last[V] = Row;
        ++Index.Offsets[V + 1];
      }
    }
  for (size_t V = 0; V < NumVars; ++V)
    Index.Offsets[V + 1] += Index.Offsets[V];

  // Fill pass in row order, so each slice comes out ascending. A row is
  // already listed for V exactly when V's last filled entry is this row.
  Index.Rows.resize(Index.Offsets.back());
  std::vector<uint32_t> Fill(Index.Offsets.begin(), Index.Offsets.end() - 1);
  for (uint32_t Row = 0; Row < Index.NumRows; ++Row)
    for (uint32_t K = Begin[Row]; K < Begin[Row + 1]; ++K) {
      const uint32_t V = Terms[K].Var;
      uint32_t &At = Fill[V];
      if (At > Index.Offsets[V] && Index.Rows[At - 1] == Row)
        continue;
      Index.Rows[At++] = Row;
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
