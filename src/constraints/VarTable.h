//===- constraints/VarTable.h - (rep, role) -> variable ids ------*- C++ -*-===//
//
// Part of seldon-cpp, a reproduction of "Scalable Taint Specification
// Inference with Big Code" (PLDI 2019).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Maps (representation, role) pairs to dense optimizer variable ids
/// (paper §4.1/§4.3: one score variable per backoff option per role).
/// Variables are created lazily, so only pairs that actually occur in a
/// constraint or seed label consume a column.
///
//===----------------------------------------------------------------------===//

#ifndef SELDON_CONSTRAINTS_VARTABLE_H
#define SELDON_CONSTRAINTS_VARTABLE_H

#include "propgraph/RepTable.h"

#include <cstdint>
#include <vector>

namespace seldon {
namespace constraints {

using propgraph::RepId;
using propgraph::Role;

/// Dense optimizer variable id.
using VarId = uint32_t;

/// Lazily-created dense table of (representation, role) variables: ids in
/// creation order, found through an open-addressed index over them, so a
/// table is two flat vectors (cheap to build per file, to copy with a
/// system, and to free).
class VarTable {
public:
  /// The variable for (\p Rep, \p R), created on first use.
  VarId varFor(RepId Rep, Role R);

  /// Looks up an existing variable; returns false when absent.
  bool lookup(RepId Rep, Role R, VarId &Out) const;

  size_t numVars() const { return Keys.size(); }

  RepId repOf(VarId V) const { return static_cast<RepId>(Keys[V] >> 2); }
  Role roleOf(VarId V) const { return static_cast<Role>(Keys[V] & 3); }

private:
  static uint64_t keyOf(RepId Rep, Role R) {
    return (static_cast<uint64_t>(Rep) << 2) | static_cast<uint64_t>(R);
  }

  /// The first slot to probe for \p Key in a table of \p Mask + 1 slots.
  static size_t slotOf(uint64_t Key, size_t Mask) {
    return static_cast<size_t>((Key * 0x9E3779B97F4A7C15ull) >> 32) & Mask;
  }

  /// Doubles the index and re-inserts every variable.
  void grow();

  /// keyOf(rep, role) of each variable, indexed by id.
  std::vector<uint64_t> Keys;
  /// Open-addressed index: id + 1 per occupied slot, 0 when empty; a
  /// power-of-two size at most half full.
  std::vector<uint32_t> Slots;
};

} // namespace constraints
} // namespace seldon

#endif // SELDON_CONSTRAINTS_VARTABLE_H
