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
#include "solver/ConstraintRows.h"
#include "solver/Objective.h"
#include "solver/SimdObjective.h"

#include <atomic>
#include <memory>
#include <mutex>
#include <vector>

namespace seldon {

class ThreadPool;

namespace constraints {

struct ConstraintSystem;

/// Which rows mention each variable: a CSR of ascending row ids per
/// VarId, each row listed once per variable even when the variable sits
/// on both sides or appears twice on one side. It answers "the rows
/// behind this score" (constraints::explainRep) without a scan of the
/// whole system.
struct RowIndex {
  /// Number of rows the index was built over; it is stale once the
  /// system has a different row count.
  size_t NumRows = 0;
  /// Offsets[V] .. Offsets[V + 1] delimit variable V's slice of Rows.
  std::vector<uint32_t> Offsets;
  std::vector<uint32_t> Rows;

  /// A slice of Rows, iterable with range-for.
  struct Slice {
    const uint32_t *First = nullptr;
    const uint32_t *Last = nullptr;
    const uint32_t *begin() const { return First; }
    const uint32_t *end() const { return Last; }
    size_t size() const { return static_cast<size_t>(Last - First); }
    bool empty() const { return First == Last; }
  };

  /// The ascending row ids that mention \p V (empty for a variable no
  /// row mentions).
  Slice rowsOf(VarId V) const {
    if (static_cast<size_t>(V) + 1 >= Offsets.size())
      return {};
    return {Rows.data() + Offsets[V], Rows.data() + Offsets[V + 1]};
  }

  /// Indexes the current rows of \p Sys.
  static RowIndex build(const ConstraintSystem &Sys);
};

/// A system's lazily built RowIndex. The first caller builds it, once,
/// however many readers race for it; later callers get it lock-free. A
/// copied or moved-into holder starts empty, so a copy of a system (a
/// copy-on-write pin, the feedback copy) never carries an index of
/// another object's rows. The index is keyed to the row count: rows
/// appended after a build make the next caller rebuild it. Appending is a
/// mutation and must not race readers of the same system.
class LazyRowIndex {
public:
  LazyRowIndex() = default;
  LazyRowIndex(const LazyRowIndex &) {}
  LazyRowIndex &operator=(const LazyRowIndex &) {
    reset();
    return *this;
  }

  const RowIndex &get(const ConstraintSystem &Sys) const;

private:
  void reset() {
    Ready.store(nullptr, std::memory_order_relaxed);
    Built.reset();
  }

  mutable std::mutex BuildMutex;
  /// Built, once published; read without the lock.
  mutable std::atomic<const RowIndex *> Ready{nullptr};
  mutable std::unique_ptr<const RowIndex> Built;
};

/// A generated constraint system ready for the solver.
struct ConstraintSystem {
  /// Soft constraints (Σ Lhs ≤ Σ Rhs + C form), stored flat.
  solver::ConstraintRows Constraints;
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
  /// (same semantics as makeObjective; see solver/SimdObjective.h). The
  /// compile fans out over \p Pool when non-null, with the same result.
  solver::SimdObjective makeSimdObjective(double Lambda,
                                          ThreadPool *Pool = nullptr) const;

  /// The per-variable row index over Constraints, built on first use.
  /// Safe to call from concurrent readers.
  const RowIndex &rowIndex() const { return Index.get(*this); }

private:
  LazyRowIndex Index;
};

} // namespace constraints
} // namespace seldon

#endif // SELDON_CONSTRAINTS_CONSTRAINTSYSTEM_H
