//===- solver/ConstraintRows.h - Flat constraint row store ------*- C++ -*-===//
//
// Part of seldon-cpp, a reproduction of "Scalable Taint Specification
// Inference with Big Code" (PLDI 2019).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The storage of a generated constraint system (paper §4.2–4.4): every
/// row Σ Lhs ≤ Σ Rhs + C of the system in one flat term array with per-row
/// offsets, so a system of any size is four allocations. Row R's Lhs
/// terms are Terms[RowBegin[R], RhsBegin[R]) and its Rhs terms
/// Terms[RhsBegin[R], RowBegin[R + 1]).
///
/// Indexing yields a ConstraintRef, a view with the member names of
/// LinearConstraint, so `for (const Term &T : Rows[R].Lhs)` reads the
/// same as over the one-row value type. LinearConstraint stays the value
/// type push_back accepts (tests, feedback rows); generators append terms
/// straight into the store instead.
///
/// Offsets are 32-bit, like the compiled CSR's. Every append checks the
/// term count against indexLimit() and fails with a descriptive error
/// rather than wrapping.
///
/// The views are plain pointer pairs (no std::span): this header is part
/// of the public headers that must also compile as C++17.
///
//===----------------------------------------------------------------------===//

#ifndef SELDON_SOLVER_CONSTRAINTROWS_H
#define SELDON_SOLVER_CONSTRAINTROWS_H

#include "solver/Objective.h"

#include <cstddef>
#include <cstdint>
#include <vector>

namespace seldon {

class ThreadPool;

namespace solver {

/// The largest entry count the 32-bit row layouts (the flat store's term
/// offsets, the compiled CSR's rows and non-zeros) may hold: UINT32_MAX,
/// or the positive integer in SELDON_TEST_CSR_LIMIT, which lets tests
/// exercise the guards without allocating billions of entries.
uint64_t indexLimit();

/// A run of terms, iterable with range-for. Valid while the store it
/// points into is not modified.
struct TermRange {
  const Term *First = nullptr;
  const Term *Last = nullptr;

  const Term *begin() const { return First; }
  const Term *end() const { return Last; }
  size_t size() const { return static_cast<size_t>(Last - First); }
  bool empty() const { return First == Last; }
  const Term &operator[](size_t I) const { return First[I]; }
};

/// A read-only view of one row: Σ Lhs ≤ Σ Rhs + C.
struct ConstraintRef {
  TermRange Lhs;
  TermRange Rhs;
  double C = 0.0;
};

/// All rows of a constraint system in flat arrays.
class ConstraintRows {
public:
  ConstraintRows() = default;
  /// Flattens \p Rows, in order.
  explicit ConstraintRows(const std::vector<LinearConstraint> &Rows);

  size_t size() const { return C.size(); }
  bool empty() const { return C.empty(); }
  size_t numTerms() const { return Terms.size(); }

  ConstraintRef operator[](size_t R) const {
    const Term *T = Terms.data();
    return {{T + RowBegin[R], T + RhsBegin[R]},
            {T + RhsBegin[R], T + RowBegin[R + 1]},
            C[R]};
  }
  ConstraintRef front() const { return (*this)[0]; }

  /// Row iterator yielding ConstraintRef values.
  class Iterator {
  public:
    Iterator(const ConstraintRows *Rows, size_t Row) : Rows(Rows), Row(Row) {}
    ConstraintRef operator*() const { return (*Rows)[Row]; }
    Iterator &operator++() {
      ++Row;
      return *this;
    }
    bool operator==(const Iterator &O) const { return Row == O.Row; }
    bool operator!=(const Iterator &O) const { return Row != O.Row; }

  private:
    const ConstraintRows *Rows;
    size_t Row;
  };
  Iterator begin() const { return {this, 0}; }
  Iterator end() const { return {this, size()}; }

  void reserve(size_t Rows, size_t NumTerms);

  /// Appends one row.
  void push_back(const LinearConstraint &LC);

  /// Row assembly without a LinearConstraint: append the Lhs terms with
  /// addTerm/addTerms, call beginRhs(), append the Rhs terms, then close
  /// the row with endRow(C). The store must not be read while a row is
  /// open.
  void addTerm(Term T) { Terms.push_back(T); }
  void addTerms(const Term *First, const Term *Last) {
    Terms.insert(Terms.end(), First, Last);
  }
  void beginRhs() { RhsBegin.push_back(static_cast<uint32_t>(Terms.size())); }
  void endRow(double RowC) {
    if (Terms.size() > Limit)
      throwOverflow(Terms.size());
    if (RowBegin.empty())
      RowBegin.push_back(0);
    RowBegin.push_back(static_cast<uint32_t>(Terms.size()));
    C.push_back(RowC);
  }

  /// Appends every row of \p Blocks, in block order, renaming each
  /// block's variables through the matching \p Maps entry (local id ->
  /// id in this store). The destination arrays are sized once and the
  /// blocks are copied at prefix-sum offsets in parallel on \p Pool (null
  /// = serial); the result does not depend on the thread count. Each
  /// block is released once copied.
  void appendBlocks(std::vector<ConstraintRows> &Blocks,
                    const std::vector<std::vector<uint32_t>> &Maps,
                    ThreadPool *Pool);

  /// The rows as one-row values (the legacy Objective's input).
  std::vector<LinearConstraint> toVector() const;

  /// The flat arrays. RowBegin holds size() + 1 offsets (none while the
  /// store is empty), RhsBegin size() offsets, constants() size() values.
  const std::vector<Term> &terms() const { return Terms; }
  const std::vector<uint32_t> &rowBegin() const { return RowBegin; }
  const std::vector<uint32_t> &rhsBegin() const { return RhsBegin; }
  const std::vector<double> &constants() const { return C; }

private:
  [[noreturn]] void throwOverflow(size_t NumTerms) const;

  std::vector<Term> Terms;
  std::vector<uint32_t> RowBegin;
  std::vector<uint32_t> RhsBegin;
  std::vector<double> C;
  /// indexLimit(), read once per store.
  uint64_t Limit = indexLimit();
};

} // namespace solver
} // namespace seldon

#endif // SELDON_SOLVER_CONSTRAINTROWS_H
