//===- solver/ConstraintRows.cpp - Flat constraint row store --------------===//

#include "solver/ConstraintRows.h"

#include "support/ThreadPool.h"

#include <algorithm>
#include <cstdlib>
#include <limits>
#include <stdexcept>
#include <string>

using namespace seldon;
using namespace seldon::solver;

uint64_t seldon::solver::indexLimit() {
  if (const char *Env = std::getenv("SELDON_TEST_CSR_LIMIT")) {
    char *End = nullptr;
    unsigned long long V = std::strtoull(Env, &End, 10);
    if (End != Env && *End == '\0' && V > 0)
      return V;
  }
  return std::numeric_limits<uint32_t>::max();
}

ConstraintRows::ConstraintRows(const std::vector<LinearConstraint> &Rows) {
  size_t NumTerms = 0;
  for (const LinearConstraint &LC : Rows)
    NumTerms += LC.Lhs.size() + LC.Rhs.size();
  reserve(Rows.size(), NumTerms);
  for (const LinearConstraint &LC : Rows)
    push_back(LC);
}

void ConstraintRows::reserve(size_t Rows, size_t NumTerms) {
  Terms.reserve(NumTerms);
  RowBegin.reserve(Rows + 1);
  RhsBegin.reserve(Rows);
  C.reserve(Rows);
}

void ConstraintRows::push_back(const LinearConstraint &LC) {
  addTerms(LC.Lhs.data(), LC.Lhs.data() + LC.Lhs.size());
  beginRhs();
  addTerms(LC.Rhs.data(), LC.Rhs.data() + LC.Rhs.size());
  endRow(LC.C);
}

void ConstraintRows::throwOverflow(size_t NumTerms) const {
  throw std::runtime_error(
      "constraint system overflows the 32-bit CSR layout: " +
      std::to_string(NumTerms) + " terms exceed the index limit of " +
      std::to_string(Limit) + "; split the corpus into smaller solves");
}

void ConstraintRows::appendBlocks(
    std::vector<ConstraintRows> &Blocks,
    const std::vector<std::vector<uint32_t>> &Maps, ThreadPool *Pool) {
  // Prefix sums: where each block's rows and terms land.
  const size_t N = Blocks.size();
  std::vector<size_t> RowAt(N + 1), TermAt(N + 1);
  RowAt[0] = size();
  TermAt[0] = Terms.size();
  for (size_t B = 0; B < N; ++B) {
    RowAt[B + 1] = RowAt[B] + Blocks[B].size();
    TermAt[B + 1] = TermAt[B] + Blocks[B].Terms.size();
  }
  if (TermAt[N] > Limit)
    throwOverflow(TermAt[N]);
  if (RowBegin.empty())
    RowBegin.push_back(0);
  Terms.resize(TermAt[N]);
  RowBegin.resize(RowAt[N] + 1);
  RhsBegin.resize(RowAt[N]);
  C.resize(RowAt[N]);

  auto CopyBlock = [&](size_t B, unsigned) {
    ConstraintRows &Block = Blocks[B];
    const std::vector<uint32_t> &Map = Maps[B];
    const uint32_t Shift = static_cast<uint32_t>(TermAt[B]);
    Term *T = Terms.data() + TermAt[B];
    for (const Term &Local : Block.Terms)
      *T++ = {Map[Local.Var], Local.Coef};
    const size_t Rows = Block.size();
    uint32_t *Begin = RowBegin.data() + RowAt[B];
    uint32_t *Rhs = RhsBegin.data() + RowAt[B];
    for (size_t R = 0; R < Rows; ++R) {
      Begin[R + 1] = Shift + Block.RowBegin[R + 1];
      Rhs[R] = Shift + Block.RhsBegin[R];
    }
    std::copy(Block.C.begin(), Block.C.end(), C.begin() + RowAt[B]);
    Block.Terms = {};
    Block.RowBegin = {};
    Block.RhsBegin = {};
    Block.C = {};
  };
  if (Pool)
    Pool->parallelFor(N, CopyBlock);
  else
    for (size_t B = 0; B < N; ++B)
      CopyBlock(B, 0);
}

std::vector<LinearConstraint> ConstraintRows::toVector() const {
  std::vector<LinearConstraint> Out(size());
  for (size_t R = 0; R < size(); ++R) {
    ConstraintRef Row = (*this)[R];
    Out[R].Lhs.assign(Row.Lhs.begin(), Row.Lhs.end());
    Out[R].Rhs.assign(Row.Rhs.begin(), Row.Rhs.end());
    Out[R].C = Row.C;
  }
  return Out;
}
