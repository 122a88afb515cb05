//===- tests/constraint_rows_test.cpp - The flat constraint row store -----===//
//
// A generated constraint system lives in one flat term array with per-row
// offsets (solver::ConstraintRows). The flat arrays must not depend on how
// the system was built — serially, on four threads, or composed from
// per-project shards — and the CSR compiled from them must be bitwise the
// same at every thread count and equal to the compile of the same rows
// given as one-row values. The 32-bit offset guard must cover the flat
// term offsets. The backoff filter, decided once per distinct
// representation, must leave every event the options the per-occurrence
// filter leaves it.
//
//===----------------------------------------------------------------------===//

#include "TestCorpus.h"

#include "constraints/ConstraintGen.h"
#include "infer/Pipeline.h"
#include "solver/CompiledObjective.h"
#include "solver/ConstraintRows.h"
#include "support/ThreadPool.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <functional>
#include <stdexcept>
#include <string>

using namespace seldon;
using solver::ConstraintRef;
using solver::ConstraintRows;
using solver::LinearConstraint;
using solver::Term;

namespace {

template <typename T>
bool bytesEqual(const std::vector<T> &A, const std::vector<T> &B) {
  return A.size() == B.size() &&
         (A.empty() ||
          std::memcmp(A.data(), B.data(), A.size() * sizeof(T)) == 0);
}

void expectSameArrays(const ConstraintRows &A, const ConstraintRows &B) {
  EXPECT_TRUE(bytesEqual(A.rowBegin(), B.rowBegin()));
  EXPECT_TRUE(bytesEqual(A.rhsBegin(), B.rhsBegin()));
  EXPECT_TRUE(bytesEqual(A.terms(), B.terms()));
  EXPECT_TRUE(bytesEqual(A.constants(), B.constants()));
}

std::vector<LinearConstraint> sampleRows() {
  return {{{{0, 1.0f}, {1, 0.5f}}, {{2, 0.25f}}, 0.75},
          {{}, {{3, 2.0f}}, -2.0},
          {{{4, 1.0f}}, {}, 0.0},
          {{}, {}, 0.5}};
}

void expectRowEquals(const ConstraintRef &Got, const LinearConstraint &Want) {
  ASSERT_EQ(Got.Lhs.size(), Want.Lhs.size());
  ASSERT_EQ(Got.Rhs.size(), Want.Rhs.size());
  for (size_t I = 0; I < Want.Lhs.size(); ++I) {
    EXPECT_EQ(Got.Lhs[I].Var, Want.Lhs[I].Var);
    EXPECT_EQ(Got.Lhs[I].Coef, Want.Lhs[I].Coef);
  }
  for (size_t I = 0; I < Want.Rhs.size(); ++I) {
    EXPECT_EQ(Got.Rhs[I].Var, Want.Rhs[I].Var);
    EXPECT_EQ(Got.Rhs[I].Coef, Want.Rhs[I].Coef);
  }
  EXPECT_EQ(Got.C, Want.C);
}

TEST(ConstraintRowsTest, ViewsReadBackPushedRows) {
  std::vector<LinearConstraint> Want = sampleRows();
  ConstraintRows Rows(Want);
  ASSERT_EQ(Rows.size(), Want.size());
  EXPECT_EQ(Rows.numTerms(), 5u);
  EXPECT_EQ(Rows.rowBegin(), (std::vector<uint32_t>{0, 3, 4, 5, 5}));
  EXPECT_EQ(Rows.rhsBegin(), (std::vector<uint32_t>{2, 3, 5, 5}));
  size_t Seen = 0;
  for (const ConstraintRef Row : Rows)
    expectRowEquals(Row, Want[Seen++]);
  EXPECT_EQ(Seen, Want.size());
  expectRowEquals(Rows.front(), Want.front());
  expectSameArrays(ConstraintRows(Rows.toVector()), Rows);

  ConstraintRows Empty;
  EXPECT_TRUE(Empty.empty());
  EXPECT_TRUE(Empty.rowBegin().empty());
  EXPECT_EQ(Empty.begin(), Empty.end());
}

TEST(ConstraintRowsTest, AssembledRowsEqualPushedRows) {
  ConstraintRows Pushed(sampleRows());
  ConstraintRows Assembled;
  for (const LinearConstraint &LC : sampleRows()) {
    for (const Term &T : LC.Lhs)
      Assembled.addTerm(T);
    Assembled.beginRhs();
    Assembled.addTerms(LC.Rhs.data(), LC.Rhs.data() + LC.Rhs.size());
    Assembled.endRow(LC.C);
  }
  expectSameArrays(Assembled, Pushed);
}

TEST(ConstraintRowsTest, AppendBlocksRenamesAndConcatenates) {
  std::vector<LinearConstraint> Local = sampleRows();
  const std::vector<std::vector<uint32_t>> Maps = {{10, 11, 12, 13, 14},
                                                   {4, 3, 2, 1, 0},
                                                   {}};
  // Reference: the blocks' rows pushed one by one with renamed variables,
  // after one row the store already held.
  LinearConstraint First{{{7, 1.0f}}, {{8, 1.0f}}, 0.75};
  ConstraintRows Want;
  Want.push_back(First);
  for (size_t B = 0; B < 2; ++B)
    for (LinearConstraint LC : Local) {
      for (Term &T : LC.Lhs)
        T.Var = Maps[B][T.Var];
      for (Term &T : LC.Rhs)
        T.Var = Maps[B][T.Var];
      Want.push_back(LC);
    }

  ThreadPool Pool(4);
  for (ThreadPool *P : {static_cast<ThreadPool *>(nullptr), &Pool}) {
    std::vector<ConstraintRows> Blocks = {ConstraintRows(Local),
                                          ConstraintRows(Local),
                                          ConstraintRows()};
    ConstraintRows Got;
    Got.push_back(First);
    Got.appendBlocks(Blocks, Maps, P);
    expectSameArrays(Got, Want);
    for (const ConstraintRows &Block : Blocks)
      EXPECT_TRUE(Block.empty()); // Released once copied.
  }
}

/// The system a fresh session generates for \p Data.
constraints::ConstraintSystem generate(const corpus::Corpus &Data,
                                       unsigned Jobs,
                                       const std::string &ShardDir = "") {
  infer::PipelineOptions Opts;
  Opts.Jobs = Jobs;
  infer::Session S(Opts);
  if (!ShardDir.empty())
    S.enableShardCache(ShardDir);
  S.addProjects(Data.Projects);
  S.generateConstraints(Data.Seed);
  return S.system();
}

class ConstraintRowsCorpusTest : public ::testing::TestWithParam<int> {};

TEST_P(ConstraintRowsCorpusTest, JobsAndShardsBuildByteEqualArrays) {
  corpus::Corpus Data = testutil::makeCorpus(4242, GetParam());
  constraints::ConstraintSystem Serial = generate(Data, 1);
  ASSERT_GT(Serial.Constraints.size(), 0u);
  expectSameArrays(generate(Data, 4).Constraints, Serial.Constraints);

  std::string Dir = testutil::makeScratchDir("rows-shards");
  constraints::ConstraintSystem Cold = generate(Data, 4, Dir);
  expectSameArrays(Cold.Constraints, Serial.Constraints);
  constraints::ConstraintSystem Warm = generate(Data, 1, Dir);
  expectSameArrays(Warm.Constraints, Serial.Constraints);
  EXPECT_EQ(Warm.Vars.numVars(), Serial.Vars.numVars());
}

void expectSameCsr(const solver::CompiledObjective &A,
                   const solver::CompiledObjective &B) {
  EXPECT_TRUE(bytesEqual(A.rowBegin(), B.rowBegin()));
  EXPECT_TRUE(bytesEqual(A.varIdx(), B.varIdx()));
  EXPECT_TRUE(bytesEqual(A.coef(), B.coef()));
  EXPECT_TRUE(bytesEqual(A.weight(), B.weight()));
  EXPECT_TRUE(bytesEqual(A.rowConstant(), B.rowConstant()));
  EXPECT_EQ(A.stats().RowsBefore, B.stats().RowsBefore);
  EXPECT_EQ(A.stats().TermsBefore, B.stats().TermsBefore);
  EXPECT_EQ(A.stats().MaxMultiplicity, B.stats().MaxMultiplicity);
}

TEST_P(ConstraintRowsCorpusTest, CompiledCsrIsTheSameForEveryJobsAndInput) {
  corpus::Corpus Data = testutil::makeCorpus(4343, GetParam());
  constraints::ConstraintSystem Sys = generate(Data, 1);
  const size_t NumVars = Sys.Vars.numVars();
  solver::CompiledObjective Serial(NumVars, Sys.Constraints, 0.1, nullptr);
  ASSERT_GT(Serial.numRows(), 0u);
  ThreadPool Pool(4);
  solver::CompiledObjective Parallel(NumVars, Sys.Constraints, 0.1, &Pool);
  expectSameCsr(Parallel, Serial);
  solver::CompiledObjective FromValues(NumVars, Sys.Constraints.toVector(),
                                       0.1);
  expectSameCsr(FromValues, Serial);
}

INSTANTIATE_TEST_SUITE_P(Projects, ConstraintRowsCorpusTest,
                         ::testing::Values(6, 200),
                         [](const ::testing::TestParamInfo<int> &Info) {
                           return "P" + std::to_string(Info.param);
                         });

/// Sets SELDON_TEST_CSR_LIMIT for one scope.
class ScopedLimit {
public:
  explicit ScopedLimit(const char *Value) {
    setenv("SELDON_TEST_CSR_LIMIT", Value, 1);
  }
  ~ScopedLimit() { unsetenv("SELDON_TEST_CSR_LIMIT"); }
};

void expectOverflowError(const std::function<void()> &Fn) {
  try {
    Fn();
    ADD_FAILURE() << "expected the 32-bit offset guard to throw";
  } catch (const std::runtime_error &E) {
    EXPECT_NE(std::string(E.what()).find("32-bit CSR layout"),
              std::string::npos)
        << E.what();
  }
}

TEST(ConstraintRowsTest, OverflowGuardCoversTheFlatTermOffsets) {
  // Two rows of three terms each: six terms past a limit of five.
  LinearConstraint Row{{{0, 1.0f}, {1, 1.0f}}, {{2, 1.0f}}, 0.75};
  {
    ScopedLimit Limit("5");
    expectOverflowError([&] {
      ConstraintRows Rows;
      Rows.push_back(Row);
      Rows.push_back(Row);
    });
    expectOverflowError([&] {
      ConstraintRows Rows;
      for (int R = 0; R < 2; ++R) {
        Rows.addTerms(Row.Lhs.data(), Row.Lhs.data() + Row.Lhs.size());
        Rows.beginRhs();
        Rows.addTerms(Row.Rhs.data(), Row.Rhs.data() + Row.Rhs.size());
        Rows.endRow(Row.C);
      }
    });
    expectOverflowError([&] {
      std::vector<ConstraintRows> Blocks(2);
      Blocks[0].push_back(Row);
      Blocks[1].push_back(Row);
      ConstraintRows Rows;
      Rows.appendBlocks(Blocks, {{0, 1, 2}, {0, 1, 2}}, nullptr);
    });
    // Up to the limit is fine.
    ConstraintRows One;
    EXPECT_NO_THROW(One.push_back(Row));
  }

  // A generated system past the limit fails the same way, serially and
  // on four threads, instead of wrapping its offsets.
  corpus::Corpus Data = testutil::makeCorpus(4444, 6);
  size_t Terms = generate(Data, 1).Constraints.numTerms();
  ASSERT_GT(Terms, 10u);
  std::string Below = std::to_string(Terms - 1);
  ScopedLimit Limit(Below.c_str());
  for (unsigned Jobs : {1u, 4u})
    expectOverflowError([&] { generate(Data, Jobs); });
}

TEST(PrepareSystemTest, EventRepsMatchThePerOccurrenceFilter) {
  corpus::Corpus Data = testutil::makeCorpus(4545, 40);
  propgraph::PropagationGraph Graph = testutil::buildGlobalGraph(Data);
  propgraph::RepTable Reps;
  Reps.countOccurrences(Graph);
  ThreadPool Pool(4);
  for (size_t Cutoff : {1u, 5u, 40u}) {
    SCOPED_TRACE("cutoff " + std::to_string(Cutoff));
    constraints::GenOptions Opts;
    Opts.RepCutoff = Cutoff;
    // Reference: cutoff, then blacklist, decided per occurrence.
    std::vector<std::vector<propgraph::RepId>> Want(Graph.numEvents());
    for (const propgraph::Event &E : Graph.events())
      for (propgraph::RepId Id : Reps.backoffOptions(E, Cutoff))
        if (!Data.Seed.isBlacklisted(Reps.repString(Id)))
          Want[E.Id].push_back(Id);
    for (ThreadPool *P : {static_cast<ThreadPool *>(nullptr), &Pool}) {
      constraints::ConstraintSystem Sys =
          constraints::prepareSystem(Graph, Reps, Data.Seed, Opts, P);
      EXPECT_EQ(Sys.EventReps, Want);
    }
  }
}

} // namespace
