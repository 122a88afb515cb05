//===- tests/active_learning_test.cpp - Active-learning loop --------------===//
//
// Differential tests of the active-learning loop on the seeded synthetic
// corpus: starting from half the hand-written seed, the loop must recover
// full-seed passive quality with measurably fewer oracle labels than
// pinning every candidate, the query transcript and learned spec must be
// byte-identical at any --jobs value, and a replayed transcript must
// reproduce the run exactly.
//
//===----------------------------------------------------------------------===//

#include "TestCorpus.h"

#include "active/ActiveLearner.h"
#include "active/Oracle.h"
#include "active/Uncertainty.h"
#include "eval/Precision.h"
#include "spec/SpecIO.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

using namespace seldon;
using namespace seldon::active;

namespace {

constexpr uint64_t CorpusSeed = 13;
constexpr int CorpusProjects = 8;
constexpr int SolveIterations = 300;

infer::PipelineOptions testPipelineOptions(unsigned Jobs = 1) {
  infer::PipelineOptions P;
  P.Solve.MaxIterations = SolveIterations;
  P.Jobs = Jobs;
  return P;
}

ActiveResult runActive(const corpus::Corpus &Data, Oracle &O,
                       const ActiveOptions &AO, unsigned Jobs = 1) {
  infer::Session S(testPipelineOptions(Jobs));
  S.addProjects(Data.Projects);
  return runActiveLoop(S, Data.Seed, O, AO);
}

std::string specBytes(const spec::LearnedSpec &Learned) {
  return spec::writeLearnedSpec(Learned, /*MinScore=*/0.0);
}

void expectSameTranscript(const ActiveResult &A, const ActiveResult &B) {
  ASSERT_EQ(A.Transcript.size(), B.Transcript.size());
  for (size_t I = 0; I < A.Transcript.size(); ++I) {
    EXPECT_EQ(A.Transcript[I].Rep, B.Transcript[I].Rep) << "query " << I;
    EXPECT_EQ(A.Transcript[I].R, B.Transcript[I].R) << "query " << I;
    EXPECT_EQ(A.Transcript[I].A, B.Transcript[I].A) << "query " << I;
  }
}

//===----------------------------------------------------------------------===//
// Label efficiency: starting from half the hand-written seed, active
// recovers full-seed passive quality with measurably fewer oracle labels
// than labeling every candidate.
//===----------------------------------------------------------------------===//

TEST(ActiveLearningTest, RecoversFullSeedQualityWithHalfTheLabels) {
  // The larger corpus gives the loop a meaningful candidate pool and a
  // full-seed target the halved seed clearly misses. (On tiny corpora the
  // full seed predicts representations that never surface as variables,
  // so no amount of labeling can close the gap.)
  corpus::Corpus Data = testutil::makeCorpus(CorpusSeed, 16);
  const double Threshold = 0.1;
  spec::SeedSpec Half = Data.Seed.halved();

  // Both runs score against the halved seed's exclusion set, so the
  // withheld seed entries count as predictions the loop must recover.
  auto passiveF1 = [&](const spec::SeedSpec &Seed) {
    infer::Session S(testPipelineOptions());
    S.addProjects(Data.Projects);
    S.generateConstraints(Seed);
    return eval::macroF1(S.solve().Learned, Data.Truth, Half, Threshold);
  };
  const double TargetF1 = passiveF1(Data.Seed);
  ASSERT_GT(TargetF1, 0.0);
  ASSERT_LT(passiveF1(Half), TargetF1)
      << "halving the seed must cost quality, or recovery is vacuous";

  GroundTruthOracle O(Data.Truth);
  ActiveOptions AO;
  AO.Threshold = Threshold;
  AO.QueriesPerRound = 6;
  AO.MaxRounds = 1'000'000; // Let StopWhen decide; labels are the metric.
  AO.StopWhen = [&](const infer::PipelineResult &R) {
    return eval::macroF1(R.Learned, Data.Truth, Half, Threshold) >=
           TargetF1 - 1e-9;
  };
  infer::Session S(testPipelineOptions());
  S.addProjects(Data.Projects);
  ActiveResult AR = runActiveLoop(S, Half, O, AO);

  EXPECT_TRUE(AR.Converged)
      << "active never recovered the full-seed F1; queried "
      << AR.TotalQueries << " of " << AR.Candidates;
  EXPECT_GE(eval::macroF1(AR.Final.Learned, Data.Truth, Half, Threshold),
            TargetF1 - 1e-9);
  ASSERT_GT(AR.Candidates, 0u);
  // The label-efficiency claim: at most half the pin-everything labels.
  EXPECT_LE(AR.TotalQueries * 2, AR.Candidates)
      << "active needed " << AR.TotalQueries << " labels; pinning "
      << "everything costs " << AR.Candidates;
}

//===----------------------------------------------------------------------===//
// Determinism: byte-identical specs and transcripts across jobs and
// repeated runs.
//===----------------------------------------------------------------------===//

ActiveOptions shortRun() {
  ActiveOptions AO;
  AO.MaxRounds = 3;
  AO.QueriesPerRound = 6;
  return AO;
}

TEST(ActiveLearningTest, ByteIdenticalAcrossJobs) {
  corpus::Corpus Data = testutil::makeCorpus(CorpusSeed, CorpusProjects);
  GroundTruthOracle O1(Data.Truth), O4(Data.Truth);
  ActiveResult A = runActive(Data, O1, shortRun(), /*Jobs=*/1);
  ActiveResult B = runActive(Data, O4, shortRun(), /*Jobs=*/4);
  expectSameTranscript(A, B);
  EXPECT_EQ(specBytes(A.Final.Learned), specBytes(B.Final.Learned));
}

TEST(ActiveLearningTest, QueryOrderIsDeterministic) {
  corpus::Corpus Data = testutil::makeCorpus(CorpusSeed, CorpusProjects);
  GroundTruthOracle OA(Data.Truth), OB(Data.Truth);
  ActiveResult A = runActive(Data, OA, shortRun());
  ActiveResult B = runActive(Data, OB, shortRun());
  expectSameTranscript(A, B);
  ASSERT_EQ(A.Rounds.size(), B.Rounds.size());
  EXPECT_EQ(A.TotalQueries, B.TotalQueries);
  EXPECT_EQ(A.TotalPinned, B.TotalPinned);
}

//===----------------------------------------------------------------------===//
// Replay: a ground-truth run's transcript, serialized and re-loaded as a
// FileOracle, reproduces the run byte for byte.
//===----------------------------------------------------------------------===//

TEST(ActiveLearningTest, TranscriptReplaysByteIdentically) {
  corpus::Corpus Data = testutil::makeCorpus(CorpusSeed, CorpusProjects);
  GroundTruthOracle Live(Data.Truth);
  ActiveResult A = runActive(Data, Live, shortRun());
  ASSERT_GT(A.Transcript.size(), 0u);

  std::string Json = writeOracleFile(A.Transcript);
  FileOracle Replay;
  std::string Error;
  ASSERT_TRUE(FileOracle::parse(Json, Replay, Error)) << Error;
  EXPECT_EQ(Replay.size(), A.Transcript.size());

  ActiveResult B = runActive(Data, Replay, shortRun());
  expectSameTranscript(A, B);
  EXPECT_EQ(specBytes(A.Final.Learned), specBytes(B.Final.Learned));
}

TEST(ActiveLearningTest, UnknownAnswersCountButNeverPin) {
  corpus::Corpus Data = testutil::makeCorpus(CorpusSeed, CorpusProjects);
  FileOracle Empty; // No entries: every answer is Unknown.
  ActiveResult A = runActive(Data, Empty, shortRun());
  EXPECT_GT(A.TotalQueries, 0u);
  EXPECT_EQ(A.TotalPinned, 0u);
  for (const OracleExchange &E : A.Transcript)
    EXPECT_EQ(E.A, OracleAnswer::Unknown) << E.Rep;
  // Unknown exchanges would replay as no-ops, so the serializer drops
  // them entirely.
  EXPECT_EQ(writeOracleFile(A.Transcript), "{\"answers\":[]}\n");
}

//===----------------------------------------------------------------------===//
// Budget and stopping rules
//===----------------------------------------------------------------------===//

TEST(ActiveLearningTest, MaxQueriesCapsTheRun) {
  corpus::Corpus Data = testutil::makeCorpus(CorpusSeed, CorpusProjects);
  GroundTruthOracle O(Data.Truth);
  ActiveOptions AO;
  AO.MaxRounds = 100;
  AO.QueriesPerRound = 4;
  AO.MaxQueries = 10; // Not a multiple of the round size: last round is 2.
  ActiveResult A = runActive(Data, O, AO);
  EXPECT_EQ(A.TotalQueries, 10u);
  EXPECT_FALSE(A.Converged); // A budget stop is not convergence.
  ASSERT_EQ(A.Rounds.size(), 3u);
  EXPECT_EQ(A.Rounds.back().Queried, 2u);
}

TEST(ActiveLearningTest, StableRoundsStopsEarly) {
  corpus::Corpus Data = testutil::makeCorpus(CorpusSeed, CorpusProjects);
  // An oracle with no opinions: rounds query but never pin, so the
  // selected role set cannot move and the stability rule must fire after
  // exactly StableRounds rounds — well before the candidates run out.
  FileOracle Undecided;
  ActiveOptions AO;
  AO.MaxRounds = 1'000'000;
  AO.QueriesPerRound = 4;
  AO.StableRounds = 2;
  ActiveResult A = runActive(Data, Undecided, AO);
  EXPECT_TRUE(A.Converged);
  EXPECT_EQ(A.Rounds.size(), 2u);
  EXPECT_EQ(A.TotalQueries, 8u);
  EXPECT_EQ(A.TotalPinned, 0u);
  EXPECT_LT(A.TotalQueries, A.Candidates);
}

//===----------------------------------------------------------------------===//
// Uncertainty ranking
//===----------------------------------------------------------------------===//

TEST(UncertaintyTest, RanksByDistanceToThresholdWithNamedTies) {
  corpus::Corpus Data = testutil::makeCorpus(CorpusSeed, CorpusProjects);
  infer::Session S(testPipelineOptions());
  S.addProjects(Data.Projects);
  S.generateConstraints(Data.Seed);
  infer::PipelineResult R = S.solve();

  std::vector<uint8_t> None(S.system().Vars.numVars(), 0);
  std::vector<Candidate> Cands = rankUncertain(
      S.system(), S.reps(), R.Solve.X, 0.1, /*K=*/16, /*Band=*/1.0, None);
  ASSERT_FALSE(Cands.empty());
  for (size_t I = 1; I < Cands.size(); ++I) {
    const Candidate &P = Cands[I - 1], &C = Cands[I];
    if (P.Uncertainty != C.Uncertainty) {
      EXPECT_LT(P.Uncertainty, C.Uncertainty);
    } else if (P.Rep != C.Rep) {
      EXPECT_LT(P.Rep, C.Rep);
    } else {
      EXPECT_LT(P.R, C.R);
    }
  }
  // Pinned (seed) variables are never candidates.
  for (const auto &[Var, Value] : S.system().Pinned) {
    (void)Value;
    for (const Candidate &C : Cands)
      EXPECT_NE(C.Var, Var);
  }
}

TEST(UncertaintyTest, ExcludedAndBandedVariablesAreSkipped) {
  corpus::Corpus Data = testutil::makeCorpus(CorpusSeed, CorpusProjects);
  infer::Session S(testPipelineOptions());
  S.addProjects(Data.Projects);
  S.generateConstraints(Data.Seed);
  infer::PipelineResult R = S.solve();

  std::vector<uint8_t> None(S.system().Vars.numVars(), 0);
  std::vector<Candidate> All = rankUncertain(
      S.system(), S.reps(), R.Solve.X, 0.1, /*K=*/8, /*Band=*/1.0, None);
  ASSERT_FALSE(All.empty());

  // Excluding the top candidate promotes the rest.
  std::vector<uint8_t> Exclude = None;
  Exclude[All[0].Var] = 1;
  std::vector<Candidate> Rest = rankUncertain(
      S.system(), S.reps(), R.Solve.X, 0.1, /*K=*/8, /*Band=*/1.0, Exclude);
  ASSERT_FALSE(Rest.empty());
  EXPECT_NE(Rest[0].Var, All[0].Var);
  EXPECT_EQ(Rest[0].Var, All[1].Var);

  // A tight band keeps only near-threshold scores.
  std::vector<Candidate> Tight = rankUncertain(
      S.system(), S.reps(), R.Solve.X, 0.1, /*K=*/1000, /*Band=*/0.05,
      None);
  for (const Candidate &C : Tight)
    EXPECT_LE(C.Uncertainty, 0.05);
}

//===----------------------------------------------------------------------===//
// FileOracle parsing
//===----------------------------------------------------------------------===//

TEST(FileOracleTest, ParsesAnswersAndDefaultsToUnknown) {
  FileOracle O;
  std::string Error;
  ASSERT_TRUE(FileOracle::parse(
      "{\"answers\":["
      "{\"rep\":\"a.b()\",\"role\":\"source\",\"truth\":true},"
      "{\"rep\":\"c.d()\",\"role\":\"sink\",\"truth\":false}]}",
      O, Error))
      << Error;
  EXPECT_EQ(O.size(), 2u);
  EXPECT_EQ(O.answer("a.b()", propgraph::Role::Source), OracleAnswer::Yes);
  EXPECT_EQ(O.answer("c.d()", propgraph::Role::Sink), OracleAnswer::No);
  EXPECT_EQ(O.answer("a.b()", propgraph::Role::Sink),
            OracleAnswer::Unknown);
  EXPECT_EQ(O.answer("unheard.of()", propgraph::Role::Source),
            OracleAnswer::Unknown);
}

TEST(FileOracleTest, RejectsMalformedInput) {
  struct Case {
    const char *Json;
    const char *Why;
  } Cases[] = {
      {"[]", "top level must be an object"},
      {"{}", "missing answers"},
      {"{\"answers\":{}}", "answers must be an array"},
      {"{\"answers\":[42]}", "entry must be an object"},
      {"{\"answers\":[{\"role\":\"source\",\"truth\":true}]}", "no rep"},
      {"{\"answers\":[{\"rep\":\"a\",\"role\":\"boss\",\"truth\":true}]}",
       "bad role"},
      {"{\"answers\":[{\"rep\":\"a\",\"role\":\"sink\"}]}", "no truth"},
      {"{\"answers\":[{\"rep\":\"a\",\"role\":\"sink\",\"truth\":1}]}",
       "truth must be a boolean"},
  };
  for (const Case &C : Cases) {
    FileOracle O;
    std::string Error;
    EXPECT_FALSE(FileOracle::parse(C.Json, O, Error)) << C.Why;
    EXPECT_FALSE(Error.empty()) << C.Why;
  }
}

} // namespace
