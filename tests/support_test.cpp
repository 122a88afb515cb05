//===- tests/support_test.cpp - Tests for the support library -------------===//

#include "support/Glob.h"
#include "support/Rng.h"
#include "support/StrUtil.h"
#include "support/TablePrinter.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <limits>
#include <set>
#include <sstream>

using namespace seldon;

namespace {

//===----------------------------------------------------------------------===//
// globMatch
//===----------------------------------------------------------------------===//

TEST(GlobTest, LiteralMatch) {
  EXPECT_TRUE(globMatch("flask.request", "flask.request"));
  EXPECT_FALSE(globMatch("flask.request", "flask.requests"));
  EXPECT_FALSE(globMatch("flask.requests", "flask.request"));
  EXPECT_TRUE(globMatch("", ""));
  EXPECT_FALSE(globMatch("", "x"));
}

TEST(GlobTest, LeadingStar) {
  EXPECT_TRUE(globMatch("*tensorflow*", "tensorflow"));
  EXPECT_TRUE(globMatch("*tensorflow*", "a.tensorflow.b"));
  EXPECT_FALSE(globMatch("*tensorflow*", "tensorflo"));
}

TEST(GlobTest, SuffixPattern) {
  // Paper App. B blacklists patterns like `*.all()`.
  EXPECT_TRUE(globMatch("*.all()", "MyModel.objects.all()"));
  EXPECT_FALSE(globMatch("*.all()", "all()"));
  EXPECT_FALSE(globMatch("*.all()", "x.all().filter()"));
}

TEST(GlobTest, PrefixPattern) {
  EXPECT_TRUE(globMatch("flask.Flask()*", "flask.Flask()"));
  EXPECT_TRUE(globMatch("flask.Flask()*", "flask.Flask().run()"));
  EXPECT_FALSE(globMatch("flask.Flask()*", "myflask.Flask()"));
}

TEST(GlobTest, MultipleStars) {
  EXPECT_TRUE(globMatch("*a*b*", "xaYb"));
  EXPECT_TRUE(globMatch("*a*b*", "ab"));
  EXPECT_FALSE(globMatch("*a*b*", "ba"));
  EXPECT_TRUE(globMatch("a**b", "ab"));
  EXPECT_TRUE(globMatch("a**b", "axxb"));
}

TEST(GlobTest, StarOnly) {
  EXPECT_TRUE(globMatch("*", ""));
  EXPECT_TRUE(globMatch("*", "anything.at.all()"));
}

TEST(GlobTest, BacktrackingStress) {
  // Degenerate pattern that exercises the backtracking path.
  std::string Text(200, 'a');
  EXPECT_TRUE(globMatch("*a*a*a*a*a*b*", Text + "b"));
  EXPECT_FALSE(globMatch("*a*a*a*a*a*b*", Text));
}

TEST(GlobSetTest, ExactAndWildcardBuckets) {
  GlobSet Set;
  Set.add("json.dump()");
  Set.add("*logging*");
  EXPECT_EQ(Set.size(), 2u);
  EXPECT_TRUE(Set.matches("json.dump()"));
  EXPECT_FALSE(Set.matches("json.dumps()"));
  EXPECT_TRUE(Set.matches("my.logging.handler()"));
  EXPECT_FALSE(Set.matches("logger"));
}

TEST(GlobSetTest, EmptySetMatchesNothing) {
  GlobSet Set;
  EXPECT_TRUE(Set.empty());
  EXPECT_FALSE(Set.matches("anything"));
}

TEST(GlobSetTest, DuplicatePatternsPreservedInOriginalOrder) {
  GlobSet Set;
  Set.add("json.dump()");
  Set.add("*logging*");
  Set.add("json.dump()");
  EXPECT_EQ(Set.size(), 3u);
  ASSERT_EQ(Set.patterns().size(), 3u);
  EXPECT_EQ(Set.patterns()[0], "json.dump()");
  EXPECT_EQ(Set.patterns()[1], "*logging*");
  EXPECT_EQ(Set.patterns()[2], "json.dump()");
  EXPECT_TRUE(Set.matches("json.dump()"));
}

TEST(GlobSetTest, EmptyPatternMatchesOnlyEmptyText) {
  GlobSet Set;
  Set.add("");
  EXPECT_FALSE(Set.empty());
  EXPECT_TRUE(Set.matches(""));
  EXPECT_FALSE(Set.matches("x"));
}

//===----------------------------------------------------------------------===//
// Rng
//===----------------------------------------------------------------------===//

TEST(RngTest, Deterministic) {
  Rng A(42), B(42);
  for (int I = 0; I < 100; ++I)
    EXPECT_EQ(A.next(), B.next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng A(1), B(2);
  int Same = 0;
  for (int I = 0; I < 64; ++I)
    Same += A.next() == B.next();
  EXPECT_LT(Same, 2);
}

TEST(RngTest, NextBelowInRange) {
  Rng R(7);
  for (int I = 0; I < 1000; ++I)
    EXPECT_LT(R.nextBelow(17), 17u);
}

TEST(RngTest, NextBelowCoversAllResidues) {
  Rng R(9);
  std::set<uint64_t> Seen;
  for (int I = 0; I < 500; ++I)
    Seen.insert(R.nextBelow(5));
  EXPECT_EQ(Seen.size(), 5u);
}

TEST(RngTest, NextInRangeInclusive) {
  Rng R(11);
  bool SawLo = false, SawHi = false;
  for (int I = 0; I < 2000; ++I) {
    int64_t V = R.nextInRange(-3, 3);
    EXPECT_GE(V, -3);
    EXPECT_LE(V, 3);
    SawLo |= V == -3;
    SawHi |= V == 3;
  }
  EXPECT_TRUE(SawLo);
  EXPECT_TRUE(SawHi);
}

TEST(RngTest, NextDoubleUnitInterval) {
  Rng R(13);
  double Sum = 0;
  for (int I = 0; I < 10000; ++I) {
    double D = R.nextDouble();
    EXPECT_GE(D, 0.0);
    EXPECT_LT(D, 1.0);
    Sum += D;
  }
  EXPECT_NEAR(Sum / 10000, 0.5, 0.02);
}

TEST(RngTest, ForkIndependence) {
  Rng A(99);
  Rng Child = A.fork();
  // The child stream should not simply replay the parent stream.
  Rng B(99);
  B.fork();
  EXPECT_EQ(A.next(), B.next()) << "fork must advance parent deterministically";
  (void)Child;
}

TEST(RngTest, ShuffleIsPermutation) {
  Rng R(5);
  std::vector<int> V{1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<int> Orig = V;
  R.shuffle(V);
  std::multiset<int> A(V.begin(), V.end()), B(Orig.begin(), Orig.end());
  EXPECT_EQ(A, B);
}

//===----------------------------------------------------------------------===//
// StrUtil
//===----------------------------------------------------------------------===//

TEST(StrUtilTest, SplitBasic) {
  auto Parts = splitString("a.b.c", '.');
  ASSERT_EQ(Parts.size(), 3u);
  EXPECT_EQ(Parts[0], "a");
  EXPECT_EQ(Parts[2], "c");
}

TEST(StrUtilTest, SplitEmptyPieces) {
  auto Parts = splitString("..", '.');
  ASSERT_EQ(Parts.size(), 3u);
  for (const auto &P : Parts)
    EXPECT_TRUE(P.empty());
}

TEST(StrUtilTest, SplitEmptyString) {
  auto Parts = splitString("", '.');
  ASSERT_EQ(Parts.size(), 1u);
  EXPECT_TRUE(Parts[0].empty());
}

TEST(StrUtilTest, SplitLeadingAndTrailingSeparators) {
  auto Lead = splitString(".a", '.');
  ASSERT_EQ(Lead.size(), 2u);
  EXPECT_TRUE(Lead[0].empty());
  EXPECT_EQ(Lead[1], "a");

  auto Trail = splitString("a.", '.');
  ASSERT_EQ(Trail.size(), 2u);
  EXPECT_EQ(Trail[0], "a");
  EXPECT_TRUE(Trail[1].empty());
}

TEST(StrUtilTest, SplitSeparatorNotPresent) {
  auto Parts = splitString("abc", '.');
  ASSERT_EQ(Parts.size(), 1u);
  EXPECT_EQ(Parts[0], "abc");
}

TEST(StrUtilTest, JoinRoundTrip) {
  std::vector<std::string> Parts{"flask", "request", "args"};
  EXPECT_EQ(joinStrings(Parts, "."), "flask.request.args");
  EXPECT_EQ(splitString(joinStrings(Parts, "."), '.'), Parts);
}

TEST(StrUtilTest, JoinEmpty) {
  EXPECT_EQ(joinStrings({}, ","), "");
}

TEST(StrUtilTest, Trim) {
  EXPECT_EQ(trim("  x  "), "x");
  EXPECT_EQ(trim("\t\r\nx\n"), "x");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("   "), "");
  EXPECT_EQ(trim("a b"), "a b");
}

TEST(StrUtilTest, TrimIsViewIntoInput) {
  // trim returns a view, so no whitespace-only prefix/suffix copies.
  std::string S = "  payload\t";
  std::string_view V = trim(S);
  EXPECT_EQ(V, "payload");
  EXPECT_GE(V.data(), S.data());
  EXPECT_LE(V.data() + V.size(), S.data() + S.size());
}

TEST(StrUtilTest, TrimAllWhitespaceKinds) {
  EXPECT_EQ(trim(" \t\r\n\f\v"), "");
  EXPECT_EQ(trim("\va\f"), "a");
}

TEST(StrUtilTest, JsonEscapeControlAndQuotes) {
  EXPECT_EQ(jsonEscape("plain"), "plain");
  EXPECT_EQ(jsonEscape("a\"b"), "a\\\"b");
  EXPECT_EQ(jsonEscape("a\\b"), "a\\\\b");
  EXPECT_EQ(jsonEscape("a\nb\tc"), "a\\nb\\tc");
}

TEST(StrUtilTest, FormatString) {
  EXPECT_EQ(formatString("%d/%d = %.2f", 1, 2, 0.5), "1/2 = 0.50");
  EXPECT_EQ(formatString("%s", "hello"), "hello");
  EXPECT_EQ(formatString("empty"), "empty");
}

TEST(StrUtilTest, AppendJsonEscapedMatchesJsonEscape) {
  // Every byte value, alone and between plain runs.
  for (int C = 0; C < 256; ++C) {
    std::string Text = "ab" + std::string(1, static_cast<char>(C)) + "cd";
    std::string Out = "prefix:";
    appendJsonEscaped(Out, Text);
    EXPECT_EQ(Out, "prefix:" + jsonEscape(Text)) << C;
  }
  EXPECT_EQ(jsonEscape(std::string("\x01\x1f", 2)), "\\u0001\\u001f");
  EXPECT_EQ(jsonEscape(""), "");
}

//===----------------------------------------------------------------------===//
// appendFixed / appendGeneral: byte-equal to printf
//===----------------------------------------------------------------------===//

std::string printfDouble(const char *Fmt, double V) {
  char Buf[512];
  int N = std::snprintf(Buf, sizeof(Buf), Fmt, V);
  return std::string(Buf, static_cast<size_t>(N));
}

/// Checks the to_chars path against printf for every format the explain
/// renderers use: %.6f (scores, residuals), %.2f (constants) and %.3g
/// (float coefficients promoted to double).
void expectPrintfEqual(double V) {
  std::string Fixed6, Fixed2, General3;
  appendFixed(Fixed6, V, 6);
  appendFixed(Fixed2, V, 2);
  EXPECT_EQ(Fixed6, printfDouble("%.6f", V));
  EXPECT_EQ(Fixed2, printfDouble("%.2f", V));
  double AsFloat = static_cast<double>(static_cast<float>(V));
  appendGeneral(General3, AsFloat, 3);
  EXPECT_EQ(General3, printfDouble("%.3g", AsFloat));
}

TEST(NumberFormatTest, SpecialValues) {
  const double Inf = std::numeric_limits<double>::infinity();
  const double NaN = std::numeric_limits<double>::quiet_NaN();
  for (double V : {0.0, -0.0, 1.0, -1.0, 1e300, -1e300, 1e-300, Inf, -Inf,
                   NaN, -NaN, std::numeric_limits<double>::max(),
                   -std::numeric_limits<double>::max(),
                   std::numeric_limits<double>::denorm_min(),
                   std::numeric_limits<double>::min()}) {
    SCOPED_TRACE(V);
    expectPrintfEqual(V);
  }
  std::string Out;
  appendFixed(Out, -0.0, 6);
  EXPECT_EQ(Out, "-0.000000");
}

TEST(NumberFormatTest, TinyNegativesRoundToNegativeZero) {
  for (double V : {-1e-7, -4.9999e-7, -1e-12, -5e-324, -0.004, -0.0049}) {
    SCOPED_TRACE(V);
    expectPrintfEqual(V);
  }
  std::string Out;
  appendFixed(Out, -1e-9, 6);
  EXPECT_EQ(Out, "-0.000000");
}

TEST(NumberFormatTest, HalfwayCases) {
  // Exactly representable ties: printf rounds them to even.
  for (double V : {0.125, 0.375, 0.625, 0.875, -0.125, 1.125, 2.5, 12.25,
                   12.75, 0.0625, 1.0625, 100.5, 1000.5, 1234.5, 0.5, 1.5,
                   0.0000005, 0.0000015, 1.0000005, 123456.5, 99.995,
                   0.995, 9.995, 999.5}) {
    SCOPED_TRACE(V);
    expectPrintfEqual(V);
  }
}

TEST(NumberFormatTest, RandomBitPatterns) {
  Rng R(20190622);
  for (int I = 0; I < 200000; ++I) {
    uint64_t Bits = R.next();
    double V;
    std::memcpy(&V, &Bits, sizeof(V));
    expectPrintfEqual(V);
    // Values in the range the renderers actually see.
    double Small = static_cast<double>(static_cast<int64_t>(Bits % 4000001) -
                                       2000000) /
                   static_cast<double>(1 + (Bits >> 40) % 100000);
    expectPrintfEqual(Small);
    if (::testing::Test::HasFailure()) {
      ADD_FAILURE() << "bits " << Bits;
      return;
    }
  }
}

TEST(NumberFormatTest, RandomFloatCoefficients) {
  Rng R(7);
  for (int I = 0; I < 200000; ++I) {
    uint32_t Bits = static_cast<uint32_t>(R.next());
    float F;
    std::memcpy(&F, &Bits, sizeof(F));
    std::string Out;
    appendGeneral(Out, F, 3);
    ASSERT_EQ(Out, printfDouble("%.3g", F)) << "bits " << Bits;
  }
}

//===----------------------------------------------------------------------===//
// TablePrinter
//===----------------------------------------------------------------------===//

TEST(TablePrinterTest, AlignsColumns) {
  TablePrinter T({"Role", "Count"});
  T.addRow({"Sources", "4384"});
  T.addRow({"Sinks", "866"});
  std::ostringstream OS;
  T.print(OS);
  std::string Out = OS.str();
  EXPECT_NE(Out.find("Role"), std::string::npos);
  EXPECT_NE(Out.find("Sources  4384"), std::string::npos);
  EXPECT_NE(Out.find("Sinks"), std::string::npos);
  EXPECT_EQ(T.numRows(), 2u);
}

TEST(TablePrinterTest, PadsMissingCells) {
  TablePrinter T({"A", "B", "C"});
  T.addRow({"x"});
  std::ostringstream OS;
  T.print(OS);
  EXPECT_NE(OS.str().find('x'), std::string::npos);
}

} // namespace
