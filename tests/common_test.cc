// Unit tests for common/: Status, Result, strings, Rng.

#include <gtest/gtest.h>

#include <set>

#include "common/result.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/strings.h"

namespace galois {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::ParseError("bad token");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kParseError);
  EXPECT_EQ(s.message(), "bad token");
  EXPECT_EQ(s.ToString(), "ParseError: bad token");
}

TEST(StatusTest, EveryCodeHasAName) {
  for (StatusCode code :
       {StatusCode::kOk, StatusCode::kInvalidArgument, StatusCode::kNotFound,
        StatusCode::kAlreadyExists, StatusCode::kOutOfRange,
        StatusCode::kUnimplemented, StatusCode::kInternal,
        StatusCode::kParseError, StatusCode::kBindError,
        StatusCode::kTypeError, StatusCode::kExecutionError,
        StatusCode::kLlmError}) {
    EXPECT_STRNE(StatusCodeName(code), "Unknown");
  }
}

TEST(StatusTest, Equality) {
  EXPECT_EQ(Status::OK(), Status());
  EXPECT_EQ(Status::NotFound("x"), Status::NotFound("x"));
  EXPECT_FALSE(Status::NotFound("x") == Status::NotFound("y"));
}

Result<int> ParsePositive(int v) {
  if (v <= 0) return Status::InvalidArgument("not positive");
  return v;
}

Result<int> Doubled(int v) {
  GALOIS_ASSIGN_OR_RETURN(int x, ParsePositive(v));
  return x * 2;
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::NotFound("gone");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(r.value_or(-1), -1);
}

TEST(ResultTest, AssignOrReturnPropagates) {
  EXPECT_EQ(Doubled(21).value(), 42);
  EXPECT_FALSE(Doubled(-1).ok());
  EXPECT_EQ(Doubled(-1).status().code(), StatusCode::kInvalidArgument);
}

TEST(ResultTest, MoveOnlyValue) {
  Result<std::unique_ptr<int>> r = std::make_unique<int>(7);
  ASSERT_TRUE(r.ok());
  std::unique_ptr<int> v = std::move(r).value();
  EXPECT_EQ(*v, 7);
}

TEST(StringsTest, CaseConversion) {
  EXPECT_EQ(ToLower("MiXeD 42!"), "mixed 42!");
  EXPECT_EQ(ToUpper("MiXeD 42!"), "MIXED 42!");
}

TEST(StringsTest, Trim) {
  EXPECT_EQ(Trim("  hello \t\n"), "hello");
  EXPECT_EQ(Trim(""), "");
  EXPECT_EQ(Trim("   "), "");
  EXPECT_EQ(Trim("x"), "x");
}

TEST(StringsTest, SplitBasics) {
  EXPECT_EQ(Split("a,b,c", ','),
            (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(Split("a, b , c", ',', /*trim=*/true),
            (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(Split("a,,c", ',', false, /*skip_empty=*/true),
            (std::vector<std::string>{"a", "c"}));
  EXPECT_EQ(Split("", ','), (std::vector<std::string>{""}));
  EXPECT_EQ(Split("", ',', false, true), (std::vector<std::string>{}));
}

TEST(StringsTest, JoinRoundTrip) {
  std::vector<std::string> parts{"x", "y", "z"};
  EXPECT_EQ(Join(parts, ", "), "x, y, z");
  EXPECT_EQ(Join({}, ", "), "");
  EXPECT_EQ(Join({"solo"}, ", "), "solo");
}

TEST(StringsTest, StartsEndsWith) {
  EXPECT_TRUE(StartsWith("galois", "gal"));
  EXPECT_FALSE(StartsWith("gal", "galois"));
  EXPECT_TRUE(EndsWith("galois", "ois"));
  EXPECT_FALSE(EndsWith("ois", "galois"));
  EXPECT_TRUE(StartsWith("x", ""));
  EXPECT_TRUE(EndsWith("x", ""));
}

TEST(StringsTest, EqualsIgnoreCase) {
  EXPECT_TRUE(EqualsIgnoreCase("SELECT", "select"));
  EXPECT_FALSE(EqualsIgnoreCase("SELECT", "selec"));
  EXPECT_TRUE(EqualsIgnoreCase("", ""));
}

TEST(StringsTest, ContainsIgnoreCase) {
  EXPECT_TRUE(ContainsIgnoreCase("independenceYear", "YEAR"));
  EXPECT_FALSE(ContainsIgnoreCase("code", "year"));
  EXPECT_TRUE(ContainsIgnoreCase("anything", ""));
}

TEST(StringsTest, ReplaceAll) {
  EXPECT_EQ(ReplaceAll("1,234,567", ",", ""), "1234567");
  EXPECT_EQ(ReplaceAll("aaa", "a", "bb"), "bbbbbb");
  EXPECT_EQ(ReplaceAll("none", "x", "y"), "none");
}

TEST(StringsTest, SplitIdentifierWords) {
  EXPECT_EQ(SplitIdentifierWords("cityMayor"),
            (std::vector<std::string>{"city", "mayor"}));
  EXPECT_EQ(SplitIdentifierWords("birth_date"),
            (std::vector<std::string>{"birth", "date"}));
  EXPECT_EQ(SplitIdentifierWords("GDP"),
            (std::vector<std::string>{"gdp"}));
  EXPECT_EQ(SplitIdentifierWords("independenceYear"),
            (std::vector<std::string>{"independence", "year"}));
}

TEST(StringsTest, HumanizeIdentifier) {
  EXPECT_EQ(HumanizeIdentifier("birthDate"), "birth date");
  EXPECT_EQ(HumanizeIdentifier("electionYear"), "election year");
  EXPECT_EQ(HumanizeIdentifier("name"), "name");
}

TEST(RngTest, Deterministic) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.Next() == b.Next()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(RngTest, DoubleInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, IntInRange) {
  Rng rng(7);
  std::set<int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    int64_t v = rng.NextInt(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);  // all values hit
}

TEST(RngTest, IntDegenerateRange) {
  Rng rng(7);
  EXPECT_EQ(rng.NextInt(5, 5), 5);
  EXPECT_EQ(rng.NextInt(5, 4), 5);  // lo >= hi clamps to lo
}

TEST(RngTest, BoolProbability) {
  Rng rng(42);
  int heads = 0;
  const int n = 10000;
  for (int i = 0; i < n; ++i) {
    if (rng.NextBool(0.25)) ++heads;
  }
  EXPECT_NEAR(static_cast<double>(heads) / n, 0.25, 0.03);
}

TEST(RngTest, ShufflePermutes) {
  Rng rng(5);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<int> orig = v;
  rng.Shuffle(&v);
  std::multiset<int> a(v.begin(), v.end());
  std::multiset<int> b(orig.begin(), orig.end());
  EXPECT_EQ(a, b);
}

TEST(RngTest, HashStringStable) {
  EXPECT_EQ(Rng::HashString("galois"), Rng::HashString("galois"));
  EXPECT_NE(Rng::HashString("galois"), Rng::HashString("Galois"));
  EXPECT_NE(Rng::HashString(""), Rng::HashString("a"));
}

}  // namespace
}  // namespace galois
