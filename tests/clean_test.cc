// Unit + parameterized tests for the cleaning layer (Section 4's
// normalisation of LLM answers into typed CELL values).

#include <gtest/gtest.h>

#include <cmath>

#include "clean/normalize.h"

namespace galois::clean {
namespace {

TEST(CleanTest, IsUnknownVariants) {
  EXPECT_TRUE(IsUnknown("Unknown"));
  EXPECT_TRUE(IsUnknown("unknown."));
  EXPECT_TRUE(IsUnknown("  UNKNOWN  "));
  EXPECT_TRUE(IsUnknown("N/A"));
  EXPECT_TRUE(IsUnknown(""));
  EXPECT_FALSE(IsUnknown("Rome"));
}

TEST(CleanTest, IsNoMoreResults) {
  EXPECT_TRUE(IsNoMoreResults("No more results."));
  EXPECT_TRUE(IsNoMoreResults("no more results"));
  EXPECT_TRUE(IsNoMoreResults("None"));
  EXPECT_FALSE(IsNoMoreResults("Rome, Paris"));
}

TEST(CleanTest, StripVerbosity) {
  EXPECT_EQ(StripVerbosity("The population of Rome is 2.8 million."),
            "2.8 million");
  EXPECT_EQ(StripVerbosity("The capital of France is Paris."), "Paris");
  EXPECT_EQ(StripVerbosity("Paris"), "Paris");
  EXPECT_EQ(StripVerbosity("42"), "42");
}

TEST(CleanTest, SplitListCommaSeparated) {
  auto items = SplitList("Rome, Paris, Berlin");
  ASSERT_EQ(items.size(), 3u);
  EXPECT_EQ(items[0], "Rome");
  EXPECT_EQ(items[2], "Berlin");
}

TEST(CleanTest, SplitListBulleted) {
  auto items = SplitList("- Rome\n- Paris\n* Berlin");
  ASSERT_EQ(items.size(), 3u);
  EXPECT_EQ(items[1], "Paris");
}

TEST(CleanTest, SplitListDropsMarkersAndEmpties) {
  auto items = SplitList("Rome,, Paris\nNo more results.\nUnknown");
  ASSERT_EQ(items.size(), 2u);
}

TEST(CleanTest, SplitListStripsTrailingPunctuation) {
  auto items = SplitList("Rome., Paris!");
  ASSERT_EQ(items.size(), 2u);
  EXPECT_EQ(items[0], "Rome");
  EXPECT_EQ(items[1], "Paris");
}

struct NumberCase {
  const char* text;
  double expected;
};

class ParseNumberTest : public ::testing::TestWithParam<NumberCase> {};

TEST_P(ParseNumberTest, ParsesNoisyFormat) {
  auto r = ParseNumber(GetParam().text);
  ASSERT_TRUE(r.ok()) << GetParam().text << " -> " << r.status();
  EXPECT_DOUBLE_EQ(r.value(), GetParam().expected) << GetParam().text;
}

INSTANTIATE_TEST_SUITE_P(
    Formats, ParseNumberTest,
    ::testing::Values(
        NumberCase{"42", 42.0}, NumberCase{"-7", -7.0},
        NumberCase{"3.5", 3.5}, NumberCase{"1,234,567", 1234567.0},
        NumberCase{"1.2k", 1200.0}, NumberCase{"3M", 3000000.0},
        NumberCase{"0.5B", 500000000.0}, NumberCase{"2 million", 2000000.0},
        NumberCase{"450 thousand", 450000.0},
        NumberCase{"1.1 billion", 1100000000.0},
        NumberCase{"about 120", 120.0}, NumberCase{"~45", 45.0},
        NumberCase{"$300", 300.0}, NumberCase{"approximately 88", 88.0},
        NumberCase{"1200.", 1200.0}, NumberCase{"  64  ", 64.0}));

TEST(ParseNumberErrors, RejectsNonNumbers) {
  EXPECT_FALSE(ParseNumber("Rome").ok());
  EXPECT_FALSE(ParseNumber("").ok());
  EXPECT_FALSE(ParseNumber("twelve").ok());
  EXPECT_FALSE(ParseNumber("12 apples").ok());
}

TEST(ParseNumberErrors, RejectsNonFiniteAndNonDecimalForms) {
  // strtod reads all of these; none is a decimal answer.
  for (const char* text : {"nan", "NaN", "-nan", "inf", "-inf", "Infinity",
                           "0x10", "0x1p3", "1e400", "-1e400", "nank",
                           "1e400 million"}) {
    EXPECT_FALSE(ParseNumber(text).ok()) << text;
  }
  // Decimal exponents are still numbers.
  EXPECT_DOUBLE_EQ(ParseNumber("1e3").value(), 1000.0);
}

struct DateCase {
  const char* text;
  int64_t packed;
};

class ParseDateTest : public ::testing::TestWithParam<DateCase> {};

TEST_P(ParseDateTest, ParsesNoisyFormat) {
  auto r = ParseDate(GetParam().text);
  ASSERT_TRUE(r.ok()) << GetParam().text << " -> " << r.status();
  EXPECT_EQ(r.value().date_packed(), GetParam().packed)
      << GetParam().text;
}

INSTANTIATE_TEST_SUITE_P(
    Formats, ParseDateTest,
    ::testing::Values(DateCase{"1962-08-04", 19620804},
                      DateCase{"August 4, 1962", 19620804},
                      DateCase{"4 August 1962", 19620804},
                      DateCase{"04/08/1962", 19620804},
                      DateCase{"December 7, 1960", 19601207},
                      DateCase{"1 January 2000", 20000101}));

TEST(ParseDateErrors, RejectsNonDates) {
  EXPECT_FALSE(ParseDate("Rome").ok());
  EXPECT_FALSE(ParseDate("13/13/1990").ok());
  EXPECT_FALSE(ParseDate("").ok());
}

TEST(CleanTest, ParseBool) {
  EXPECT_TRUE(ParseBool("Yes.").value());
  EXPECT_TRUE(ParseBool("yes").value());
  EXPECT_TRUE(ParseBool("TRUE").value());
  EXPECT_FALSE(ParseBool("No.").value());
  EXPECT_FALSE(ParseBool("false").value());
  EXPECT_FALSE(ParseBool("maybe").ok());
}

TEST(NormalizeCellTest, UnknownBecomesNull) {
  EXPECT_TRUE(NormalizeCell("Unknown", DataType::kInt64).value().is_null());
  EXPECT_TRUE(
      NormalizeCell("Unknown", DataType::kString).value().is_null());
}

TEST(NormalizeCellTest, IntParsingWithFormats) {
  EXPECT_EQ(NormalizeCell("2.8M", DataType::kInt64).value(),
            Value::Int(2800000));
  EXPECT_EQ(NormalizeCell("1,234", DataType::kInt64).value(),
            Value::Int(1234));
}

TEST(NormalizeCellTest, VerboseWrapperStripped) {
  EXPECT_EQ(NormalizeCell("The population of Rome is 2.8M.",
                          DataType::kInt64)
                .value(),
            Value::Int(2800000));
  EXPECT_EQ(NormalizeCell("The capital of France is Paris.",
                          DataType::kString)
                .value(),
            Value::String("Paris"));
}

TEST(NormalizeCellTest, UnparseableNumericBecomesNull) {
  EXPECT_TRUE(
      NormalizeCell("lots", DataType::kInt64).value().is_null());
}

TEST(NormalizeCellTest, NonFiniteAnswersBecomeNull) {
  for (const char* text : {"NaN", "inf", "-Infinity", "1e400", "0x10"}) {
    EXPECT_TRUE(NormalizeCell(text, DataType::kInt64).value().is_null())
        << text;
    EXPECT_TRUE(NormalizeCell(text, DataType::kDouble).value().is_null())
        << text;
  }
  // Finite but outside int64: NULL, not an unspecified llround result.
  EXPECT_TRUE(NormalizeCell("1e300", DataType::kInt64).value().is_null());
  EXPECT_EQ(NormalizeCell("1e300", DataType::kDouble).value(),
            Value::Double(1e300));
}

TEST(NormalizeCellTest, DomainConstraintRejectsOutliers) {
  DomainConstraint year{1000.0, 2100.0};
  EXPECT_EQ(NormalizeCell("1984", DataType::kInt64, &year).value(),
            Value::Int(1984));
  EXPECT_TRUE(
      NormalizeCell("98765", DataType::kInt64, &year).value().is_null());
  EXPECT_TRUE(
      NormalizeCell("12", DataType::kInt64, &year).value().is_null());
}

TEST(NormalizeCellTest, DateAndBool) {
  EXPECT_EQ(NormalizeCell("August 4, 1962", DataType::kDate).value(),
            Value::Date(1962, 8, 4));
  EXPECT_EQ(NormalizeCell("Yes.", DataType::kBool).value(),
            Value::Bool(true));
  EXPECT_TRUE(NormalizeCell("not a date", DataType::kDate)
                  .value()
                  .is_null());
}

TEST(NormalizeCellTest, StringTrimsPunctuation) {
  EXPECT_EQ(NormalizeCell(" Rome. ", DataType::kString).value(),
            Value::String("Rome"));
}

TEST(DomainTest, DefaultDomains) {
  DomainConstraint year = DefaultDomainForColumn("independenceYear");
  EXPECT_TRUE(year.min.has_value());
  EXPECT_TRUE(year.max.has_value());
  EXPECT_FALSE(year.Admits(999.0));
  EXPECT_TRUE(year.Admits(1990.0));

  DomainConstraint age = DefaultDomainForColumn("age");
  EXPECT_FALSE(age.Admits(-1.0));
  EXPECT_FALSE(age.Admits(200.0));

  DomainConstraint pop = DefaultDomainForColumn("population");
  EXPECT_FALSE(pop.Admits(-5.0));
  EXPECT_TRUE(pop.Admits(1e9));
  EXPECT_FALSE(pop.max.has_value());

  // Elevation may be negative; names unconstrained.
  EXPECT_TRUE(DefaultDomainForColumn("elevation").Admits(-100.0));
  EXPECT_FALSE(DefaultDomainForColumn("name").min.has_value());
}

TEST(DomainTest, UnconstrainedAdmitsEverything) {
  DomainConstraint d;
  EXPECT_TRUE(d.Admits(-1e18));
  EXPECT_TRUE(d.Admits(1e18));
}

TEST(DomainTest, NaNIsNeverAdmitted) {
  EXPECT_FALSE(DomainConstraint{}.Admits(std::nan("")));
  EXPECT_FALSE(DefaultDomainForColumn("population").Admits(std::nan("")));
}

}  // namespace
}  // namespace galois::clean
