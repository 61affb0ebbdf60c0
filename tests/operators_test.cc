// Unit tests for the classic physical operators: filter, joins,
// aggregation, sort, limit, distinct.

#include <gtest/gtest.h>

#include "engine/operators.h"
#include "sql/parser.h"

namespace galois::engine {
namespace {

sql::ExprPtr ParsePredicate(const std::string& pred) {
  auto stmt = sql::ParseSelect("SELECT x FROM t WHERE " + pred);
  EXPECT_TRUE(stmt.ok()) << stmt.status();
  return std::move(stmt.value().where);
}

Relation Cities() {
  Relation r(Schema({Column("name", DataType::kString, "ci"),
                     Column("country", DataType::kString, "ci"),
                     Column("pop", DataType::kInt64, "ci")}));
  r.AddRowUnchecked({Value::String("Rome"), Value::String("Italy"),
                     Value::Int(2800000)});
  r.AddRowUnchecked({Value::String("Milan"), Value::String("Italy"),
                     Value::Int(1350000)});
  r.AddRowUnchecked({Value::String("Paris"), Value::String("France"),
                     Value::Int(2100000)});
  r.AddRowUnchecked({Value::String("Lyon"), Value::String("France"),
                     Value::Int(510000)});
  r.AddRowUnchecked({Value::String("Atlantis"), Value::Null(),
                     Value::Int(0)});
  return r;
}

Relation Countries() {
  Relation r(Schema({Column("name", DataType::kString, "co"),
                     Column("continent", DataType::kString, "co")}));
  r.AddRowUnchecked({Value::String("Italy"), Value::String("Europe")});
  r.AddRowUnchecked({Value::String("France"), Value::String("Europe")});
  r.AddRowUnchecked({Value::String("Japan"), Value::String("Asia")});
  return r;
}

TEST(OperatorsTest, FilterKeepsMatching) {
  auto pred = ParsePredicate("pop > 1000000");
  auto out = Filter(Cities(), *pred);
  ASSERT_TRUE(out.ok()) << out.status();
  EXPECT_EQ(out->NumRows(), 3u);
}

TEST(OperatorsTest, FilterNullPredicateDropsRow) {
  auto pred = ParsePredicate("country = 'Italy'");
  auto out = Filter(Cities(), *pred);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->NumRows(), 2u);  // Atlantis' NULL country drops out
}

TEST(OperatorsTest, CrossJoinCardinality) {
  auto out = CrossJoin(Cities(), Countries());
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->NumRows(), 15u);
  EXPECT_EQ(out->NumColumns(), 5u);
}

TEST(OperatorsTest, HashJoinMatchesEquiPairs) {
  auto out = HashJoin(Cities(), Countries(), /*left_col=*/1,
                      /*right_col=*/0);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->NumRows(), 4u);  // Atlantis NULL key never matches
  // Every output row satisfies the join condition.
  for (const Tuple& row : out->rows()) {
    EXPECT_EQ(row[1].string_value(), row[3].string_value());
  }
}

TEST(OperatorsTest, HashJoinColumnOutOfRange) {
  EXPECT_FALSE(HashJoin(Cities(), Countries(), 9, 0).ok());
  EXPECT_FALSE(HashJoin(Cities(), Countries(), 0, 9).ok());
}

TEST(OperatorsTest, NestedLoopJoinEqualsHashJoinOnEquiJoin) {
  auto pred = ParsePredicate("ci.country = co.name");
  auto nl = NestedLoopJoin(Cities(), Countries(), *pred);
  auto hash = HashJoin(Cities(), Countries(), 1, 0);
  ASSERT_TRUE(nl.ok());
  ASSERT_TRUE(hash.ok());
  // Same rows in the same order, not just the same multiset.
  EXPECT_EQ(nl->schema(), hash->schema());
  EXPECT_EQ(nl->rows(), hash->rows());
  EXPECT_EQ(nl->ToCsv(), hash->ToCsv());

  // Swapped, so the duplicate keys (two Italian, two French cities) sit
  // on the build side: their per-key lists keep ascending row order.
  auto swapped_pred = ParsePredicate("co.name = ci.country");
  auto nl_swapped = NestedLoopJoin(Countries(), Cities(), *swapped_pred);
  auto hash_swapped = HashJoin(Countries(), Cities(), 0, 1);
  ASSERT_TRUE(nl_swapped.ok());
  ASSERT_TRUE(hash_swapped.ok());
  EXPECT_EQ(nl_swapped->rows(), hash_swapped->rows());
}

TEST(OperatorsTest, NestedLoopJoinThetaPredicate) {
  auto pred = ParsePredicate("ci.pop > 2000000 AND co.continent = 'Europe'");
  auto out = NestedLoopJoin(Cities(), Countries(), *pred);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->NumRows(), 4u);  // {Rome, Paris} x {Italy, France}
}

TEST(OperatorsTest, LeftOuterJoinPadsUnmatched) {
  auto pred = ParsePredicate("ci.country = co.name");
  auto out = LeftOuterJoin(Cities(), Countries(), *pred);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->NumRows(), 5u);  // 4 matches + Atlantis padded
  bool found_padded = false;
  for (const Tuple& row : out->rows()) {
    if (row[0].string_value() == "Atlantis") {
      EXPECT_TRUE(row[3].is_null());
      EXPECT_TRUE(row[4].is_null());
      found_padded = true;
    }
  }
  EXPECT_TRUE(found_padded);
}

TEST(OperatorsTest, ProjectComputesExpressions) {
  auto stmt = sql::ParseSelect("SELECT pop / 1000 FROM t");
  ASSERT_TRUE(stmt.ok());
  std::vector<const sql::Expr*> exprs{stmt.value().select_list[0].expr.get()};
  auto out = Project(Cities(), exprs, {"popK"});
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->schema().column(0).name, "popK");
  EXPECT_DOUBLE_EQ(out->At(0, 0).double_value(), 2800.0);
}

TEST(OperatorsTest, ProjectArityMismatch) {
  auto stmt = sql::ParseSelect("SELECT pop FROM t");
  std::vector<const sql::Expr*> exprs{stmt.value().select_list[0].expr.get()};
  EXPECT_FALSE(Project(Cities(), exprs, {"a", "b"}).ok());
}

TEST(OperatorsTest, SortAscendingAndDescending) {
  sql::OrderItem item;
  auto stmt = sql::ParseSelect("SELECT x FROM t ORDER BY pop DESC");
  ASSERT_TRUE(stmt.ok());
  auto out = Sort(Cities(), stmt.value().order_by);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->At(0, 0).string_value(), "Rome");
  EXPECT_EQ(out->At(4, 0).string_value(), "Atlantis");
}

TEST(OperatorsTest, SortStability) {
  auto stmt = sql::ParseSelect("SELECT x FROM t ORDER BY country");
  auto out = Sort(Cities(), stmt.value().order_by);
  ASSERT_TRUE(out.ok());
  // NULL country first, then France rows in input order, then Italy.
  EXPECT_EQ(out->At(0, 0).string_value(), "Atlantis");
  EXPECT_EQ(out->At(1, 0).string_value(), "Paris");
  EXPECT_EQ(out->At(2, 0).string_value(), "Lyon");
}

TEST(OperatorsTest, LimitTruncates) {
  Relation out = Limit(Cities(), 2);
  EXPECT_EQ(out.NumRows(), 2u);
  EXPECT_EQ(Limit(Cities(), 100).NumRows(), 5u);
  EXPECT_EQ(Limit(Cities(), 0).NumRows(), 0u);
}

TEST(OperatorsTest, DistinctRemovesDuplicates) {
  Relation r(Schema({Column("x", DataType::kInt64)}));
  for (int v : {1, 2, 1, 3, 2, 1}) r.AddRowUnchecked({Value::Int(v)});
  EXPECT_EQ(Distinct(r).NumRows(), 3u);
}

// --- aggregation ---------------------------------------------------------

struct AggCase {
  std::string agg_sql;    // e.g. "SUM(pop)"
  double expected;        // expected scalar over Cities()
};

class ScalarAggregateTest : public ::testing::TestWithParam<AggCase> {};

TEST_P(ScalarAggregateTest, ComputesExpected) {
  const AggCase& c = GetParam();
  auto stmt = sql::ParseSelect("SELECT " + c.agg_sql + " FROM t");
  ASSERT_TRUE(stmt.ok());
  std::vector<AggregateSpec> specs{{stmt.value().select_list[0].expr.get()}};
  auto out = HashAggregate(Cities(), {}, specs);
  ASSERT_TRUE(out.ok()) << out.status();
  ASSERT_EQ(out->NumRows(), 1u);
  EXPECT_DOUBLE_EQ(out->At(0, 0).AsDouble().value(), c.expected);
}

INSTANTIATE_TEST_SUITE_P(
    Functions, ScalarAggregateTest,
    ::testing::Values(AggCase{"COUNT(*)", 5.0},
                      AggCase{"COUNT(pop)", 5.0},
                      AggCase{"COUNT(country)", 4.0},  // NULL not counted
                      AggCase{"SUM(pop)", 6760000.0},
                      AggCase{"AVG(pop)", 1352000.0},
                      AggCase{"MIN(pop)", 0.0},
                      AggCase{"MAX(pop)", 2800000.0},
                      AggCase{"COUNT(DISTINCT country)", 2.0}));

TEST(AggregateTest, GroupByCountry) {
  auto stmt = sql::ParseSelect(
      "SELECT country, COUNT(*), AVG(pop) FROM t GROUP BY country");
  ASSERT_TRUE(stmt.ok());
  std::vector<const sql::Expr*> groups{stmt.value().group_by[0].get()};
  std::vector<AggregateSpec> specs{
      {stmt.value().select_list[1].expr.get()},
      {stmt.value().select_list[2].expr.get()}};
  auto out = HashAggregate(Cities(), groups, specs);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->NumRows(), 3u);  // Italy, France, NULL
  for (const Tuple& row : out->rows()) {
    if (row[0].is_null()) {
      EXPECT_EQ(row[1].int_value(), 1);  // Atlantis group
    } else {
      EXPECT_EQ(row[1].int_value(), 2);
    }
  }
}

TEST(AggregateTest, EmptyInputScalarSemantics) {
  Relation empty(Cities().schema());
  auto stmt =
      sql::ParseSelect("SELECT COUNT(*), SUM(pop), MIN(pop) FROM t");
  ASSERT_TRUE(stmt.ok());
  std::vector<AggregateSpec> specs{
      {stmt.value().select_list[0].expr.get()},
      {stmt.value().select_list[1].expr.get()},
      {stmt.value().select_list[2].expr.get()}};
  auto out = HashAggregate(empty, {}, specs);
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->NumRows(), 1u);
  EXPECT_EQ(out->At(0, 0).int_value(), 0);  // COUNT = 0
  EXPECT_TRUE(out->At(0, 1).is_null());     // SUM = NULL
  EXPECT_TRUE(out->At(0, 2).is_null());     // MIN = NULL
}

TEST(AggregateTest, EmptyInputWithGroupByYieldsNoRows) {
  Relation empty(Cities().schema());
  auto stmt =
      sql::ParseSelect("SELECT country, COUNT(*) FROM t GROUP BY country");
  std::vector<const sql::Expr*> groups{stmt.value().group_by[0].get()};
  std::vector<AggregateSpec> specs{
      {stmt.value().select_list[1].expr.get()}};
  auto out = HashAggregate(empty, groups, specs);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->NumRows(), 0u);
}

TEST(AggregateTest, SumOverStringsIsTypeError) {
  auto stmt = sql::ParseSelect("SELECT SUM(name) FROM t");
  std::vector<AggregateSpec> specs{
      {stmt.value().select_list[0].expr.get()}};
  auto out = HashAggregate(Cities(), {}, specs);
  EXPECT_FALSE(out.ok());
  EXPECT_EQ(out.status().code(), StatusCode::kTypeError);
}

}  // namespace
}  // namespace galois::engine
