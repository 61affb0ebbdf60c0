// Unit tests for the expression evaluator: literals, refs, arithmetic,
// three-valued logic, LIKE, BETWEEN, IN, IS NULL, aggregate environments.

#include <gtest/gtest.h>

#include "engine/expr_eval.h"
#include "sql/parser.h"

namespace galois::engine {
namespace {

using sql::ParseSelect;

Schema TestSchema() {
  return Schema({Column("name", DataType::kString, "t"),
                 Column("pop", DataType::kInt64, "t"),
                 Column("gdp", DataType::kDouble, "t"),
                 Column("maybe", DataType::kInt64, "t")});
}

Tuple TestRow() {
  return {Value::String("Rome"), Value::Int(2800000), Value::Double(2.1),
          Value::Null()};
}

/// Evaluates the WHERE expression of "SELECT x FROM t WHERE <pred>".
Value EvalWhere(const std::string& pred) {
  auto stmt = ParseSelect("SELECT name FROM t WHERE " + pred);
  EXPECT_TRUE(stmt.ok()) << stmt.status();
  auto v = EvalExpr(*stmt.value().where, TestSchema(), TestRow());
  EXPECT_TRUE(v.ok()) << pred << " -> " << v.status();
  return v.value_or(Value::Null());
}

TEST(ExprEvalTest, ColumnRefQualifiedAndNot) {
  EXPECT_EQ(EvalWhere("name = 'Rome'"), Value::Bool(true));
  EXPECT_EQ(EvalWhere("t.name = 'Rome'"), Value::Bool(true));
  EXPECT_EQ(EvalWhere("t.name = 'Paris'"), Value::Bool(false));
}

TEST(ExprEvalTest, NumericComparisons) {
  EXPECT_EQ(EvalWhere("pop > 1000000"), Value::Bool(true));
  EXPECT_EQ(EvalWhere("pop <= 1000000"), Value::Bool(false));
  EXPECT_EQ(EvalWhere("gdp >= 2.1"), Value::Bool(true));
  EXPECT_EQ(EvalWhere("pop != 2800000"), Value::Bool(false));
}

TEST(ExprEvalTest, Arithmetic) {
  EXPECT_EQ(EvalWhere("pop + 1 = 2800001"), Value::Bool(true));
  EXPECT_EQ(EvalWhere("pop * 2 = 5600000"), Value::Bool(true));
  EXPECT_EQ(EvalWhere("pop - 2800000 = 0"), Value::Bool(true));
  EXPECT_EQ(EvalWhere("pop % 7 = 2800000 % 7"), Value::Bool(true));
  // Division always yields double.
  EXPECT_EQ(EvalWhere("pop / 2 = 1400000"), Value::Bool(true));
}

TEST(ExprEvalTest, DivisionByZeroIsNull) {
  EXPECT_TRUE(EvalWhere("pop / 0 = 1").is_null());
  EXPECT_TRUE(EvalWhere("pop % 0 = 1").is_null());
}

TEST(ExprEvalTest, NullPropagation) {
  EXPECT_TRUE(EvalWhere("maybe + 1 = 2").is_null());
  EXPECT_TRUE(EvalWhere("maybe = maybe").is_null());
  EXPECT_TRUE(EvalWhere("maybe > 0").is_null());
}

TEST(ExprEvalTest, ThreeValuedAndOr) {
  // false AND NULL = false; true AND NULL = NULL.
  EXPECT_EQ(EvalWhere("pop < 0 AND maybe = 1"), Value::Bool(false));
  EXPECT_TRUE(EvalWhere("pop > 0 AND maybe = 1").is_null());
  // true OR NULL = true; false OR NULL = NULL.
  EXPECT_EQ(EvalWhere("pop > 0 OR maybe = 1"), Value::Bool(true));
  EXPECT_TRUE(EvalWhere("pop < 0 OR maybe = 1").is_null());
}

TEST(ExprEvalTest, NotSemantics) {
  EXPECT_EQ(EvalWhere("NOT pop > 0"), Value::Bool(false));
  EXPECT_TRUE(EvalWhere("NOT maybe = 1").is_null());
}

TEST(ExprEvalTest, UnaryNegate) {
  EXPECT_EQ(EvalWhere("-pop = -2800000"), Value::Bool(true));
  EXPECT_EQ(EvalWhere("-gdp < 0"), Value::Bool(true));
}

TEST(ExprEvalTest, Between) {
  EXPECT_EQ(EvalWhere("pop BETWEEN 1000000 AND 3000000"),
            Value::Bool(true));
  EXPECT_EQ(EvalWhere("pop BETWEEN 1 AND 2"), Value::Bool(false));
  EXPECT_TRUE(EvalWhere("maybe BETWEEN 1 AND 2").is_null());
}

TEST(ExprEvalTest, InList) {
  EXPECT_EQ(EvalWhere("name IN ('Paris', 'Rome')"), Value::Bool(true));
  EXPECT_EQ(EvalWhere("name IN ('Paris', 'Berlin')"), Value::Bool(false));
  EXPECT_EQ(EvalWhere("name NOT IN ('Paris')"), Value::Bool(true));
  // NULL in the list keeps the unknown semantics when no match found.
  EXPECT_TRUE(EvalWhere("name IN ('Paris', NULL)").is_null());
  EXPECT_EQ(EvalWhere("name IN ('Rome', NULL)"), Value::Bool(true));
}

TEST(ExprEvalTest, IsNull) {
  EXPECT_EQ(EvalWhere("maybe IS NULL"), Value::Bool(true));
  EXPECT_EQ(EvalWhere("maybe IS NOT NULL"), Value::Bool(false));
  EXPECT_EQ(EvalWhere("name IS NULL"), Value::Bool(false));
}

TEST(ExprEvalTest, LikeOperator) {
  EXPECT_EQ(EvalWhere("name LIKE 'Ro%'"), Value::Bool(true));
  EXPECT_EQ(EvalWhere("name LIKE 'R_me'"), Value::Bool(true));
  EXPECT_EQ(EvalWhere("name LIKE 'Ro'"), Value::Bool(false));
  EXPECT_EQ(EvalWhere("name LIKE '%e'"), Value::Bool(true));
}

TEST(ExprEvalTest, LikeMatchFunction) {
  EXPECT_TRUE(LikeMatch("", ""));
  EXPECT_TRUE(LikeMatch("", "%"));
  EXPECT_FALSE(LikeMatch("", "_"));
  EXPECT_TRUE(LikeMatch("abc", "%"));
  EXPECT_TRUE(LikeMatch("abc", "a%c"));
  EXPECT_TRUE(LikeMatch("abbbc", "a%c"));
  EXPECT_FALSE(LikeMatch("abd", "a%c"));
  EXPECT_TRUE(LikeMatch("abc", "___"));
  EXPECT_FALSE(LikeMatch("abc", "__"));
  EXPECT_TRUE(LikeMatch("a%b", "a%b"));
}

TEST(ExprEvalTest, AggregateLayoutLookup) {
  // An aggregated row: COUNT(*) is the column after the test columns.
  const std::vector<std::string> keys = {"COUNT(*)"};
  const AggregateLayout layout{&keys, TestSchema().size()};
  Schema schema = TestSchema();
  schema.AddColumn(Column("COUNT(*)", DataType::kInt64));
  Tuple row = TestRow();
  row.push_back(Value::Int(5));
  for (const char* pred : {"COUNT(*) > 3", "COUNT(*) + 1 = 6"}) {
    auto stmt = ParseSelect(std::string("SELECT name FROM t WHERE ") + pred);
    ASSERT_TRUE(stmt.ok());
    auto v = BoundExpr(*stmt.value().where, schema, &layout).Eval(row);
    ASSERT_TRUE(v.ok()) << pred << " -> " << v.status();
    EXPECT_EQ(v.value(), Value::Bool(true)) << pred;
  }
}

TEST(ExprEvalTest, UnboundReferenceRaisesPerRow) {
  // Binding never fails: an unknown column raises when a row is
  // evaluated, with the by-name error, and CannotRaise reports it.
  auto stmt = ParseSelect("SELECT name FROM t WHERE nosuch = 1 OR pop > 0");
  ASSERT_TRUE(stmt.ok());
  const Schema schema = TestSchema();
  BoundExpr bound(*stmt.value().where, schema);
  EXPECT_FALSE(bound.CannotRaise());
  auto v = bound.Eval(TestRow());
  ASSERT_FALSE(v.ok());
  EXPECT_EQ(v.status().code(), StatusCode::kBindError);

  auto safe = ParseSelect(
      "SELECT name FROM t WHERE t.pop > 1 AND maybe IS NULL AND name IN "
      "('Rome', NULL) AND NOT (gdp BETWEEN 1 AND 2)");
  ASSERT_TRUE(safe.ok());
  EXPECT_TRUE(BoundExpr(*safe.value().where, schema).CannotRaise());
  auto like = ParseSelect("SELECT name FROM t WHERE name LIKE 'R%'");
  ASSERT_TRUE(like.ok());
  EXPECT_FALSE(BoundExpr(*like.value().where, schema).CannotRaise());
}

TEST(ExprEvalTest, AggregateWithoutEnvIsError) {
  auto stmt = ParseSelect("SELECT name FROM t WHERE COUNT(*) > 3");
  ASSERT_TRUE(stmt.ok());
  auto v = EvalExpr(*stmt.value().where, TestSchema(), TestRow());
  EXPECT_FALSE(v.ok());
  EXPECT_EQ(v.status().code(), StatusCode::kExecutionError);
}

TEST(ExprEvalTest, UnknownColumnIsBindError) {
  auto stmt = ParseSelect("SELECT name FROM t WHERE nosuch = 1");
  ASSERT_TRUE(stmt.ok());
  auto v = EvalExpr(*stmt.value().where, TestSchema(), TestRow());
  EXPECT_FALSE(v.ok());
  EXPECT_EQ(v.status().code(), StatusCode::kBindError);
}

TEST(ExprEvalTest, PredicateCollapsesNullToFalse) {
  auto stmt = ParseSelect("SELECT name FROM t WHERE maybe > 0");
  ASSERT_TRUE(stmt.ok());
  auto keep = EvalPredicate(*stmt.value().where, TestSchema(), TestRow());
  ASSERT_TRUE(keep.ok());
  EXPECT_FALSE(keep.value());
}

TEST(ExprEvalTest, LikeOnNonStringIsTypeError) {
  auto stmt = ParseSelect("SELECT name FROM t WHERE pop LIKE 'x%'");
  ASSERT_TRUE(stmt.ok());
  auto v = EvalExpr(*stmt.value().where, TestSchema(), TestRow());
  EXPECT_FALSE(v.ok());
  EXPECT_EQ(v.status().code(), StatusCode::kTypeError);
}

}  // namespace
}  // namespace galois::engine
