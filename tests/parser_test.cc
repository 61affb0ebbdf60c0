// Unit tests for the SQL parser: clause coverage, expression precedence,
// source qualifiers, and error reporting. Includes a parameterized
// round-trip property over the full workload query set.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "knowledge/workload.h"
#include "sql/parser.h"

namespace galois::sql {
namespace {

SelectStatement Parse(const std::string& q) {
  auto r = ParseSelect(q);
  EXPECT_TRUE(r.ok()) << q << " -> " << r.status();
  if (!r.ok()) return SelectStatement{};
  return std::move(r).value();
}

TEST(ParserTest, MinimalSelect) {
  SelectStatement s = Parse("SELECT name FROM country");
  ASSERT_EQ(s.select_list.size(), 1u);
  EXPECT_EQ(s.select_list[0].expr->kind, ExprKind::kColumnRef);
  EXPECT_EQ(s.select_list[0].expr->column, "name");
  ASSERT_EQ(s.from.size(), 1u);
  EXPECT_EQ(s.from[0].table, "country");
  EXPECT_FALSE(s.where);
}

TEST(ParserTest, SelectStar) {
  SelectStatement s = Parse("SELECT * FROM city");
  EXPECT_EQ(s.select_list[0].expr->kind, ExprKind::kStar);
}

TEST(ParserTest, ScopedStar) {
  SelectStatement s = Parse("SELECT c.* FROM city c");
  EXPECT_EQ(s.select_list[0].expr->kind, ExprKind::kStar);
  EXPECT_EQ(s.select_list[0].expr->table, "c");
}

TEST(ParserTest, AliasesWithAndWithoutAs) {
  SelectStatement s =
      Parse("SELECT name AS n, population pop FROM country c");
  EXPECT_EQ(s.select_list[0].alias, "n");
  EXPECT_EQ(s.select_list[1].alias, "pop");
  EXPECT_EQ(s.from[0].alias, "c");
  EXPECT_EQ(s.from[0].EffectiveAlias(), "c");
}

TEST(ParserTest, SourceQualifiers) {
  SelectStatement s = Parse(
      "SELECT c.GDP, AVG(e.salary) FROM LLM.country c, DB.Employees e "
      "WHERE c.code = e.countryCode GROUP BY e.countryCode");
  ASSERT_EQ(s.from.size(), 2u);
  EXPECT_EQ(s.from[0].source, "LLM");
  EXPECT_EQ(s.from[0].table, "country");
  EXPECT_EQ(s.from[1].source, "DB");
  EXPECT_EQ(s.from[1].table, "Employees");
  ASSERT_EQ(s.group_by.size(), 1u);
}

TEST(ParserTest, CommaJoinAndWhere) {
  SelectStatement s = Parse(
      "SELECT c.cityName, cm.birthDate FROM city c, cityMayor cm "
      "WHERE c.mayor = cm.name AND cm.electionYear = 2019");
  ASSERT_EQ(s.from.size(), 2u);
  ASSERT_TRUE(s.where != nullptr);
  EXPECT_EQ(s.where->binary_op, BinaryOp::kAnd);
}

TEST(ParserTest, ExplicitJoinOn) {
  SelectStatement s = Parse(
      "SELECT a.name FROM airport a JOIN city c ON a.city = c.name");
  ASSERT_EQ(s.joins.size(), 1u);
  EXPECT_EQ(s.joins[0].type, JoinType::kInner);
  ASSERT_TRUE(s.joins[0].condition != nullptr);
}

TEST(ParserTest, LeftJoin) {
  SelectStatement s = Parse(
      "SELECT a.name FROM airport a LEFT JOIN city c ON a.city = c.name");
  ASSERT_EQ(s.joins.size(), 1u);
  EXPECT_EQ(s.joins[0].type, JoinType::kLeft);
  SelectStatement s2 = Parse(
      "SELECT a.name FROM airport a LEFT OUTER JOIN city c ON a.city = "
      "c.name");
  EXPECT_EQ(s2.joins[0].type, JoinType::kLeft);
}

TEST(ParserTest, GroupByHavingOrderLimit) {
  SelectStatement s = Parse(
      "SELECT continent, COUNT(*) FROM country GROUP BY continent "
      "HAVING COUNT(*) > 3 ORDER BY COUNT(*) DESC, continent LIMIT 5");
  EXPECT_EQ(s.group_by.size(), 1u);
  ASSERT_TRUE(s.having != nullptr);
  ASSERT_EQ(s.order_by.size(), 2u);
  EXPECT_TRUE(s.order_by[0].descending);
  EXPECT_FALSE(s.order_by[1].descending);
  EXPECT_EQ(s.limit, 5);
}

TEST(ParserTest, Distinct) {
  SelectStatement s = Parse("SELECT DISTINCT country FROM city");
  EXPECT_TRUE(s.distinct);
}

TEST(ParserTest, CountDistinct) {
  SelectStatement s = Parse("SELECT COUNT(DISTINCT country) FROM city");
  const Expr& e = *s.select_list[0].expr;
  EXPECT_EQ(e.kind, ExprKind::kFunction);
  EXPECT_EQ(e.function_name, "COUNT");
  EXPECT_TRUE(e.distinct);
}

TEST(ParserTest, CountStar) {
  SelectStatement s = Parse("SELECT COUNT(*) FROM city");
  const Expr& e = *s.select_list[0].expr;
  EXPECT_EQ(e.kind, ExprKind::kFunction);
  ASSERT_EQ(e.children.size(), 1u);
  EXPECT_EQ(e.children[0]->kind, ExprKind::kStar);
}

TEST(ParserTest, PrecedenceAndOverOr) {
  SelectStatement s =
      Parse("SELECT name FROM t WHERE a = 1 OR b = 2 AND c = 3");
  // OR at the top, AND bound tighter.
  EXPECT_EQ(s.where->binary_op, BinaryOp::kOr);
  EXPECT_EQ(s.where->children[1]->binary_op, BinaryOp::kAnd);
}

TEST(ParserTest, PrecedenceArithmetic) {
  SelectStatement s = Parse("SELECT a + b * c FROM t");
  const Expr& e = *s.select_list[0].expr;
  EXPECT_EQ(e.binary_op, BinaryOp::kPlus);
  EXPECT_EQ(e.children[1]->binary_op, BinaryOp::kMul);
}

TEST(ParserTest, ParenthesesOverridePrecedence) {
  SelectStatement s = Parse("SELECT (a + b) * c FROM t");
  const Expr& e = *s.select_list[0].expr;
  EXPECT_EQ(e.binary_op, BinaryOp::kMul);
  EXPECT_EQ(e.children[0]->binary_op, BinaryOp::kPlus);
}

TEST(ParserTest, UnaryMinusAndNot) {
  SelectStatement s =
      Parse("SELECT name FROM t WHERE NOT a = -5");
  EXPECT_EQ(s.where->kind, ExprKind::kUnary);
  EXPECT_EQ(s.where->unary_op, UnaryOp::kNot);
}

TEST(ParserTest, BetweenInLikeIsNull) {
  SelectStatement s = Parse(
      "SELECT name FROM t WHERE a BETWEEN 1 AND 5 AND b IN ('x', 'y') "
      "AND c LIKE 'pre%' AND d IS NOT NULL");
  ASSERT_TRUE(s.where != nullptr);
  std::string rendered = s.where->ToString();
  EXPECT_NE(rendered.find("BETWEEN"), std::string::npos);
  EXPECT_NE(rendered.find("IN"), std::string::npos);
  EXPECT_NE(rendered.find("LIKE"), std::string::npos);
  EXPECT_NE(rendered.find("IS NOT NULL"), std::string::npos);
}

TEST(ParserTest, NotInAndNotBetween) {
  SelectStatement s = Parse(
      "SELECT name FROM t WHERE a NOT IN (1, 2) AND b NOT BETWEEN 3 AND "
      "4 AND c NOT LIKE 'x%'");
  EXPECT_TRUE(s.where != nullptr);
}

TEST(ParserTest, LiteralKinds) {
  SelectStatement s =
      Parse("SELECT 1, 2.5, 'txt', TRUE, FALSE, NULL FROM t");
  ASSERT_EQ(s.select_list.size(), 6u);
  EXPECT_EQ(s.select_list[0].expr->literal.type(), DataType::kInt64);
  EXPECT_EQ(s.select_list[1].expr->literal.type(), DataType::kDouble);
  EXPECT_EQ(s.select_list[2].expr->literal.type(), DataType::kString);
  EXPECT_EQ(s.select_list[3].expr->literal.type(), DataType::kBool);
  EXPECT_EQ(s.select_list[4].expr->literal.type(), DataType::kBool);
  EXPECT_TRUE(s.select_list[5].expr->literal.is_null());
}

TEST(ParserTest, TrailingSemicolonAccepted) {
  EXPECT_TRUE(ParseSelect("SELECT name FROM t;").ok());
}

TEST(ParserTest, Errors) {
  EXPECT_FALSE(ParseSelect("").ok());
  EXPECT_FALSE(ParseSelect("SELECT").ok());
  EXPECT_FALSE(ParseSelect("SELECT name").ok());           // missing FROM
  EXPECT_FALSE(ParseSelect("SELECT FROM t").ok());         // missing item
  EXPECT_FALSE(ParseSelect("SELECT a FROM t WHERE").ok()); // missing pred
  EXPECT_FALSE(ParseSelect("SELECT a FROM t GROUP a").ok());
  EXPECT_FALSE(ParseSelect("SELECT a FROM t LIMIT x").ok());
  EXPECT_FALSE(ParseSelect("SELECT a FROM t extra junk").ok());
  EXPECT_FALSE(ParseSelect("SELECT COUNT( FROM t").ok());
}

TEST(ParserTest, ErrorMessagesIncludeOffset) {
  auto r = ParseSelect("SELECT a FROM t WHERE >");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("offset"), std::string::npos);
}

// --- expression depth bound ---------------------------------------------

int TreeDepth(const Expr& e) {
  int deepest = 0;
  for (const ExprPtr& c : e.children) {
    deepest = std::max(deepest, TreeDepth(*c));
  }
  return deepest + 1;
}

std::string Repeat(const std::string& s, int n) {
  std::string out;
  for (int i = 0; i < n; ++i) out += s;
  return out;
}

/// WHERE NOT ... NOT name = 'x': `nots` NOTs over a depth-2 comparison.
std::string NotChain(int nots) {
  return "SELECT name FROM city WHERE " + Repeat("NOT ", nots) +
         "name = 'x'";
}

/// WHERE name = 'x' AND ... : `conjuncts` comparisons, left-deep.
std::string AndChain(int conjuncts) {
  return "SELECT name FROM city WHERE name = 'x'" +
         Repeat(" AND name = 'x'", conjuncts - 1);
}

/// SELECT - - ... - 1: `minuses` negations over a literal.
std::string MinusChain(int minuses) {
  return "SELECT " + Repeat("- ", minuses) + "1 FROM city";
}

/// WHERE ((...(name = 'x')...)): the top-level expression plus one
/// nesting level per parenthesis pair.
std::string ParenNest(int levels) {
  return "SELECT name FROM city WHERE " + Repeat("(", levels - 1) +
         "name = 'x'" + Repeat(")", levels - 1);
}

void ExpectTooDeep(const std::string& q) {
  auto r = ParseSelect(q);
  ASSERT_FALSE(r.ok()) << q.substr(0, 80);
  EXPECT_EQ(r.status().code(), StatusCode::kParseError);
  EXPECT_NE(r.status().message().find("nested deeper than"),
            std::string::npos)
      << r.status();
}

TEST(ParserDepthTest, NotChainBoundedByTreeDepth) {
  SelectStatement s = Parse(NotChain(kMaxExprDepth - 2));
  ASSERT_TRUE(s.where);
  EXPECT_EQ(TreeDepth(*s.where), kMaxExprDepth);
  ExpectTooDeep(NotChain(kMaxExprDepth - 1));
}

TEST(ParserDepthTest, AndChainBoundedByTreeDepth) {
  // Left-deep chains are built iteratively: only the tree bound sees them.
  SelectStatement s = Parse(AndChain(kMaxExprDepth - 1));
  ASSERT_TRUE(s.where);
  EXPECT_EQ(TreeDepth(*s.where), kMaxExprDepth);
  ExpectTooDeep(AndChain(kMaxExprDepth));
}

TEST(ParserDepthTest, UnaryMinusChainBoundedByTreeDepth) {
  SelectStatement s = Parse(MinusChain(kMaxExprDepth - 1));
  ASSERT_EQ(s.select_list.size(), 1u);
  EXPECT_EQ(TreeDepth(*s.select_list[0].expr), kMaxExprDepth);
  ExpectTooDeep(MinusChain(kMaxExprDepth));
}

TEST(ParserDepthTest, ParenthesisNestingBounded) {
  // Parentheses add no tree node, but each one is a level of parser
  // recursion.
  SelectStatement s = Parse(ParenNest(kMaxExprDepth));
  ASSERT_TRUE(s.where);
  EXPECT_EQ(TreeDepth(*s.where), 2);
  ExpectTooDeep(ParenNest(kMaxExprDepth + 1));
}

TEST(ParserDepthTest, HostileNestingIsAParseErrorNotACrash) {
  // Unbounded, each overflows an 8 MB stack: the NOT chain inside the
  // parser, the AND chain in the first recursive walk over its tree.
  ExpectTooDeep(NotChain(50000));
  ExpectTooDeep(AndChain(100000));
  ExpectTooDeep("SELECT name FROM city WHERE " + Repeat("(", 100000));
  ExpectTooDeep("SELECT " + Repeat("+", 100000) + "1 FROM city");
}

TEST(ParserTest, ExprCloneIsDeep) {
  SelectStatement s =
      Parse("SELECT name FROM t WHERE a = 1 AND b LIKE 'x%'");
  ExprPtr clone = s.where->Clone();
  EXPECT_EQ(clone->ToString(), s.where->ToString());
  // Mutating the clone must not affect the original.
  clone->children[0]->binary_op = BinaryOp::kNotEq;
  EXPECT_NE(clone->ToString(), s.where->ToString());
}

TEST(ParserTest, StatementToStringRoundTripReparses) {
  const char* queries[] = {
      "SELECT name FROM country WHERE continent = 'Europe'",
      "SELECT continent, COUNT(*) FROM country GROUP BY continent",
      "SELECT c.name, m.birthDate FROM city c, cityMayor m WHERE "
      "c.mayor = m.name",
  };
  for (const char* q : queries) {
    SelectStatement s = Parse(q);
    auto reparsed = ParseSelect(s.ToString());
    ASSERT_TRUE(reparsed.ok()) << s.ToString();
    EXPECT_EQ(reparsed.value().ToString(), s.ToString());
  }
}

// Property: every workload query parses, re-renders, and re-parses to a
// fixed point.
class WorkloadParseTest : public ::testing::TestWithParam<int> {};

TEST_P(WorkloadParseTest, RoundTripsToFixedPoint) {
  static const auto* workload = []() {
    auto w = knowledge::SpiderLikeWorkload::Create();
    return new knowledge::SpiderLikeWorkload(std::move(w).value());
  }();
  const knowledge::QuerySpec* spec =
      workload->GetQuery(GetParam()).value();
  auto parsed = ParseSelect(spec->sql);
  ASSERT_TRUE(parsed.ok()) << spec->sql << " -> " << parsed.status();
  std::string rendered = parsed.value().ToString();
  auto reparsed = ParseSelect(rendered);
  ASSERT_TRUE(reparsed.ok()) << rendered;
  EXPECT_EQ(reparsed.value().ToString(), rendered);
}

INSTANTIATE_TEST_SUITE_P(All46, WorkloadParseTest,
                         ::testing::Range(1, 47));

}  // namespace
}  // namespace galois::sql
