// Join routing: equality joins run as HashJoin, and the routed chain is
// byte-identical to the unrouted one.
//   - seeded equivalence: random relations (duplicate keys on both
//     sides, NULL keys, int-vs-double keys, empty sides, NaN keys) under
//     two- and three-way comma, ON, and LEFT join templates; the routed
//     chain (engine::PlanJoins + ExecuteJoinChain) must return the same
//     CSV and the same Status as CrossJoin/NestedLoopJoin/LeftOuterJoin
//     followed by the WHERE filter;
//   - fallback: a conjunct that can raise (LIKE on an INT column, an
//     ambiguous column) keeps the unrouted join and its TypeError /
//     BindError;
//   - Explain: the workload's join queries render as HashJoin.

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/physical_plan.h"
#include "engine/operators.h"
#include "engine/relational_stages.h"
#include "knowledge/workload.h"
#include "planner/planner.h"
#include "sql/parser.h"

namespace galois {
namespace {

using engine::JoinInput;
using engine::JoinPlan;
using engine::JoinRoute;

/// Parses a statement and exposes its join inputs and WHERE.
struct Query {
  explicit Query(const std::string& sql) {
    auto parsed = sql::ParseSelect(sql);
    EXPECT_TRUE(parsed.ok()) << sql << ": " << parsed.status();
    stmt = std::move(parsed).value();
    inputs.resize(stmt.from.size() - 1);
    for (const sql::JoinClause& clause : stmt.joins) {
      inputs.push_back({clause.condition.get(), clause.type});
    }
  }
  size_t num_bases() const { return inputs.size() + 1; }

  sql::SelectStatement stmt;
  std::vector<JoinInput> inputs;
};

/// The unrouted chain: every join by its generic operator, then WHERE.
Result<Relation> Unrouted(const Query& q, const std::vector<Relation>& bases) {
  Relation working = bases[0];
  for (size_t i = 0; i < q.inputs.size(); ++i) {
    const JoinInput& in = q.inputs[i];
    if (in.condition == nullptr) {
      GALOIS_ASSIGN_OR_RETURN(working,
                              engine::CrossJoin(working, bases[i + 1]));
    } else if (in.type == sql::JoinType::kLeft) {
      GALOIS_ASSIGN_OR_RETURN(
          working, engine::LeftOuterJoin(working, bases[i + 1],
                                         *in.condition));
    } else {
      GALOIS_ASSIGN_OR_RETURN(
          working, engine::NestedLoopJoin(working, bases[i + 1],
                                          *in.condition));
    }
  }
  if (q.stmt.where) {
    GALOIS_ASSIGN_OR_RETURN(working,
                            engine::Filter(working, *q.stmt.where));
  }
  return working;
}

JoinPlan Plan(const Query& q, const std::vector<Relation>& bases) {
  std::vector<Schema> schemas;
  for (const Relation& b : bases) schemas.push_back(b.schema());
  return engine::PlanJoins(std::move(schemas), q.inputs, q.stmt.where.get());
}

/// Routed and unrouted agree on Status and, when OK, on the CSV.
void ExpectIdentical(const Query& q, const std::vector<Relation>& bases,
                     const std::string& context) {
  Result<Relation> want = Unrouted(q, bases);
  Result<Relation> got = engine::ExecuteJoinChain(Plan(q, bases), bases);
  ASSERT_EQ(got.status().ToString(), want.status().ToString()) << context;
  if (!want.ok()) return;
  EXPECT_EQ(got->schema(), want->schema()) << context;
  EXPECT_EQ(got->ToCsv(), want->ToCsv()) << context;
}

/// Key domain: NULL, small ints, the same numbers as doubles (3 vs 3.0),
/// and strings — few distinct values, so keys repeat on both sides.
Value RandomKey(Rng* rng, bool doubles, bool allow_nan) {
  switch (rng->NextInt(0, 7)) {
    case 0:
      return Value::Null();
    case 1:
      return Value::String(rng->NextBool(0.5) ? "x" : "3");
    case 2:
      if (allow_nan) return Value::Double(std::nan(""));
      [[fallthrough]];
    default: {
      int64_t k = rng->NextInt(0, 4);
      return doubles ? Value::Double(static_cast<double>(k)) : Value::Int(k);
    }
  }
}

/// alias(k, n INT, s STRING): `rows` random rows.
Relation RandomBase(const std::string& alias, size_t rows, bool double_keys,
                    bool allow_nan, Rng* rng) {
  Relation r(Schema({Column("k", double_keys ? DataType::kDouble
                                             : DataType::kInt64, alias),
                     Column("n", DataType::kInt64, alias),
                     Column("s", DataType::kString, alias)}));
  for (size_t i = 0; i < rows; ++i) {
    Value n = rng->NextBool(0.15) ? Value::Null()
                                  : Value::Int(rng->NextInt(0, 20));
    const char letter = static_cast<char>('a' + rng->NextInt(0, 3));
    Value s = rng->NextBool(0.15) ? Value::Null()
                                  : Value::String(std::string(1, letter));
    r.AddRowUnchecked(
        {RandomKey(rng, double_keys, allow_nan), std::move(n), std::move(s)});
  }
  return r;
}

const char* const kTemplates[] = {
    // Comma joins keyed from the WHERE.
    "SELECT * FROM a, b WHERE a.k = b.k",
    "SELECT * FROM a, b WHERE a.n > 1 AND b.k = a.k AND a.s <> b.s",
    "SELECT * FROM a, b WHERE a.k = b.k AND b.n IN (1, 2, NULL) AND "
    "a.n BETWEEN 0 AND 12 AND a.s IS NOT NULL AND NOT (b.s = 'c')",
    // Three-way: both joins keyed, in either conjunct order.
    "SELECT * FROM a, b, c WHERE a.k = b.k AND b.n = c.k",
    "SELECT * FROM a, b, c WHERE c.k = a.n AND a.k = b.k AND c.s = a.s",
    // ON joins: key in the ON condition (alone, or with a re-check), or
    // from the WHERE.
    "SELECT * FROM a JOIN b ON a.k = b.k",
    "SELECT * FROM a JOIN b ON a.k = b.k AND a.n < b.n",
    "SELECT * FROM a JOIN b ON a.n <= b.n WHERE a.k = b.k",
    "SELECT * FROM a, b JOIN c ON c.k = b.k WHERE a.k = b.k",
    // LEFT JOIN stays a LeftOuterJoin; the comma join below it hashes.
    "SELECT * FROM a, b LEFT JOIN c ON c.k = b.n WHERE a.k = b.k",
    // No top-level equality across the boundary: unrouted.
    "SELECT * FROM a, b WHERE a.k = b.k OR a.n = b.n",
    "SELECT * FROM a, b WHERE a.k = a.n",
    // Conjuncts that can raise: the join must fall back.
    "SELECT * FROM a, b WHERE a.n LIKE '1%' AND a.k = b.k",
    "SELECT * FROM a, b WHERE a.k = b.k AND a.n LIKE '1%'",
    "SELECT * FROM a, b WHERE a.k = b.k AND k = 1",
    "SELECT * FROM a, b WHERE a.k = b.k AND a.n + 1 > b.n",
    "SELECT * FROM a, b, c WHERE a.k = b.k AND c.n LIKE '%'",
    "SELECT * FROM a, b JOIN c ON c.s LIKE b.n WHERE a.k = b.k",
};

TEST(JoinRoutingTest, SeededChainsMatchUnroutedJoins) {
  Rng rng(20240611);
  int hashed = 0;
  int fell_back = 0;
  int errors = 0;
  for (int round = 0; round < 60; ++round) {
    // Each round: fresh relations; sizes include empty sides; b's keys
    // are doubles every other round (int-vs-double matches); a few
    // rounds carry NaN keys.
    const bool allow_nan = round % 10 == 9;
    std::vector<Relation> abc = {
        RandomBase("a", static_cast<size_t>(rng.NextInt(0, 9)), false,
                   allow_nan, &rng),
        RandomBase("b", static_cast<size_t>(rng.NextInt(0, 9)),
                   round % 2 == 1, allow_nan, &rng),
        RandomBase("c", static_cast<size_t>(rng.NextInt(0, 6)), false,
                   allow_nan, &rng)};
    for (const char* sql : kTemplates) {
      Query q(sql);
      std::vector<Relation> bases(abc.begin(),
                                  abc.begin() + static_cast<long>(
                                                    q.num_bases()));
      ExpectIdentical(q, bases,
                      std::string(sql) + " (round " + std::to_string(round) +
                          ")");
      for (const JoinRoute& step : Plan(q, bases).steps) {
        if (step.method == JoinRoute::Method::kHash) ++hashed;
        if (!step.fallback.empty()) ++fell_back;
      }
      if (!Unrouted(q, bases).ok()) ++errors;
    }
  }
  // The comparison is not vacuous: hash routes ran, fallbacks were
  // taken, and the error paths were exercised.
  EXPECT_GT(hashed, 0);
  EXPECT_GT(fell_back, 0);
  EXPECT_GT(errors, 0);
}

TEST(JoinRoutingTest, DuplicateKeysKeepCrossJoinOrder) {
  // Every left row matches several right rows and vice versa: the output
  // must list pairs left-major, right rows ascending.
  Relation a(Schema({Column("k", DataType::kInt64, "a"),
                     Column("n", DataType::kInt64, "a")}));
  Relation b(Schema({Column("k", DataType::kDouble, "b"),
                     Column("n", DataType::kInt64, "b")}));
  for (int i = 0; i < 6; ++i) {
    a.AddRowUnchecked({Value::Int(i % 2), Value::Int(i)});
    b.AddRowUnchecked({i == 4 ? Value::Null() : Value::Double(i % 2),
                       Value::Int(10 + i)});
  }
  Query q("SELECT * FROM a, b WHERE a.k = b.k");
  const JoinPlan plan = Plan(q, {a, b});
  ASSERT_EQ(plan.steps.size(), 1u);
  EXPECT_EQ(plan.steps[0].method, JoinRoute::Method::kHash);
  EXPECT_EQ(plan.steps[0].Label(), "HashJoin ON a.k = b.k");
  ExpectIdentical(q, {a, b}, "duplicate keys");
  auto joined = engine::ExecuteJoinChain(plan, {a, b});
  ASSERT_TRUE(joined.ok());
  EXPECT_EQ(joined->NumRows(), 3u * 3u + 3u * 2u);  // b's row 4 is NULL
}

TEST(JoinRoutingTest, LikeOnIntColumnFallsBackWithSameTypeError) {
  Relation a(Schema({Column("k", DataType::kInt64, "a"),
                     Column("n", DataType::kInt64, "a")}));
  Relation b(Schema({Column("k", DataType::kInt64, "b")}));
  a.AddRowUnchecked({Value::Int(1), Value::Int(7)});
  b.AddRowUnchecked({Value::Int(2)});  // no key matches
  Query q("SELECT * FROM a, b WHERE a.n LIKE '1%' AND a.k = b.k");
  const JoinPlan plan = Plan(q, {a, b});
  ASSERT_EQ(plan.steps.size(), 1u);
  // A hash join would skip the only pair and return OK; the fallback
  // evaluates the LIKE on it and raises, as the unrouted join does.
  EXPECT_EQ(plan.steps[0].method, JoinRoute::Method::kCross);
  EXPECT_NE(plan.steps[0].Label().find("CrossJoin (no hash on a.k = b.k"),
            std::string::npos)
      << plan.steps[0].Label();
  auto got = engine::ExecuteJoinChain(plan, {a, b});
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kTypeError);
  ExpectIdentical(q, {a, b}, "LIKE on INT");
}

TEST(JoinRoutingTest, EmptyInputRaisesNothing) {
  // An unbindable column raises per row, so an empty side raises nothing
  // on either path.
  Relation a(Schema({Column("k", DataType::kInt64, "a")}));
  Relation b(Schema({Column("k", DataType::kInt64, "b")}));
  b.AddRowUnchecked({Value::Int(1)});
  Query q("SELECT * FROM a, b WHERE a.k = b.k AND a.nosuch = 1");
  auto got = engine::ExecuteJoinChain(Plan(q, {a, b}), {a, b});
  ASSERT_TRUE(got.ok()) << got.status();
  EXPECT_EQ(got->NumRows(), 0u);
  ExpectIdentical(q, {a, b}, "empty side");
}

TEST(JoinRoutingTest, ReplansWhenBaseSchemasDiffer) {
  // Planned for b(k); executed with b(x, k): the chain re-routes against
  // the schemas that arrived instead of indexing the wrong column.
  Relation a(Schema({Column("k", DataType::kInt64, "a")}));
  a.AddRowUnchecked({Value::Int(1)});
  Relation planned_b(Schema({Column("k", DataType::kInt64, "b")}));
  Relation b(Schema({Column("x", DataType::kInt64, "b"),
                     Column("k", DataType::kInt64, "b")}));
  b.AddRowUnchecked({Value::Int(2), Value::Int(1)});
  b.AddRowUnchecked({Value::Int(1), Value::Int(2)});
  Query q("SELECT * FROM a, b WHERE a.k = b.k");
  auto got = engine::ExecuteJoinChain(Plan(q, {a, planned_b}), {a, b});
  ASSERT_TRUE(got.ok()) << got.status();
  ASSERT_EQ(got->NumRows(), 1u);
  EXPECT_EQ(got->row(0)[1], Value::Int(2));
}

// --- Explain ------------------------------------------------------------

const knowledge::SpiderLikeWorkload& W() {
  static const auto* w = []() {
    auto r = knowledge::SpiderLikeWorkload::Create();
    EXPECT_TRUE(r.ok());
    return new knowledge::SpiderLikeWorkload(std::move(r).value());
  }();
  return *w;
}

std::string RenderPlan(const std::string& sql) {
  auto stmt = sql::ParseSelect(sql);
  EXPECT_TRUE(stmt.ok()) << stmt.status();
  auto plan = planner::BuildLogicalPlan(stmt.value(), W().catalog());
  EXPECT_TRUE(plan.ok()) << plan.status();
  core::ExecutionOptions options;
  EXPECT_TRUE(planner::BindPhysicalAnnotations(plan.value().get(),
                                               W().catalog(),
                                               core::BindingOptionsFor(options))
                  .ok());
  auto physical = core::PhysicalPlan::Compile(std::move(plan).value(),
                                              &W().catalog(), options);
  EXPECT_TRUE(physical.ok()) << physical.status();
  return physical.ok() ? physical->Render() : std::string();
}

TEST(JoinRoutingExplainTest, WorkloadJoinShowsHashJoin) {
  const std::string rendered = RenderPlan(
      "SELECT co.continent, COUNT(*) FROM city ci, country co "
      "WHERE ci.country = co.name GROUP BY co.continent");
  EXPECT_NE(rendered.find("HashJoin ON ci.country = co.name"),
            std::string::npos)
      << rendered;
  EXPECT_EQ(rendered.find("CrossJoin"), std::string::npos) << rendered;
}

TEST(JoinRoutingExplainTest, EveryWorkloadJoinIsHashed) {
  int joins = 0;
  for (const knowledge::QuerySpec& q : W().queries()) {
    const std::string rendered = RenderPlan(q.sql);
    if (rendered.find("Join") == std::string::npos) continue;
    ++joins;
    EXPECT_NE(rendered.find("HashJoin ON "), std::string::npos) << q.sql;
    EXPECT_EQ(rendered.find("CrossJoin"), std::string::npos) << q.sql;
    EXPECT_EQ(rendered.find("NestedLoopJoin"), std::string::npos) << q.sql;
  }
  EXPECT_EQ(joins, 15);
}

}  // namespace
}  // namespace galois
