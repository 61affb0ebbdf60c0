#ifndef GALOIS_ENGINE_RELATIONAL_STAGES_H_
#define GALOIS_ENGINE_RELATIONAL_STAGES_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "engine/operators.h"
#include "sql/ast.h"
#include "types/relation.h"

namespace galois::engine {

/// The relational tail of a query — joins, WHERE, aggregation, HAVING,
/// projection, ORDER BY — decomposed into reusable stages.
/// ExecuteOnRelations and the physical operator DAG (core/physical_plan)
/// both run EXACTLY these functions in the same order, so the
/// statement-driven and plan-driven paths cannot diverge: there is one
/// implementation of join routing, loose GROUP BY, alias resolution,
/// star expansion, output-schema inference and sort semantics, not two.
///
/// The views below borrow expressions from their owner (a parsed
/// SelectStatement or a logical plan); the owner must outlive the stages.

/// One join of the left-deep FROM/JOIN chain, in execution order: join i
/// combines the output of bases 0..i with base i+1. Comma-separated FROM
/// entries have no condition.
struct JoinInput {
  const sql::Expr* condition = nullptr;  // ON condition; null when none
  sql::JoinType type = sql::JoinType::kInner;
};

/// How one join executes, decided once per query by PlanJoins.
struct JoinRoute {
  enum class Method { kCross, kHash, kNestedLoop, kLeftOuter };
  Method method = Method::kCross;
  /// The ON condition: evaluated per pair by kNestedLoop/kLeftOuter,
  /// re-checked on the matched pairs after kHash (skipped when it is
  /// exactly the key).
  const sql::Expr* condition = nullptr;
  /// kHash: the `col = col` conjunct (from the ON condition or the WHERE)
  /// whose columns key the hash table, as column indices into the left
  /// input and the right base.
  const sql::Expr* key = nullptr;
  size_t left_col = 0;
  size_t right_col = 0;
  /// Why a usable equality key was left unused ("" when there was none).
  std::string fallback;

  /// Explain label: "HashJoin ON ci.country = co.name", "CrossJoin", ...
  std::string Label() const;
};

/// The routing of a whole join chain plus the WHERE filter above it.
struct JoinPlan {
  std::vector<Schema> bases;  // the base schemas the routes were made for
  std::vector<JoinInput> inputs;
  std::vector<JoinRoute> steps;     // parallel to inputs
  const sql::Expr* where = nullptr;  // engine-side WHERE; null when none
};

/// Decides every join's route. A join becomes a HashJoin when
///   - it is a comma join, a condition-less JOIN or an inner JOIN ... ON;
///   - a top-level conjunct of its ON condition or of the WHERE is
///     `col = col` with one column in the join's left input and the other
///     in its right base, both resolving unambiguously; and
///   - no predicate evaluated from this join on (later ON conditions and
///     the WHERE) can raise an error (BoundExpr::CannotRaise) — the hash
///     join never evaluates them on the pairs it skips, so a predicate
///     that raises on one of those would otherwise change the Status.
/// The full ON condition and WHERE are still evaluated on the joined
/// rows, so the result — rows, order and Status — is byte-identical to
/// CrossJoin/NestedLoopJoin followed by the WHERE filter.
JoinPlan PlanJoins(std::vector<Schema> bases, std::vector<JoinInput> inputs,
                   const sql::Expr* where);

/// Row counts of a join chain's stages, for operator statistics.
struct JoinChainRows {
  std::vector<size_t> steps;  // output rows per join
  size_t filtered = 0;        // rows after the WHERE filter
};

/// Runs the planned joins over `bases` (one per FROM/JOIN entry, in
/// order), then the WHERE filter. Bases whose schemas differ from the
/// planned ones are re-planned first.
Result<Relation> ExecuteJoinChain(const JoinPlan& plan,
                                  std::vector<Relation> bases,
                                  JoinChainRows* rows = nullptr);

struct SelectItemView {
  const sql::Expr* expr = nullptr;
  std::string alias;  // empty when none
};

struct OrderItemView {
  const sql::Expr* expr = nullptr;
  bool descending = false;
};

/// Everything the tail stages need to know about the query, independent of
/// whether it came from a SelectStatement or a logical plan.
struct TailSpec {
  std::vector<SelectItemView> select;
  const sql::Expr* having = nullptr;  // null when absent
  std::vector<OrderItemView> order_by;
  std::vector<const sql::Expr*> group_by;
};

/// Borrowing view over a parsed statement.
TailSpec TailSpecFromStatement(const sql::SelectStatement& stmt);

/// True when the query requires an aggregation stage (explicit GROUP BY,
/// HAVING, or an aggregate call in the select list).
bool NeedsAggregation(const TailSpec& spec);

/// If `e` is a bare unqualified column ref naming a select alias, returns
/// that select item's expression; otherwise returns `e`.
const sql::Expr* ResolveOrderAlias(const sql::Expr* e, const TailSpec& spec);

/// The aggregation stage's inputs, derived once from the spec: explicit
/// group expressions plus loose (MySQL-style) implicit group columns, and
/// the distinct aggregate calls collected from select / HAVING / ORDER BY.
struct AggregationPlan {
  std::vector<const sql::Expr*> group_exprs;
  std::vector<AggregateSpec> specs;
  std::vector<std::string> agg_keys;  // canonical rendering per aggregate
};
AggregationPlan PlanAggregation(const TailSpec& spec);

/// The projection's expression list after SELECT * / alias.* expansion
/// against the pre-aggregation working schema (expansion happens BEFORE
/// aggregation — star columns are the join-output columns).
struct ProjectionExprs {
  std::vector<const sql::Expr*> exprs;
  std::vector<std::string> names;
  std::vector<sql::ExprPtr> storage;  // owns the expanded star refs
};
ProjectionExprs ExpandSelect(const TailSpec& spec, const Schema& schema);

/// Projected output rows plus their ORDER BY keys (evaluated in the same
/// row environment, so aliases and aggregates sort correctly).
struct ProjectedRows {
  std::vector<Tuple> values;
  std::vector<Tuple> order_keys;
};

/// HAVING + projection + order-key computation over the (possibly
/// aggregated) source rows. The HAVING check and the projection run fused
/// per row — identical evaluation order to the original executor loop.
/// `agg_keys`/`num_group_cols` describe the aggregate row layout when
/// `use_agg_env` is set (see AggregationPlan).
Result<ProjectedRows> ProjectAndFilter(const Relation& source,
                                       const ProjectionExprs& proj,
                                       const TailSpec& spec,
                                       bool use_agg_env,
                                       const std::vector<std::string>& agg_keys,
                                       size_t num_group_cols);

/// ORDER BY: stable sort of the projected rows on their order keys.
void SortProjected(ProjectedRows* rows, const TailSpec& spec);

/// Builds the output relation: schema inference against the source schema
/// (column refs keep their source type, literals theirs, COUNT is int64,
/// other functions double) and row materialisation.
Relation FinishProjection(const Schema& source_schema,
                          const ProjectionExprs& proj, ProjectedRows rows);

}  // namespace galois::engine

#endif  // GALOIS_ENGINE_RELATIONAL_STAGES_H_
