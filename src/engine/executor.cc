#include "engine/executor.h"

#include <utility>

#include "engine/operators.h"
#include "engine/relational_stages.h"
#include "sql/parser.h"

namespace galois::engine {

using sql::SelectStatement;

Result<Relation> ExecuteOnRelations(const SelectStatement& stmt,
                                    std::vector<BoundRelation> bases) {
  if (stmt.from.empty()) {
    return Status::InvalidArgument("ExecuteOnRelations: no FROM relation");
  }
  size_t expected = stmt.from.size() + stmt.joins.size();
  if (bases.size() != expected) {
    return Status::InvalidArgument(
        "ExecuteOnRelations: got " + std::to_string(bases.size()) +
        " base relations, query references " + std::to_string(expected));
  }
  // 1-3. FROM: the comma-separated relations, then the explicit
  // JOIN ... ON clauses left to right, then WHERE — routed by the same
  // helper the plan-driven physical executor uses.
  std::vector<Schema> schemas;
  std::vector<Relation> relations;
  schemas.reserve(bases.size());
  relations.reserve(bases.size());
  for (BoundRelation& base : bases) {
    schemas.push_back(base.second.schema());
    relations.push_back(std::move(base.second));
  }
  std::vector<JoinInput> inputs(stmt.from.size() - 1);
  for (const sql::JoinClause& clause : stmt.joins) {
    inputs.push_back({clause.condition.get(), clause.type});
  }
  GALOIS_ASSIGN_OR_RETURN(
      Relation working,
      ExecuteJoinChain(PlanJoins(std::move(schemas), std::move(inputs),
                                 stmt.where.get()),
                       std::move(relations)));

  // 4-6. Relational tail — the exact stages the plan-driven physical
  // executor runs (engine/relational_stages.h), so the two paths share one
  // implementation: star expansion against the pre-aggregation schema,
  // optional aggregation with loose GROUP BY, fused HAVING + projection +
  // order keys, stable sort, schema inference, DISTINCT, LIMIT.
  TailSpec spec = TailSpecFromStatement(stmt);
  ProjectionExprs proj = ExpandSelect(spec, working.schema());

  Relation source;
  bool use_agg_env = false;
  AggregationPlan aplan;
  if (NeedsAggregation(spec)) {
    aplan = PlanAggregation(spec);
    GALOIS_ASSIGN_OR_RETURN(
        source, HashAggregate(working, aplan.group_exprs, aplan.specs));
    use_agg_env = true;
  } else {
    source = std::move(working);
  }

  GALOIS_ASSIGN_OR_RETURN(
      ProjectedRows rows,
      ProjectAndFilter(source, proj, spec, use_agg_env, aplan.agg_keys,
                       aplan.group_exprs.size()));
  SortProjected(&rows, spec);
  Relation out = FinishProjection(source.schema(), proj, std::move(rows));

  if (stmt.distinct) out = Distinct(out);
  if (stmt.limit.has_value() && *stmt.limit >= 0) {
    out = Limit(out, static_cast<size_t>(*stmt.limit));
  }
  return out;
}

Result<Relation> ExecuteSelect(const SelectStatement& stmt,
                               const catalog::Catalog& catalog) {
  std::vector<BoundRelation> bases;
  auto materialise = [&](const sql::TableRef& ref) -> Status {
    GALOIS_ASSIGN_OR_RETURN(const catalog::TableDef* def,
                            catalog.GetTable(ref.table));
    GALOIS_ASSIGN_OR_RETURN(const Relation* instance,
                            catalog.GetInstance(ref.table));
    // Re-qualify the schema with the query alias.
    Relation bound(def->ToSchema(ref.EffectiveAlias()), instance->rows());
    bases.emplace_back(ref.EffectiveAlias(), std::move(bound));
    return Status::OK();
  };
  for (const sql::TableRef& ref : stmt.from) {
    GALOIS_RETURN_IF_ERROR(materialise(ref));
  }
  for (const sql::JoinClause& j : stmt.joins) {
    GALOIS_RETURN_IF_ERROR(materialise(j.table));
  }
  return ExecuteOnRelations(stmt, std::move(bases));
}

Result<Relation> ExecuteSql(const std::string& query,
                            const catalog::Catalog& catalog) {
  GALOIS_ASSIGN_OR_RETURN(SelectStatement stmt, sql::ParseSelect(query));
  return ExecuteSelect(stmt, catalog);
}

}  // namespace galois::engine
