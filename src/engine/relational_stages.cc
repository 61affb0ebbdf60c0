#include "engine/relational_stages.h"

#include <algorithm>
#include <map>
#include <optional>
#include <utility>

#include "common/strings.h"
#include "engine/expr_eval.h"

namespace galois::engine {

namespace {

using sql::Expr;
using sql::ExprKind;

/// Collects the distinct aggregate calls appearing in `e` (deduplicated by
/// canonical rendering) into `out`.
void CollectAggregates(const Expr& e,
                       std::map<std::string, const Expr*>* out) {
  sql::VisitExpr(e, [out](const Expr& node) {
    if (node.kind == ExprKind::kFunction) {
      out->emplace(node.ToString(), &node);
    }
  });
}

/// Collects column refs that appear outside aggregate calls (used for the
/// MySQL-style loose GROUP BY: such refs become implicit group columns).
void CollectNonAggregateRefs(const Expr& e,
                             std::vector<const Expr*>* out) {
  if (e.kind == ExprKind::kFunction) return;  // don't descend into aggs
  if (e.kind == ExprKind::kColumnRef) {
    out->push_back(&e);
    return;
  }
  for (const auto& child : e.children) {
    CollectNonAggregateRefs(*child, out);
  }
}

/// Output column name for a select item: alias if given, bare column name
/// for plain refs, canonical rendering otherwise.
std::string OutputName(const SelectItemView& item) {
  if (!item.alias.empty()) return item.alias;
  if (item.expr->kind == ExprKind::kColumnRef) return item.expr->column;
  return item.expr->ToString();
}

/// If `conjunct` is `col = col` with one column, resolved in `schema`,
/// inside [0, left_width) and the other inside [left_width, left_width +
/// right_width), returns (left index, index into the right base).
std::optional<std::pair<size_t, size_t>> KeyColumns(const Expr& conjunct,
                                                    const Schema& schema,
                                                    size_t left_width,
                                                    size_t right_width) {
  if (conjunct.kind != ExprKind::kBinary ||
      conjunct.binary_op != sql::BinaryOp::kEq) {
    return std::nullopt;
  }
  const Expr& a = *conjunct.children[0];
  const Expr& b = *conjunct.children[1];
  if (a.kind != ExprKind::kColumnRef || b.kind != ExprKind::kColumnRef) {
    return std::nullopt;
  }
  auto ia = schema.ResolveQualified(a.table, a.column);
  auto ib = schema.ResolveQualified(b.table, b.column);
  if (!ia.ok() || !ib.ok()) return std::nullopt;
  auto [lo, hi] = std::minmax(ia.value(), ib.value());
  if (lo >= left_width || hi < left_width ||
      hi >= left_width + right_width) {
    return std::nullopt;
  }
  return std::make_pair(lo, hi - left_width);
}

/// "ci.country = co.name" for a `col = col` key conjunct.
std::string KeyText(const Expr& key) {
  return key.children[0]->ToString() + " = " + key.children[1]->ToString();
}

Result<Relation> RunJoin(const JoinRoute& step, const Relation& left,
                         const Relation& right) {
  switch (step.method) {
    case JoinRoute::Method::kCross:
      return CrossJoin(left, right);
    case JoinRoute::Method::kHash: {
      GALOIS_ASSIGN_OR_RETURN(
          Relation joined,
          HashJoin(left, right, step.left_col, step.right_col));
      if (step.condition == nullptr || step.condition == step.key) {
        return joined;
      }
      return Filter(joined, *step.condition);
    }
    case JoinRoute::Method::kNestedLoop:
      return NestedLoopJoin(left, right, *step.condition);
    case JoinRoute::Method::kLeftOuter:
      return LeftOuterJoin(left, right, *step.condition);
  }
  return Status::Internal("unhandled join method");
}

}  // namespace

std::string JoinRoute::Label() const {
  const std::string reason = fallback.empty() ? "" : " (" + fallback + ")";
  switch (method) {
    case Method::kCross:
      return "CrossJoin" + reason;
    case Method::kHash: {
      std::string label = "HashJoin ON " + KeyText(*key);
      if (condition != nullptr && condition != key) {
        label += " (re-check ON " + condition->ToString() + ")";
      }
      return label;
    }
    case Method::kNestedLoop:
      return "NestedLoopJoin ON " + condition->ToString() + reason;
    case Method::kLeftOuter:
      return "LeftOuterJoin ON " + condition->ToString();
  }
  return "Join";
}

JoinPlan PlanJoins(std::vector<Schema> bases, std::vector<JoinInput> inputs,
                   const Expr* where) {
  JoinPlan plan;
  plan.where = where;
  const size_t n = inputs.size();
  // joined[i]: the output schema of join i; joined[n - 1] is the schema
  // the WHERE evaluates against.
  std::vector<Schema> joined;
  joined.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    joined.push_back(
        Schema::Concat(i == 0 ? bases[0] : joined[i - 1], bases[i + 1]));
  }
  const Schema& final_schema = n == 0 ? bases[0] : joined[n - 1];
  // safe_from[i]: no predicate evaluated by join i or after it can raise.
  std::vector<bool> safe_from(n + 1);
  safe_from[n] =
      where == nullptr || BoundExpr(*where, final_schema).CannotRaise();
  for (size_t i = n; i-- > 0;) {
    safe_from[i] = safe_from[i + 1] &&
                   (inputs[i].condition == nullptr ||
                    BoundExpr(*inputs[i].condition, joined[i]).CannotRaise());
  }
  std::vector<const Expr*> where_conjuncts;
  if (where != nullptr) sql::FlattenConjuncts(where, &where_conjuncts);

  size_t left_width = bases[0].size();
  for (size_t i = 0; i < n; ++i) {
    const size_t right_width = bases[i + 1].size();
    JoinRoute route;
    route.condition = inputs[i].condition;
    if (route.condition == nullptr) {
      route.method = JoinRoute::Method::kCross;
    } else if (inputs[i].type == sql::JoinType::kLeft) {
      route.method = JoinRoute::Method::kLeftOuter;
    } else {
      route.method = JoinRoute::Method::kNestedLoop;
    }
    if (route.method != JoinRoute::Method::kLeftOuter) {
      // Candidate keys: the ON conjuncts (over this join's output), then
      // the WHERE conjuncts (over the final schema, whose prefix this
      // join's output is).
      std::vector<std::pair<const Expr*, const Schema*>> candidates;
      if (route.condition != nullptr) {
        std::vector<const Expr*> on;
        sql::FlattenConjuncts(route.condition, &on);
        for (const Expr* c : on) candidates.emplace_back(c, &joined[i]);
      }
      for (const Expr* c : where_conjuncts) {
        candidates.emplace_back(c, &final_schema);
      }
      for (const auto& [conjunct, schema] : candidates) {
        auto cols = KeyColumns(*conjunct, *schema, left_width, right_width);
        if (!cols.has_value()) continue;
        if (!safe_from[i]) {
          route.fallback = "no hash on " + KeyText(*conjunct) +
                           ": a predicate may raise on skipped rows";
          break;
        }
        route.method = JoinRoute::Method::kHash;
        route.key = conjunct;
        route.left_col = cols->first;
        route.right_col = cols->second;
        break;
      }
    }
    plan.steps.push_back(std::move(route));
    left_width += right_width;
  }
  plan.bases = std::move(bases);
  plan.inputs = std::move(inputs);
  return plan;
}

Result<Relation> ExecuteJoinChain(const JoinPlan& plan,
                                  std::vector<Relation> bases,
                                  JoinChainRows* rows) {
  if (bases.size() != plan.bases.size()) {
    return Status::InvalidArgument(
        "join chain: got " + std::to_string(bases.size()) +
        " base relations, planned for " + std::to_string(plan.bases.size()));
  }
  for (size_t i = 0; i < bases.size(); ++i) {
    if (bases[i].schema() == plan.bases[i]) continue;
    // A base arrived in another shape than planned for (e.g. a remote
    // shard): route again against the schemas actually present.
    std::vector<Schema> actual;
    actual.reserve(bases.size());
    for (const Relation& b : bases) actual.push_back(b.schema());
    return ExecuteJoinChain(PlanJoins(std::move(actual), plan.inputs,
                                      plan.where),
                            std::move(bases), rows);
  }
  Relation working = std::move(bases[0]);
  for (size_t i = 0; i < plan.steps.size(); ++i) {
    GALOIS_ASSIGN_OR_RETURN(working,
                            RunJoin(plan.steps[i], working, bases[i + 1]));
    if (rows != nullptr) rows->steps.push_back(working.NumRows());
  }
  if (plan.where != nullptr) {
    GALOIS_ASSIGN_OR_RETURN(working, Filter(working, *plan.where));
  }
  if (rows != nullptr) rows->filtered = working.NumRows();
  return working;
}

TailSpec TailSpecFromStatement(const sql::SelectStatement& stmt) {
  TailSpec spec;
  spec.select.reserve(stmt.select_list.size());
  for (const auto& item : stmt.select_list) {
    spec.select.push_back({item.expr.get(), item.alias});
  }
  spec.having = stmt.having.get();
  spec.order_by.reserve(stmt.order_by.size());
  for (const auto& o : stmt.order_by) {
    spec.order_by.push_back({o.expr.get(), o.descending});
  }
  spec.group_by.reserve(stmt.group_by.size());
  for (const auto& g : stmt.group_by) spec.group_by.push_back(g.get());
  return spec;
}

bool NeedsAggregation(const TailSpec& spec) {
  if (!spec.group_by.empty() || spec.having != nullptr) return true;
  for (const auto& item : spec.select) {
    if (sql::ContainsAggregate(*item.expr)) return true;
  }
  return false;
}

const Expr* ResolveOrderAlias(const Expr* e, const TailSpec& spec) {
  if (e->kind != ExprKind::kColumnRef || !e->table.empty()) return e;
  for (const auto& item : spec.select) {
    if (!item.alias.empty() && EqualsIgnoreCase(item.alias, e->column)) {
      return item.expr;
    }
  }
  return e;
}

AggregationPlan PlanAggregation(const TailSpec& spec) {
  AggregationPlan plan;
  std::map<std::string, const Expr*> agg_map;
  for (const auto& item : spec.select) {
    CollectAggregates(*item.expr, &agg_map);
  }
  if (spec.having != nullptr) CollectAggregates(*spec.having, &agg_map);
  for (const auto& item : spec.order_by) {
    CollectAggregates(*ResolveOrderAlias(item.expr, spec), &agg_map);
  }
  plan.group_exprs = spec.group_by;
  // Loose GROUP BY (the paper's intro query selects c.GDP while grouping
  // by c.name): non-aggregate column refs in the select list become
  // implicit group columns, i.e. representative-row semantics under the
  // functional dependency.
  if (!plan.group_exprs.empty()) {
    std::vector<const Expr*> loose;
    for (const auto& item : spec.select) {
      CollectNonAggregateRefs(*item.expr, &loose);
    }
    for (const Expr* ref : loose) {
      bool already = false;
      for (const Expr* g : plan.group_exprs) {
        if (g->ToString() == ref->ToString()) {
          already = true;
          break;
        }
      }
      if (!already) plan.group_exprs.push_back(ref);
    }
  }
  for (const auto& [key, call] : agg_map) {
    plan.specs.push_back(AggregateSpec{call});
    plan.agg_keys.push_back(key);
  }
  return plan;
}

ProjectionExprs ExpandSelect(const TailSpec& spec, const Schema& schema) {
  ProjectionExprs proj;
  for (const auto& item : spec.select) {
    if (item.expr->kind == ExprKind::kStar) {
      const std::string& scope = item.expr->table;
      for (const Column& c : schema.columns()) {
        if (!scope.empty() && !EqualsIgnoreCase(c.table, scope)) continue;
        proj.storage.push_back(Expr::MakeColumnRef(c.table, c.name));
        proj.exprs.push_back(proj.storage.back().get());
        proj.names.push_back(c.name);
      }
      continue;
    }
    proj.exprs.push_back(item.expr);
    proj.names.push_back(OutputName(item));
  }
  return proj;
}

Result<ProjectedRows> ProjectAndFilter(
    const Relation& source, const ProjectionExprs& proj,
    const TailSpec& spec, bool use_agg_env,
    const std::vector<std::string>& agg_keys, size_t num_group_cols) {
  ProjectedRows out;
  out.values.reserve(source.NumRows());
  out.order_keys.reserve(source.NumRows());
  // Bind every expression once; aggregate calls read the aggregated
  // row's own columns.
  const AggregateLayout layout{&agg_keys, num_group_cols};
  const AggregateLayout* aggregates = use_agg_env ? &layout : nullptr;
  const auto bind = [&](const Expr* e) {
    return BoundExpr(*e, source.schema(), aggregates);
  };
  std::optional<BoundExpr> having;
  if (spec.having != nullptr) having.emplace(bind(spec.having));
  std::vector<BoundExpr> value_exprs;
  value_exprs.reserve(proj.exprs.size());
  for (const Expr* e : proj.exprs) value_exprs.push_back(bind(e));
  std::vector<BoundExpr> order_exprs;
  order_exprs.reserve(spec.order_by.size());
  for (const auto& item : spec.order_by) {
    order_exprs.push_back(bind(ResolveOrderAlias(item.expr, spec)));
  }
  for (const Tuple& row : source.rows()) {
    // HAVING filter (aggregate context), fused with the projection so
    // expression errors surface in the original per-row order.
    if (having.has_value()) {
      GALOIS_ASSIGN_OR_RETURN(bool keep, having->Test(row));
      if (!keep) continue;
    }
    Tuple values;
    values.reserve(value_exprs.size());
    for (const BoundExpr& e : value_exprs) {
      GALOIS_ASSIGN_OR_RETURN(Value v, e.Eval(row));
      values.push_back(std::move(v));
    }
    Tuple order_key;
    order_key.reserve(order_exprs.size());
    for (const BoundExpr& e : order_exprs) {
      GALOIS_ASSIGN_OR_RETURN(Value v, e.Eval(row));
      order_key.push_back(std::move(v));
    }
    out.values.push_back(std::move(values));
    out.order_keys.push_back(std::move(order_key));
  }
  return out;
}

void SortProjected(ProjectedRows* rows, const TailSpec& spec) {
  if (spec.order_by.empty()) return;
  // Sort an index permutation (stable), then apply it to both vectors.
  std::vector<size_t> order(rows->values.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(),
                   [&](size_t a, size_t b) {
                     const Tuple& ka = rows->order_keys[a];
                     const Tuple& kb = rows->order_keys[b];
                     for (size_t k = 0; k < spec.order_by.size(); ++k) {
                       int c = ka[k].Compare(kb[k]);
                       if (c != 0) {
                         return spec.order_by[k].descending ? c > 0 : c < 0;
                       }
                     }
                     return false;
                   });
  std::vector<Tuple> values(rows->values.size());
  std::vector<Tuple> keys(rows->order_keys.size());
  for (size_t i = 0; i < order.size(); ++i) {
    values[i] = std::move(rows->values[order[i]]);
    keys[i] = std::move(rows->order_keys[order[i]]);
  }
  rows->values = std::move(values);
  rows->order_keys = std::move(keys);
}

Relation FinishProjection(const Schema& source_schema,
                          const ProjectionExprs& proj, ProjectedRows rows) {
  Schema out_schema;
  for (size_t i = 0; i < proj.exprs.size(); ++i) {
    DataType type = DataType::kString;
    const Expr* e = proj.exprs[i];
    if (e->kind == ExprKind::kColumnRef) {
      auto idx = source_schema.ResolveQualified(e->table, e->column);
      if (idx.ok()) type = source_schema.column(idx.value()).type;
    } else if (e->kind == ExprKind::kLiteral) {
      type = e->literal.type();
    } else if (e->kind == ExprKind::kFunction) {
      type = e->function_name == "COUNT" ? DataType::kInt64
                                         : DataType::kDouble;
    } else {
      type = DataType::kDouble;
    }
    out_schema.AddColumn(Column(proj.names[i], type));
  }
  Relation out(out_schema);
  for (auto& r : rows.values) out.AddRowUnchecked(std::move(r));
  return out;
}

}  // namespace galois::engine
