#include "engine/operators.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <optional>
#include <unordered_map>
#include <utility>

#include "engine/expr_eval.h"

namespace galois::engine {

namespace {

/// Key wrapper so Tuples can index std::map (Value has a total order).
struct TupleKeyLess {
  bool operator()(const Tuple& a, const Tuple& b) const {
    size_t n = std::min(a.size(), b.size());
    for (size_t i = 0; i < n; ++i) {
      int c = a[i].Compare(b[i]);
      if (c != 0) return c < 0;
    }
    return a.size() < b.size();
  }
};

/// HashJoin's key index: Value hashing and equality (Value::Hash agrees
/// with Compare == 0 on every non-NULL, non-NaN value).
struct KeyHash {
  size_t operator()(const Value* v) const { return v->Hash(); }
};
struct KeyEq {
  bool operator()(const Value* a, const Value* b) const { return *a == *b; }
};

std::vector<BoundExpr> BindAll(const std::vector<const sql::Expr*>& exprs,
                               const Schema& schema) {
  std::vector<BoundExpr> bound;
  bound.reserve(exprs.size());
  for (const sql::Expr* e : exprs) bound.emplace_back(*e, schema);
  return bound;
}

Tuple ConcatTuples(const Tuple& a, const Tuple& b) {
  Tuple out;
  out.reserve(a.size() + b.size());
  out.insert(out.end(), a.begin(), a.end());
  out.insert(out.end(), b.begin(), b.end());
  return out;
}

/// Incremental state for one aggregate over one group.
struct AggState {
  int64_t count = 0;
  double sum = 0.0;
  bool any_numeric = false;
  Value min;  // running MIN/MAX on Value::Compare
  Value max;
  std::vector<Value> distinct_seen;  // small-data linear distinct

  void Accumulate(const Value& v, bool distinct) {
    if (v.is_null()) return;
    if (distinct) {
      for (const Value& seen : distinct_seen) {
        if (seen == v) return;
      }
      distinct_seen.push_back(v);
    }
    ++count;
    auto d = v.AsDouble();
    if (d.ok()) {
      sum += d.value();
      any_numeric = true;
    }
    if (min.is_null() || v.Compare(min) < 0) min = v;
    if (max.is_null() || v.Compare(max) > 0) max = v;
  }

  Result<Value> Finish(const std::string& function) const {
    if (function == "COUNT") return Value::Int(count);
    if (count == 0) return Value::Null();
    if (function == "SUM") {
      if (!any_numeric) return Status::TypeError("SUM over non-numeric");
      return Value::Double(sum);
    }
    if (function == "AVG") {
      if (!any_numeric) return Status::TypeError("AVG over non-numeric");
      return Value::Double(sum / static_cast<double>(count));
    }
    if (function == "MIN") return min;
    if (function == "MAX") return max;
    return Status::Unimplemented("aggregate function " + function);
  }
};

}  // namespace

Result<Relation> Filter(const Relation& input, const sql::Expr& predicate) {
  Relation out(input.schema());
  const BoundExpr bound(predicate, input.schema());
  for (const Tuple& row : input.rows()) {
    GALOIS_ASSIGN_OR_RETURN(bool keep, bound.Test(row));
    if (keep) out.AddRowUnchecked(row);
  }
  return out;
}

Result<Relation> CrossJoin(const Relation& left, const Relation& right) {
  Relation out(Schema::Concat(left.schema(), right.schema()));
  for (const Tuple& l : left.rows()) {
    for (const Tuple& r : right.rows()) {
      out.AddRowUnchecked(ConcatTuples(l, r));
    }
  }
  return out;
}

Result<Relation> HashJoin(const Relation& left, const Relation& right,
                          size_t left_col, size_t right_col) {
  if (left_col >= left.schema().size() ||
      right_col >= right.schema().size()) {
    return Status::InvalidArgument("join column index out of range");
  }
  // Every key cell must exist. NaN compares equal to every number but
  // hashes like none of them, so a NaN key sends the join down the
  // pairwise path instead.
  bool nan_key = false;
  for (const auto& [rel, col] : {std::pair(&left, left_col),
                                 std::pair(&right, right_col)}) {
    for (const Tuple& row : rel->rows()) {
      if (col >= row.size()) {
        return Status::Internal("tuple narrower than schema");
      }
      nan_key = nan_key || (row[col].type() == DataType::kDouble &&
                            std::isnan(row[col].double_value()));
    }
  }
  Relation out(Schema::Concat(left.schema(), right.schema()));
  if (nan_key) {
    for (const Tuple& l : left.rows()) {
      for (const Tuple& r : right.rows()) {
        if (l[left_col].SqlEquals(r[right_col])) {
          out.AddRowUnchecked(ConcatTuples(l, r));
        }
      }
    }
    return out;
  }
  // Build: one list of right rows per distinct key, in ascending row
  // order, so probing the left rows in order emits the matching pairs in
  // exactly the order CrossJoin followed by an equality Filter keeps them.
  std::unordered_map<const Value*, std::vector<size_t>, KeyHash, KeyEq> build;
  build.reserve(right.NumRows());
  for (size_t i = 0; i < right.NumRows(); ++i) {
    const Value& key = right.row(i)[right_col];
    if (key.is_null()) continue;
    build[&key].push_back(i);
  }
  for (const Tuple& l : left.rows()) {
    const Value& key = l[left_col];
    if (key.is_null()) continue;
    auto it = build.find(&key);
    if (it == build.end()) continue;
    for (size_t i : it->second) {
      out.AddRowUnchecked(ConcatTuples(l, right.row(i)));
    }
  }
  return out;
}

Result<Relation> NestedLoopJoin(const Relation& left, const Relation& right,
                                const sql::Expr& predicate) {
  Relation out(Schema::Concat(left.schema(), right.schema()));
  const BoundExpr bound(predicate, out.schema());
  for (const Tuple& l : left.rows()) {
    for (const Tuple& r : right.rows()) {
      Tuple combined = ConcatTuples(l, r);
      GALOIS_ASSIGN_OR_RETURN(bool keep, bound.Test(combined));
      if (keep) out.AddRowUnchecked(std::move(combined));
    }
  }
  return out;
}

Result<Relation> LeftOuterJoin(const Relation& left, const Relation& right,
                               const sql::Expr& predicate) {
  Relation out(Schema::Concat(left.schema(), right.schema()));
  const BoundExpr bound(predicate, out.schema());
  for (const Tuple& l : left.rows()) {
    bool matched = false;
    for (const Tuple& r : right.rows()) {
      Tuple combined = ConcatTuples(l, r);
      GALOIS_ASSIGN_OR_RETURN(bool keep, bound.Test(combined));
      if (keep) {
        matched = true;
        out.AddRowUnchecked(std::move(combined));
      }
    }
    if (!matched) {
      Tuple padded = l;
      padded.resize(out.schema().size(), Value::Null());
      out.AddRowUnchecked(std::move(padded));
    }
  }
  return out;
}

Result<Relation> Project(const Relation& input,
                         const std::vector<const sql::Expr*>& exprs,
                         const std::vector<std::string>& names) {
  if (exprs.size() != names.size()) {
    return Status::InvalidArgument("Project: exprs/names arity mismatch");
  }
  Schema out_schema;
  for (size_t i = 0; i < exprs.size(); ++i) {
    // Column type: preserve source column type when the expr is a bare ref.
    DataType type = DataType::kString;
    if (exprs[i]->kind == sql::ExprKind::kColumnRef) {
      auto idx = input.schema().ResolveQualified(exprs[i]->table,
                                                 exprs[i]->column);
      if (idx.ok()) type = input.schema().column(idx.value()).type;
    } else if (exprs[i]->kind == sql::ExprKind::kLiteral) {
      type = exprs[i]->literal.type();
    } else {
      type = DataType::kDouble;  // computed expressions default numeric
    }
    out_schema.AddColumn(Column(names[i], type));
  }
  Relation out(out_schema);
  const std::vector<BoundExpr> bound = BindAll(exprs, input.schema());
  for (const Tuple& row : input.rows()) {
    Tuple projected;
    projected.reserve(bound.size());
    for (const BoundExpr& e : bound) {
      GALOIS_ASSIGN_OR_RETURN(Value v, e.Eval(row));
      projected.push_back(std::move(v));
    }
    out.AddRowUnchecked(std::move(projected));
  }
  return out;
}

Result<Relation> Sort(const Relation& input,
                      const std::vector<sql::OrderItem>& items) {
  // Precompute sort keys so evaluation errors surface before sorting.
  std::vector<BoundExpr> bound;
  bound.reserve(items.size());
  for (const sql::OrderItem& item : items) {
    bound.emplace_back(*item.expr, input.schema());
  }
  std::vector<std::pair<Tuple, size_t>> keyed;
  keyed.reserve(input.NumRows());
  for (size_t i = 0; i < input.NumRows(); ++i) {
    Tuple key;
    key.reserve(bound.size());
    for (const BoundExpr& e : bound) {
      GALOIS_ASSIGN_OR_RETURN(Value v, e.Eval(input.row(i)));
      key.push_back(std::move(v));
    }
    keyed.emplace_back(std::move(key), i);
  }
  std::stable_sort(keyed.begin(), keyed.end(),
                   [&items](const auto& a, const auto& b) {
                     for (size_t k = 0; k < items.size(); ++k) {
                       int c = a.first[k].Compare(b.first[k]);
                       if (c != 0) {
                         return items[k].descending ? c > 0 : c < 0;
                       }
                     }
                     return false;
                   });
  Relation out(input.schema());
  for (const auto& [key, idx] : keyed) out.AddRowUnchecked(input.row(idx));
  return out;
}

Relation Limit(const Relation& input, size_t n) {
  Relation out(input.schema());
  for (size_t i = 0; i < std::min(n, input.NumRows()); ++i) {
    out.AddRowUnchecked(input.row(i));
  }
  return out;
}

Relation Distinct(const Relation& input) {
  Relation out = input;
  out.DedupRows();
  return out;
}

Result<Relation> HashAggregate(
    const Relation& input,
    const std::vector<const sql::Expr*>& group_exprs,
    const std::vector<AggregateSpec>& aggregates) {
  // group key -> (representative input row idx, per-aggregate state)
  std::map<Tuple, std::pair<size_t, std::vector<AggState>>, TupleKeyLess>
      groups;
  const std::vector<BoundExpr> bound_groups =
      BindAll(group_exprs, input.schema());
  // Per aggregate: its bound argument, or none for COUNT(*).
  std::vector<std::optional<BoundExpr>> bound_args;
  bound_args.reserve(aggregates.size());
  for (const AggregateSpec& spec : aggregates) {
    const sql::Expr& call = *spec.call;
    bool is_count_star = call.function_name == "COUNT" &&
                         !call.children.empty() &&
                         call.children[0]->kind == sql::ExprKind::kStar;
    if (is_count_star) {
      bound_args.emplace_back();
    } else {
      bound_args.emplace_back(std::in_place, *call.children[0],
                              input.schema());
    }
  }
  const Value one = Value::Int(1);
  for (size_t r = 0; r < input.NumRows(); ++r) {
    const Tuple& row = input.row(r);
    Tuple key;
    key.reserve(bound_groups.size());
    for (const BoundExpr& g : bound_groups) {
      GALOIS_ASSIGN_OR_RETURN(Value v, g.Eval(row));
      key.push_back(std::move(v));
    }
    auto [it, inserted] = groups.try_emplace(
        std::move(key), r, std::vector<AggState>(aggregates.size()));
    auto& [rep, states] = it->second;
    (void)rep;
    for (size_t a = 0; a < aggregates.size(); ++a) {
      if (!bound_args[a].has_value()) {
        states[a].Accumulate(one, /*distinct=*/false);
        continue;
      }
      GALOIS_ASSIGN_OR_RETURN(Value v, bound_args[a]->Eval(row));
      states[a].Accumulate(v, aggregates[a].call->distinct);
    }
  }
  // Output schema: group columns then aggregate columns.
  Schema out_schema;
  for (const sql::Expr* g : group_exprs) {
    DataType type = DataType::kString;
    if (g->kind == sql::ExprKind::kColumnRef) {
      auto idx = input.schema().ResolveQualified(g->table, g->column);
      if (idx.ok()) type = input.schema().column(idx.value()).type;
      // Keep the qualified name resolvable for the projection stage.
      out_schema.AddColumn(Column(g->column, type, g->table));
    } else {
      out_schema.AddColumn(Column(g->ToString(), type));
    }
  }
  for (const AggregateSpec& spec : aggregates) {
    DataType type = spec.call->function_name == "COUNT" ? DataType::kInt64
                                                        : DataType::kDouble;
    out_schema.AddColumn(Column(spec.call->ToString(), type));
  }
  Relation out(out_schema);
  if (groups.empty() && group_exprs.empty()) {
    // Scalar aggregation over empty input: one row, COUNT=0, rest NULL.
    Tuple row;
    for (const AggregateSpec& spec : aggregates) {
      AggState empty;
      GALOIS_ASSIGN_OR_RETURN(Value v,
                              empty.Finish(spec.call->function_name));
      row.push_back(std::move(v));
    }
    out.AddRowUnchecked(std::move(row));
    return out;
  }
  for (const auto& [key, value] : groups) {
    const auto& [rep, states] = value;
    (void)rep;
    Tuple row = key;
    for (size_t a = 0; a < aggregates.size(); ++a) {
      GALOIS_ASSIGN_OR_RETURN(
          Value v, states[a].Finish(aggregates[a].call->function_name));
      row.push_back(std::move(v));
    }
    out.AddRowUnchecked(std::move(row));
  }
  return out;
}

}  // namespace galois::engine
