#ifndef GALOIS_ENGINE_EXPR_EVAL_H_
#define GALOIS_ENGINE_EXPR_EVAL_H_

#include <cstddef>
#include <limits>
#include <string>
#include <vector>

#include "common/result.h"
#include "sql/ast.h"
#include "types/schema.h"

namespace galois::engine {

/// Where the aggregates of an aggregated row live: the aggregate whose
/// canonical rendering (e.g. "AVG(e.salary)") is (*keys)[i] is the row's
/// column first_column + i (the HashAggregate output layout: group
/// columns, then aggregates). Used when evaluating SELECT/HAVING/ORDER BY
/// expressions over grouped data.
struct AggregateLayout {
  const std::vector<std::string>* keys = nullptr;
  size_t first_column = 0;
};

/// An expression bound to one schema. Column references — and, given an
/// AggregateLayout, aggregate calls — are resolved to tuple indices once,
/// at construction, so per-row evaluation indexes the tuple directly.
/// Operators bind once per call and evaluate once per row.
///
/// A reference that fails to bind (unknown or ambiguous name, aggregate
/// outside the layout) keeps the per-row lookup by name: its error
/// surfaces on the same row, in the same evaluation order, as without
/// binding, and an empty input raises nothing.
///
/// The expression and the schema must outlive the BoundExpr.
class BoundExpr {
 public:
  BoundExpr(const sql::Expr& expr, const Schema& schema,
            const AggregateLayout* aggregates = nullptr);

  /// Evaluates against one tuple of the bound schema. Aggregate calls
  /// outside the layout are an error.
  ///
  /// SQL NULL semantics: any arithmetic/comparison with a NULL operand
  /// yields NULL; AND/OR use null-as-unknown collapsed conservatively
  /// (NULL AND x -> NULL unless x is false; NULL OR x -> NULL unless x is
  /// true).
  Result<Value> Eval(const Tuple& tuple) const;

  /// Evaluates as a predicate: NULL and non-boolean non-numeric results
  /// count as false; numeric results count as (value != 0).
  Result<bool> Test(const Tuple& tuple) const;

  /// True when Eval cannot fail on any tuple of the bound schema: every
  /// reference is bound and every operator is total (comparisons, AND,
  /// OR, NOT, BETWEEN, IN, IS NULL). Arithmetic, negation and LIKE can
  /// raise a type error on some cell values, '*' and unbound references
  /// always raise.
  bool CannotRaise() const;

 private:
  static constexpr size_t kUnbound = std::numeric_limits<size_t>::max();

  /// Mirror of one expression node; `slot` is the bound tuple index of a
  /// column reference or aggregate call (kUnbound otherwise).
  struct Node {
    const sql::Expr* expr = nullptr;
    size_t slot = kUnbound;
    std::vector<Node> children;
  };

  static Node Bind(const sql::Expr& expr, const Schema& schema,
                   const AggregateLayout* aggregates);
  static bool CannotRaise(const Node& node);
  /// The node's value without copying it, when that cannot fail (a
  /// literal or a bound, in-range column); null otherwise.
  static const Value* Peek(const Node& node, const Tuple& tuple);
  Result<Value> EvalNode(const Node& node, const Tuple& tuple) const;

  const Schema* schema_;
  Node root_;
};

/// One-shot evaluation of `expr` against one tuple of `schema` (binds,
/// then evaluates; operators bind once and reuse a BoundExpr instead).
Result<Value> EvalExpr(const sql::Expr& expr, const Schema& schema,
                       const Tuple& tuple);

/// One-shot predicate evaluation (see BoundExpr::Test).
Result<bool> EvalPredicate(const sql::Expr& expr, const Schema& schema,
                           const Tuple& tuple);

/// SQL LIKE matching with % (any run) and _ (single char) wildcards.
bool LikeMatch(const std::string& text, const std::string& pattern);

}  // namespace galois::engine

#endif  // GALOIS_ENGINE_EXPR_EVAL_H_
