#ifndef GALOIS_ENGINE_OPERATORS_H_
#define GALOIS_ENGINE_OPERATORS_H_

#include <vector>

#include "common/result.h"
#include "sql/ast.h"
#include "types/relation.h"

namespace galois::engine {

/// Classic physical operators over materialised Relations. These implement
/// the "traditional algorithms" side of Galois (Section 4, workflow step 4):
/// once tuples have been retrieved — from the LLM or from a DB instance —
/// joins, aggregates, sorts etc. are executed with ordinary DB operators.

/// sigma: keeps rows satisfying `predicate`.
Result<Relation> Filter(const Relation& input, const sql::Expr& predicate);

/// Cartesian product with concatenated schemas.
Result<Relation> CrossJoin(const Relation& left, const Relation& right);

/// Equi-join via build/probe hash table on `left_col` = `right_col`
/// (column indices into the respective schemas). NULL keys never match;
/// keys match when Value::Compare says equal (3 matches 3.0). The build
/// side keeps one list of right rows per key in ascending row order, so
/// the output — rows and their order — is exactly CrossJoin followed by a
/// Filter on the equality.
Result<Relation> HashJoin(const Relation& left, const Relation& right,
                          size_t left_col, size_t right_col);

/// Theta join: nested loop with an arbitrary predicate over the
/// concatenated schema.
Result<Relation> NestedLoopJoin(const Relation& left, const Relation& right,
                                const sql::Expr& predicate);

/// Left outer variant of NestedLoopJoin (unmatched left rows padded with
/// NULLs).
Result<Relation> LeftOuterJoin(const Relation& left, const Relation& right,
                               const sql::Expr& predicate);

/// pi: evaluates one expression per output column against each row.
/// `names` provides the output column labels (same arity as `exprs`).
Result<Relation> Project(const Relation& input,
                         const std::vector<const sql::Expr*>& exprs,
                         const std::vector<std::string>& names);

/// ORDER BY: stable sort on the given items.
Result<Relation> Sort(const Relation& input,
                      const std::vector<sql::OrderItem>& items);

/// LIMIT n.
Relation Limit(const Relation& input, size_t n);

/// DISTINCT over whole rows.
Relation Distinct(const Relation& input);

/// One computed aggregate column specification.
struct AggregateSpec {
  const sql::Expr* call = nullptr;  // the kFunction node (COUNT/AVG/...)
};

/// gamma: groups `input` by `group_exprs` and computes `aggregates` per
/// group. Output schema: one column per group expression (named by its
/// rendering) followed by one per aggregate (named by its rendering).
/// With no group expressions the whole input is a single group (scalar
/// aggregation), producing exactly one row even for empty input (per SQL,
/// COUNT=0, other aggregates NULL).
Result<Relation> HashAggregate(
    const Relation& input,
    const std::vector<const sql::Expr*>& group_exprs,
    const std::vector<AggregateSpec>& aggregates);

}  // namespace galois::engine

#endif  // GALOIS_ENGINE_OPERATORS_H_
