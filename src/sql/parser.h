#ifndef GALOIS_SQL_PARSER_H_
#define GALOIS_SQL_PARSER_H_

#include <string>

#include "common/result.h"
#include "sql/ast.h"

namespace galois::sql {

/// Deepest expression tree ParseSelect accepts, where a node's depth is 1
/// plus the depth of its deepest child (a literal or column reference is
/// 1; `a = 'x' AND b = 'y'` is 3). The same bound caps how deeply
/// expressions may nest syntactically — parentheses, function arguments,
/// IN-list items, NOT and unary signs each open one level. Deeper input
/// is a kParseError, so every recursive walker downstream (planner,
/// evaluator, Expr::ToString, the destructor) runs on a bounded tree.
inline constexpr int kMaxExprDepth = 256;

/// Parses one SELECT statement in the SPJA dialect.
///
/// Supported grammar (case-insensitive keywords):
///   SELECT [DISTINCT] item[, item]*
///   FROM table_ref[, table_ref]* (JOIN table_ref ON expr)*
///   [WHERE expr] [GROUP BY expr[, expr]*] [HAVING expr]
///   [ORDER BY expr [ASC|DESC][, ...]] [LIMIT n] [;]
/// where table_ref := [source '.'] table [[AS] alias] and expressions cover
/// literals, column refs, arithmetic, comparisons, AND/OR/NOT, LIKE,
/// BETWEEN, IN lists, IS [NOT] NULL, and aggregate calls
/// (COUNT/SUM/AVG/MIN/MAX, with DISTINCT and COUNT(*)). Expressions are
/// bounded by kMaxExprDepth.
Result<SelectStatement> ParseSelect(const std::string& query);

}  // namespace galois::sql

#endif  // GALOIS_SQL_PARSER_H_
