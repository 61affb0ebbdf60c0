#ifndef GALOIS_ENGINE_EXECUTOR_H_
#define GALOIS_ENGINE_EXECUTOR_H_

#include <string>
#include <utility>
#include <vector>

#include "catalog/catalog.h"
#include "common/result.h"
#include "sql/ast.h"
#include "types/relation.h"

namespace galois::engine {

/// A materialised base relation bound to its FROM-clause alias. The
/// relation's schema must already be qualified with the alias.
using BoundRelation = std::pair<std::string, Relation>;

/// Executes the SPJA pipeline of `stmt` over already-materialised base
/// relations (one per FROM/JOIN entry, in order). This is the shared
/// back-half of both executors: the ground-truth executor materialises the
/// bases from catalog instances, the Galois executor materialises them by
/// prompting the LLM (Section 4: "Once the tuples are completed, regular
/// operators ... are executed on those").
Result<Relation> ExecuteOnRelations(const sql::SelectStatement& stmt,
                                    std::vector<BoundRelation> bases);

/// Ground-truth executor: resolves every FROM/JOIN table to its catalog
/// instance and runs the query; this produces the paper's R_D.
Result<Relation> ExecuteSelect(const sql::SelectStatement& stmt,
                               const catalog::Catalog& catalog);

/// Convenience: parse + execute.
Result<Relation> ExecuteSql(const std::string& query,
                            const catalog::Catalog& catalog);

}  // namespace galois::engine

#endif  // GALOIS_ENGINE_EXECUTOR_H_
