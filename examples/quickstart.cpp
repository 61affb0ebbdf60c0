// Quickstart: run one SQL query against a language model with Galois.
//
// This walks the public API surface:
//   1. open a galois::Database (world + catalog + a simulated
//      GPT-3.5-turbo backend, all wired by the builder),
//   2. create a Session and execute the query — the returned QueryResult
//      carries the relation plus the query's own prompt bill,
//   3. show the physical operator DAG the query executed, with its
//      LLM-specific operators (Figure 3 style),
//   4. compare against a classic DBMS run over the ground truth.
//
// Usage: quickstart ["SQL query"]

#include <cstdio>
#include <string>

#include "api/database.h"
#include "engine/executor.h"

int main(int argc, char** argv) {
  std::string sql =
      "SELECT name, capital FROM country WHERE continent = 'Europe'";
  if (argc > 1) sql = argv[1];

  // 1. Database: defaults give the builtin workload and one simulated
  // ChatGpt backend (swap in BackendSpec{.simulated = ModelProfile::
  // Flan()} etc. to compare models).
  auto db = galois::Database::Open(galois::DatabaseOptions());
  if (!db.ok()) {
    std::fprintf(stderr, "open: %s\n", db.status().ToString().c_str());
    return 1;
  }

  // 2. Execute on the LLM through a Session; the QueryResult is
  // self-contained (relation + this query's cost meter).
  std::printf("Query: %s\n\n", sql.c_str());
  galois::Session session = (*db)->CreateSession();
  auto result = session.Query(sql);
  if (!result.ok()) {
    std::fprintf(stderr, "execute: %s\n",
                 result.status().ToString().c_str());
    return 1;
  }
  std::printf("Galois result (R_M, retrieved from the LLM):\n%s\n",
              result->relation.ToPrettyString(12).c_str());
  std::printf(
      "Prompt bill: %lld prompts, %lld prompt tokens, %.1f s simulated "
      "latency (%.0f ms wall)\n\n",
      static_cast<long long>(result->cost.num_prompts),
      static_cast<long long>(result->cost.prompt_tokens),
      result->cost.simulated_latency_ms / 1000.0, result->wall_ms);

  // 3. The plan that ran: one line per physical operator, LLM operators
  // (key scan, filter checks, attribute retrievals) at the leaves.
  std::printf("Executed plan (Figure 3 style):\n%s\n",
              session.Explain().c_str());

  // 4. Ground truth from the classic engine.
  auto truth = galois::engine::ExecuteSql(sql, (*db)->catalog());
  if (truth.ok()) {
    std::printf("Ground truth (R_D, classic DBMS execution):\n%s\n",
                truth->ToPrettyString(12).c_str());
  }
  return 0;
}
