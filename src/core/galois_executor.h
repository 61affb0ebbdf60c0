#ifndef GALOIS_CORE_GALOIS_EXECUTOR_H_
#define GALOIS_CORE_GALOIS_EXECUTOR_H_

#include <string>

#include "catalog/catalog.h"
#include "common/result.h"
#include "core/options.h"
#include "core/physical_plan.h"
#include "llm/language_model.h"
#include "sql/ast.h"
#include "types/relation.h"

namespace galois::core {

/// The Galois executor (the paper's primary contribution, Section 4).
///
/// Executes SPJA SQL where some or all base relations live in a language
/// model. Execution is plan-driven end to end: Compile parses the
/// statement, builds the logical plan (planner::BuildLogicalPlan),
/// annotates it with the physical decisions
/// (planner::BindPhysicalAnnotations — pushdown, consumed conjuncts,
/// retrieve columns, the LIMIT paging bound), and compiles it into a
/// physical operator DAG (core/physical_plan) whose stages decompose the
/// task chain-of-thought style:
///
///   1. leaf access — retrieve the key-attribute values of each LLM table
///      with iterative key-scan prompts (bounded by LIMIT when the plan
///      proves that safe);
///   2. selection — simple predicates on LLM tables become per-key
///      filter-check prompts (or are pushed into the scan prompt when the
///      pushdown optimisation is on);
///   3. attribute completion — every non-key attribute the rest of the
///      plan needs is retrieved with one prompt per (key, attribute) and
///      cleaned into a typed cell;
///   4. relational tail — joins, aggregates, ORDER BY etc. run on the
///      classic engine over the materialised tuples ("traditional
///      algorithms for any operator involving attributes that have already
///      been retrieved").
///
/// The planner is the single source of truth for what executes where:
/// the executor never re-derives pushdown or column decisions (the
/// hardwired pre-plan ladder that did is retired).
///
/// Hybrid queries mix `LLM.` and `DB.` tables: DB tables are read from the
/// catalog instances, exactly like the intro's
/// `SELECT c.GDP, AVG(e.salary) FROM LLM.country c, DB.Employees e ...`.
///
/// With ExecutionOptions::pipeline_phases the DAG executes as a pipeline
/// instead of a ladder of barriers: independent LLM tables materialise
/// concurrently, and within one table the per-column chains (attribute
/// phase, then its critic-verify follow-up) overlap on the phase pool.
/// Results, provenance order and cost accounting are identical to the
/// sequential plan, which runs the same tasks inline. A
/// MaterialisationCache attached via set_materialisation_cache adds
/// cross-query reuse on top: a table is served with zero LLM round trips
/// when its (base key, predicate descriptor) pair — definition,
/// result-affecting options, model, plus the canonicalised pushed
/// conjuncts and paging bound — was already materialised, either exactly,
/// by projection from a wider cached column set, or by predicate
/// subsumption from an entry cached under a weaker filter (the residual
/// conjuncts re-applied in memory and billed as a residual-filter
/// operator in the explain DAG).
///
/// Every query is one Compile followed by one RunPlan (RunShard: Compile,
/// then PhysicalPlan::ExecuteShard). A caller that needs the plan before
/// it runs — the cluster coordinator reads its shards, then overlays the
/// gathered tables on it — compiles once and runs that same plan.
///
/// Threading model: the executor is immutable after setup (construction
/// plus an optional set_materialisation_cache). Every method is const,
/// each query runs a freshly compiled physical plan, and all per-query
/// state — meter, trace, operator stats, cache counters — lives in that
/// plan and the returned QueryOutput, so one executor instance may run
/// any number of queries concurrently from different threads. This is
/// the engine beneath galois::Database / galois::Session
/// (src/api/database.h), which is the intended public entry point; the
/// executor remains available for tests and benches that drive the
/// engine directly.
class GaloisExecutor {
 public:
  /// `model` and `catalog` must outlive the executor. `options` are fixed
  /// for the executor's lifetime — per-query variation is the Session's
  /// job (it snapshots its options into a fresh executor per query).
  GaloisExecutor(llm::LanguageModel* model,
                 const catalog::Catalog* catalog,
                 ExecutionOptions options = ExecutionOptions());

  /// Parse -> logical plan (planner::BuildLogicalPlan) -> physical
  /// annotations (planner::BindPhysicalAnnotations, the only place that
  /// decides pushdown, consumed conjuncts and retrieve columns) ->
  /// physical operator DAG. Spends nothing; parse and plan errors surface
  /// here. The logical plan deep-clones the statement's expressions, so
  /// the returned plan is self-contained.
  Result<PhysicalPlan> Compile(const std::string& sql) const;
  Result<PhysicalPlan> Compile(const sql::SelectStatement& stmt) const;

  /// Executes a compiled plan (with the overlays set on it, if any: see
  /// PhysicalPlan::SetOverlays) under a per-query llm::CostTap, so the
  /// result's meter is exactly this query's spend even when other queries
  /// bill the same shared model stack concurrently. The result carries
  /// the rendered DAG. Thread-safe: may be called concurrently with
  /// itself.
  ///
  /// Order: compile, then cancellation, then execution. RunPlan checks
  /// options().control before it issues any prompt, so a query whose
  /// token is already cancelled answers kCancelled with nothing billed.
  /// Compilation comes first (RunSql and Run compile before they call
  /// RunPlan), so a query that fails to parse or bind reports that error
  /// even when its token is already cancelled.
  Result<QueryOutput> RunPlan(PhysicalPlan plan) const;

  /// Compile, then RunPlan.
  Result<QueryOutput> RunSql(const std::string& sql) const;
  Result<QueryOutput> Run(const sql::SelectStatement& stmt) const;

  /// Relation-only conveniences for callers that need no measurements.
  Result<Relation> ExecuteSql(const std::string& sql) const;
  Result<Relation> Execute(const sql::SelectStatement& stmt) const;

  /// Executes exactly one shard of `request.sql`: compiles the query,
  /// validates the compiled shard under `request.alias` against the
  /// request's table/columns/descriptor (mismatch = version skew,
  /// kInvalidArgument), and materialises that single table — through the
  /// attached materialisation cache for whole-table shards, bypassing it
  /// for key-range slices (a slice under the full descriptor would
  /// poison the cache). The output's relation is the shard's
  /// materialised table; cost is exactly the shard's spend.
  Result<QueryOutput> RunShard(const ShardRequest& request) const;

  const ExecutionOptions& options() const { return options_; }

  /// Attaches a cross-query materialisation cache (nullptr detaches).
  /// Non-owning; the cache is thread-safe and may be shared by several
  /// executors. Setup-time only: do not call with queries in flight.
  /// Bypassed while options().record_provenance is on (a cache hit
  /// cannot replay per-cell prompt traces).
  void set_materialisation_cache(MaterialisationCache* cache) {
    materialisation_cache_ = cache;
  }
  MaterialisationCache* materialisation_cache() const {
    return materialisation_cache_;
  }

 private:
  llm::LanguageModel* model_;
  const catalog::Catalog* catalog_;
  ExecutionOptions options_;
  MaterialisationCache* materialisation_cache_ = nullptr;
};

}  // namespace galois::core

#endif  // GALOIS_CORE_GALOIS_EXECUTOR_H_
