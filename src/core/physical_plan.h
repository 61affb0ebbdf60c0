#ifndef GALOIS_CORE_PHYSICAL_PLAN_H_
#define GALOIS_CORE_PHYSICAL_PLAN_H_

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "common/result.h"
#include "core/galois_executor.h"
#include "core/llm_operators.h"
#include "core/materialisation_cache.h"
#include "core/options.h"
#include "core/provenance.h"
#include "engine/relational_stages.h"
#include "llm/language_model.h"
#include "llm/metering.h"
#include "llm/prompt.h"
#include "planner/planner.h"

namespace galois::core {

/// The planner::BindingOptions implied by an ExecutionOptions snapshot —
/// the one translation point between the executor's knobs and the
/// annotation pass, so the two layers cannot drift apart.
planner::BindingOptions BindingOptionsFor(const ExecutionOptions& options);

/// Execution statistics of one physical operator, filled in by
/// PhysicalPlan::Execute and rendered by Render / the shell's `.explain`.
struct OperatorStats {
  /// The operator ran (a phase skipped because an earlier phase failed or
  /// because the whole table came from the materialisation cache stays
  /// false).
  bool executed = false;
  /// The operator's table was served by the materialisation cache: zero
  /// LLM round trips, rows from the cached materialisation.
  bool from_cache = false;
  /// The operator's table was served by a remote shard (cluster
  /// scatter-gather): zero local LLM round trips, rows from the gathered
  /// partial relation. The remote node's spend is aggregated into the
  /// query meter by the coordinator, not attributed to this node.
  bool from_remote = false;
  /// Output rows of the operator; -1 when it never produced any.
  int64_t rows = -1;
  /// LLM round trips this operator issued: scan pages, or batch round
  /// trips (falling back to prompt count under sequential dispatch).
  int64_t round_trips = 0;
  /// Exactly this operator's LLM spend, attributed through a nested
  /// per-operator llm::CostTap. All-zero for relational operators.
  llm::CostMeter cost;
};

/// A node of the physical operator DAG. Labels are display strings
/// ("FilterCheck c.population > 1000000 (one prompt per surviving key)");
/// children are non-owning pointers into the plan's node arena.
struct PhysicalNode {
  std::string label;
  std::vector<PhysicalNode*> children;
  OperatorStats stats;
};

/// The compiled physical form of one annotated logical plan: a DAG whose
/// LLM-backed leaves (key scan, key critic, filter checks, attribute
/// retrieval, cell critic) wrap the prompt-issuing operators in
/// core/llm_operators, and whose relational tail (joins, residual filter,
/// aggregation, fused HAVING+projection, sort, distinct, limit) runs the
/// exact stages in engine/relational_stages that the statement-driven
/// executor runs.
///
/// Compile() lowers a logical plan that has been through
/// planner::BindPhysicalAnnotations — the single source of truth for
/// pushdown, consumed conjuncts, retrieve columns and the LIMIT paging
/// bound. Execute() materialises every base table (concurrently under
/// pipeline_phases, through the materialisation cache when attached),
/// runs the relational tail, and records per-operator statistics on the
/// DAG. Render() pretty-prints the DAG with those statistics.
///
/// One PhysicalPlan executes one query: GaloisExecutor::Run compiles a
/// fresh plan per call, so executor-level thread-safety is preserved
/// (nothing per-query ever lands on the executor).
class PhysicalPlan {
 public:
  /// Lowers `plan` (annotated, see above) against `catalog`. The plan
  /// tree is owned by the returned PhysicalPlan — the compiled spec keeps
  /// borrowing views into its expressions.
  static Result<PhysicalPlan> Compile(planner::PlanNodePtr plan,
                                      const catalog::Catalog* catalog,
                                      const ExecutionOptions& options);

  PhysicalPlan(PhysicalPlan&&) = default;
  PhysicalPlan& operator=(PhysicalPlan&&) = default;

  /// Runs the plan to completion against `model` (the query's CostTap —
  /// every prompt of every operator bills through it) and an optional
  /// materialisation cache. Returns the relation, provenance trace and
  /// cache counters; QueryOutput::cost and ::physical_plan are the
  /// caller's to fill (it owns the tap and the render timing). Call at
  /// most once per compiled plan.
  Result<QueryOutput> Execute(llm::LanguageModel* model,
                              MaterialisationCache* cache);

  /// Lists the plan's LLM base tables as shard specs, in FROM order
  /// (see ShardSpec in galois_executor.h).
  std::vector<ShardSpec> LlmShards() const;

  /// Injects pre-materialised tables (matched by FROM alias) that
  /// Execute uses in place of the engine's own LLM materialisation.
  /// Overlaid tables spend nothing and bypass the materialisation cache.
  /// Call before Execute.
  void SetOverlays(std::vector<TableOverlay> overlays);

  /// Executes exactly one shard: materialises the single LLM table
  /// aliased `request.alias`, restricted to the request's key-range
  /// slice, after validating the compiled group against the request's
  /// spec. See GaloisExecutor::RunShard.
  Result<QueryOutput> ExecuteShard(const ShardRequest& request,
                                   llm::LanguageModel* model,
                                   MaterialisationCache* cache);

  /// Indented tree rendering with per-operator statistics, e.g.
  ///   Limit 5  [rows=5]
  ///     Project [name]  [rows=5]
  ///       Retrieve c.{population} (...)  [rows=5, round trips=1, ...]
  std::string Render() const;

  const PhysicalNode* root() const { return root_; }

 private:
  /// One base relation of the FROM clause with everything its
  /// materialisation needs, compiled straight from the annotated scan
  /// node (no re-derivation).
  struct TableGroup {
    const planner::PlanNode* scan = nullptr;
    const catalog::TableDef* def = nullptr;
    std::string alias;
    bool from_llm = false;
    /// Non-key columns to retrieve, in definition order.
    std::vector<const catalog::ColumnDef*> needed_columns;
    /// Predicates executed through the LLM, in conjunct order.
    std::vector<llm::PromptFilter> llm_filters;
    /// llm_filters[0] merges into the scan prompt (pushdown).
    bool push_first_filter = false;
    /// LIMIT-derived paging bound (-1 unbounded).
    int64_t key_limit = -1;
    /// The structured predicate half of the materialisation-cache key,
    /// compiled (and canonicalised) from the annotated scan filters —
    /// what predicate-subsumption lookups reason over.
    PredicateDescriptor descriptor;
    /// Key-scan paging outcome (pages bought / prefetched /
    /// overfetched), filled by MaterialiseLlm and aggregated into
    /// QueryOutput by MaterialiseAll.
    KeyScanStats scan_stats;
    /// Contiguous key-range slice for shard execution: after the scan,
    /// only scanned keys [n*i/c, n*(i+1)/c) proceed to the per-key
    /// phases. 0/1 = the whole table (the default, and the only value
    /// outside ExecuteShard).
    int64_t slice_index = 0;
    int64_t slice_count = 1;

    // Stats targets; null when the phase does not exist for this group.
    PhysicalNode* scan_node = nullptr;
    PhysicalNode* key_verify_node = nullptr;
    std::vector<PhysicalNode*> check_nodes;  // per non-merged filter
    PhysicalNode* retrieve_node = nullptr;
    PhysicalNode* cell_verify_node = nullptr;
    PhysicalNode* top = nullptr;  // root of this group's subtree
  };

  PhysicalPlan() = default;

  PhysicalNode* NewNode(std::string label);

  /// The schema `group` materialises in (DB instance or LLM key plus
  /// needed columns), known at compile time.
  static Schema GroupSchema(const TableGroup& group);

  /// Splices a residual-filter operator above `group`'s subtree after a
  /// predicate-subsumption cache hit, so Explain shows the in-memory
  /// conjunct re-check (and its row reduction) as a first-class
  /// operator.
  void InsertResidualNode(TableGroup& group,
                          const MaterialisationLookupInfo& info);

  Result<Relation> MaterialiseDb(TableGroup& group);
  Result<Relation> MaterialiseLlm(TableGroup& group,
                                  llm::LanguageModel* model,
                                  ExecutionTrace* trace);
  Result<std::vector<std::vector<Value>>> RetrieveColumnsPipelined(
      const TableGroup& group, llm::LanguageModel* attr_model,
      llm::LanguageModel* verify_model,
      const std::vector<std::string>& surviving, ExecutionTrace* trace);
  Result<std::vector<Relation>> MaterialiseAll(llm::LanguageModel* model,
                                               MaterialisationCache* cache,
                                               QueryOutput* out);

  planner::PlanNodePtr plan_;  // owns every expression the spec borrows
  const catalog::Catalog* catalog_ = nullptr;
  ExecutionOptions options_;

  std::deque<PhysicalNode> nodes_;  // arena; addresses stable
  PhysicalNode* root_ = nullptr;

  std::vector<TableGroup> groups_;  // FROM order
  /// Join routing and the engine-side WHERE residue (null when fully
  /// consumed by scan filters), decided at compile time.
  engine::JoinPlan join_plan_;
  std::vector<PhysicalNode*> join_nodes_;  // parallel to join_plan_.steps

  /// Pre-materialised tables by alias (SetOverlays); consumed by
  /// MaterialiseAll in place of the matching group's LLM phases.
  std::vector<TableOverlay> overlays_;

  PhysicalNode* filter_node_ = nullptr;  // the WHERE residue's operator

  engine::TailSpec spec_;  // views into plan_'s expressions
  PhysicalNode* aggregate_node_ = nullptr;
  PhysicalNode* having_node_ = nullptr;
  PhysicalNode* project_node_ = nullptr;
  PhysicalNode* sort_node_ = nullptr;
  PhysicalNode* distinct_node_ = nullptr;
  PhysicalNode* limit_node_ = nullptr;
  int64_t limit_value_ = -1;
};

}  // namespace galois::core

#endif  // GALOIS_CORE_PHYSICAL_PLAN_H_
