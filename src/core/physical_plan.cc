#include "core/physical_plan.h"

#include <algorithm>
#include <functional>
#include <iterator>
#include <map>
#include <optional>
#include <sstream>
#include <utility>

#include "common/strings.h"
#include "common/thread_pool.h"
#include "core/llm_operators.h"
#include "core/materialisation_cache.h"
#include "engine/operators.h"

namespace galois::core {

namespace {

using planner::PlanNode;
using planner::PlanOp;

/// The non-NULL cells of one retrieved column, in row order — the input
/// of that column's critic-verification phase.
struct CellSelection {
  std::vector<size_t> idx;        // row indices into the column
  std::vector<std::string> keys;  // surviving key per cell
  std::vector<Value> values;      // claimed value per cell
};

CellSelection SelectNonNullCells(
    const std::vector<Value>& values,
    const std::vector<std::string>& surviving) {
  CellSelection sel;
  for (size_t i = 0; i < values.size(); ++i) {
    if (values[i].is_null()) continue;
    sel.idx.push_back(i);
    sel.keys.push_back(surviving[i]);
    sel.values.push_back(values[i]);
  }
  return sel;
}

/// Applies one column's critic verdicts: rejected cells become NULL — the
/// critic treats them as hallucinations — and the provenance records,
/// when kept, are tagged.
void ApplyVerdicts(const std::vector<int>& verdicts,
                   const CellSelection& cells, std::vector<Value>* values,
                   std::vector<CellProvenance>* provenances) {
  for (size_t v = 0; v < cells.idx.size(); ++v) {
    size_t i = cells.idx[v];
    if (provenances != nullptr) (*provenances)[i].verified = true;
    if (verdicts[v] == 0) {
      (*values)[i] = Value::Null();
      if (provenances != nullptr) {
        (*provenances)[i].rejected = true;
        (*provenances)[i].value = Value::Null();
      }
    }
  }
}

/// Joins `tasks` in order and returns their values, or the first error in
/// that order. After a failure no further prompt is spent on the tasks
/// behind it: the ones no worker has claimed are dropped without running
/// (so deferred tasks never run at all), and the ones already running are
/// waited for, since every task borrows its caller's frame.
template <typename T>
Result<std::vector<T>> JoinInOrder(std::vector<TaskHandle<Result<T>>>* tasks) {
  std::vector<T> values;
  values.reserve(tasks->size());
  for (size_t i = 0; i < tasks->size(); ++i) {
    Result<T> value = (*tasks)[i].Join();
    if (!value.ok()) {
      for (size_t j = i + 1; j < tasks->size(); ++j) (*tasks)[j].Drop();
      return value.status();
    }
    values.push_back(std::move(value).value());
  }
  return values;
}

/// Records an LLM operator's outcome on its DAG node: the nested tap's
/// spend, round trips derived from it (batch round trips when batching
/// was on, prompt count otherwise) and the output row count.
void FinishLlmOp(PhysicalNode* node, const llm::CostTap& tap,
                 size_t rows) {
  if (node == nullptr) return;
  node->stats.executed = true;
  node->stats.cost = tap.cost();
  node->stats.round_trips = node->stats.cost.num_batches > 0
                                ? node->stats.cost.num_batches
                                : node->stats.cost.num_prompts;
  node->stats.rows = static_cast<int64_t>(rows);
}

void FinishRelationalOp(PhysicalNode* node, size_t rows) {
  if (node == nullptr) return;
  node->stats.executed = true;
  node->stats.rows = static_cast<int64_t>(rows);
}

std::string FilterText(const llm::PromptFilter& f) {
  return f.attribute + " " + f.op + " " + f.value.ToString();
}

std::string StatsSummary(const OperatorStats& s) {
  if (s.from_cache) {
    return "cache hit: " + std::to_string(s.rows) +
           " rows, 0 round trips";
  }
  if (s.from_remote) {
    return "remote shard: " + std::to_string(s.rows) +
           " rows, 0 local round trips";
  }
  if (!s.executed) return "not executed";
  std::ostringstream os;
  os << "rows=" << s.rows;
  if (s.cost.num_prompts > 0 || s.cost.num_batches > 0) {
    os << ", round trips=" << s.round_trips
       << ", prompts=" << s.cost.num_prompts << ", tokens="
       << s.cost.prompt_tokens + s.cost.completion_tokens;
    char latency[32];
    std::snprintf(latency, sizeof(latency), "%.1f",
                  s.cost.simulated_latency_ms);
    os << ", latency=" << latency << "ms";
  }
  return os.str();
}

void RenderRec(const PhysicalNode& node, int depth,
               std::ostringstream* os) {
  *os << std::string(static_cast<size_t>(depth) * 2, ' ') << node.label
      << "  [" << StatsSummary(node.stats) << "]\n";
  for (const PhysicalNode* c : node.children) {
    RenderRec(*c, depth + 1, os);
  }
}

}  // namespace

planner::BindingOptions BindingOptionsFor(const ExecutionOptions& options) {
  planner::BindingOptions b;
  b.llm_filter_checks = options.llm_filter_checks;
  b.merge_filter_into_scan =
      options.pushdown_policy == PushdownPolicy::kAlways;
  b.merge_filter_auto = options.pushdown_policy == PushdownPolicy::kAuto;
  b.auto_pushdown_min_rows = options.auto_pushdown_min_rows;
  b.scan_rows_may_drop = options.verify_cells;
  return b;
}

PhysicalNode* PhysicalPlan::NewNode(std::string label) {
  nodes_.emplace_back();
  nodes_.back().label = std::move(label);
  return &nodes_.back();
}

Result<PhysicalPlan> PhysicalPlan::Compile(planner::PlanNodePtr plan,
                                           const catalog::Catalog* catalog,
                                           const ExecutionOptions& options) {
  PhysicalPlan p;
  p.plan_ = std::move(plan);
  p.catalog_ = catalog;
  p.options_ = options;
  PlanNode* root = p.plan_.get();

  // --- classify the logical tree ----------------------------------------
  // BuildLogicalPlan emits at most one of each tail operator and a
  // left-deep join tree; scans surface in FROM order under an in-order
  // walk.
  const PlanNode* where_filter = nullptr;
  const PlanNode* having_filter = nullptr;
  const PlanNode* aggregate = nullptr;
  const PlanNode* project = nullptr;
  const PlanNode* sort = nullptr;
  const PlanNode* distinct = nullptr;
  const PlanNode* limit = nullptr;
  std::vector<const PlanNode*> join_logicals;  // pre-order: topmost first
  std::vector<const PlanNode*> scans;          // FROM order
  std::map<const PlanNode*, const PlanNode*> retrieve_of;  // scan -> node
  std::function<void(const PlanNode*)> classify = [&](const PlanNode* n) {
    switch (n->op) {
      case PlanOp::kFilter:
        if (n->children[0]->op == PlanOp::kAggregate) {
          having_filter = n;
        } else {
          where_filter = n;
        }
        break;
      case PlanOp::kAggregate:
        aggregate = n;
        break;
      case PlanOp::kProject:
        project = n;
        break;
      case PlanOp::kSort:
        sort = n;
        break;
      case PlanOp::kDistinct:
        distinct = n;
        break;
      case PlanOp::kLimit:
        limit = n;
        break;
      case PlanOp::kJoin:
        join_logicals.push_back(n);
        break;
      case PlanOp::kRetrieve:
        retrieve_of[n->children[0].get()] = n;
        break;
      case PlanOp::kScan:
        scans.push_back(n);
        return;  // leaf
    }
    for (const auto& c : n->children) classify(c.get());
  };
  classify(root);

  if (project == nullptr || scans.empty()) {
    return Status::InvalidArgument(
        "physical plan: malformed logical plan (no Project/Scan)");
  }
  if (where_filter != nullptr && !where_filter->annotated) {
    return Status::InvalidArgument(
        "physical plan: logical plan was not annotated — run "
        "planner::BindPhysicalAnnotations before Compile");
  }
  if (join_logicals.size() + 1 != scans.size()) {
    return Status::InvalidArgument(
        "physical plan: join/scan count mismatch");
  }
  // Topmost join executes last: reverse into execution order.
  std::reverse(join_logicals.begin(), join_logicals.end());

  // --- compile one table group per scan ---------------------------------
  p.groups_.reserve(scans.size());
  for (const PlanNode* scan : scans) {
    TableGroup g;
    g.scan = scan;
    GALOIS_ASSIGN_OR_RETURN(g.def, catalog->GetTable(scan->table));
    g.alias = scan->alias;
    g.from_llm = scan->from_llm;
    g.key_limit = scan->scan_key_limit;
    g.push_first_filter = scan->merge_first_filter;
    for (const planner::ScanFilter& f : scan->scan_filters) {
      llm::PromptFilter filter;
      filter.attribute = f.column;
      filter.attribute_description = f.column_description;
      filter.op = f.op;
      filter.value = f.value;
      g.llm_filters.push_back(std::move(filter));
      PredicateConjunct conjunct;
      conjunct.column = f.column;
      conjunct.op = f.op;
      conjunct.value = f.value;
      conjunct.residual_ok = f.residually_checkable;
      g.descriptor.conjuncts.push_back(std::move(conjunct));
    }
    if (scan->merge_first_filter) {
      g.descriptor.pushed_column = scan->scan_filters[0].column;
    }
    g.descriptor.scan_key_limit = scan->scan_key_limit;
    g.descriptor.Canonicalise();
    auto it = retrieve_of.find(scan);
    if (it != retrieve_of.end()) {
      for (const std::string& name : it->second->columns) {
        GALOIS_ASSIGN_OR_RETURN(const catalog::ColumnDef* col,
                                g.def->FindColumn(name));
        g.needed_columns.push_back(col);
      }
    }

    // The group's operator chain, bottom-up: scan, key critic, filter
    // checks, retrieve, cell critic.
    if (!g.from_llm) {
      g.scan_node = p.NewNode("Scan[DB] " + g.def->name +
                              (g.alias != g.def->name
                                   ? " AS " + g.alias
                                   : std::string()));
      g.top = g.scan_node;
      p.groups_.push_back(std::move(g));
      continue;
    }
    {
      std::ostringstream os;
      os << "KeyScan[LLM] " << g.def->name;
      if (g.alias != g.def->name) os << " AS " << g.alias;
      os << " (key '" << g.def->key_column << "' via paged prompts";
      if (g.push_first_filter) {
        os << "; filter merged into scan prompt: "
           << FilterText(g.llm_filters[0]);
      }
      if (g.key_limit >= 0) {
        os << "; paging stops at " << g.key_limit << " keys";
      } else if (options.prefetch_pages > 0) {
        os << "; up to " << options.prefetch_pages
           << " pages prefetched speculatively";
      }
      os << ")";
      g.scan_node = p.NewNode(os.str());
    }
    g.top = g.scan_node;
    if (options.verify_cells) {
      g.key_verify_node = p.NewNode(
          "VerifyKeys " + g.alias + " (critic prompt per scanned key)");
      g.key_verify_node->children.push_back(g.top);
      g.top = g.key_verify_node;
    }
    for (size_t f = g.push_first_filter ? 1 : 0; f < g.llm_filters.size();
         ++f) {
      PhysicalNode* check = p.NewNode(
          "FilterCheck " + g.alias + "." + FilterText(g.llm_filters[f]) +
          " (one prompt per surviving key)");
      check->children.push_back(g.top);
      g.top = check;
      g.check_nodes.push_back(check);
    }
    if (!g.needed_columns.empty()) {
      std::vector<std::string> names;
      for (const catalog::ColumnDef* col : g.needed_columns) {
        names.push_back(col->name);
      }
      g.retrieve_node = p.NewNode(
          "Retrieve " + g.alias + ".{" + Join(names, ", ") +
          "} (one prompt per key per attribute)");
      g.retrieve_node->children.push_back(g.top);
      g.top = g.retrieve_node;
      if (options.verify_cells) {
        g.cell_verify_node = p.NewNode(
            "VerifyCells " + g.alias +
            " (critic prompt per non-NULL cell)");
        g.cell_verify_node->children.push_back(g.top);
        g.top = g.cell_verify_node;
      }
    }
    p.groups_.push_back(std::move(g));
  }

  // --- join chain -------------------------------------------------------
  // Routed once, here, against the schemas the groups materialise in
  // (the same engine helper the statement-driven path runs).
  const sql::Expr* residual = where_filter != nullptr
                                  ? where_filter->residual.get()
                                  : nullptr;
  std::vector<Schema> schemas;
  schemas.reserve(p.groups_.size());
  for (const TableGroup& g : p.groups_) schemas.push_back(GroupSchema(g));
  std::vector<engine::JoinInput> inputs;
  inputs.reserve(join_logicals.size());
  for (const PlanNode* j : join_logicals) {
    inputs.push_back({j->predicate.get(), j->join_type});
  }
  p.join_plan_ =
      engine::PlanJoins(std::move(schemas), std::move(inputs), residual);
  PhysicalNode* top = p.groups_[0].top;
  for (size_t i = 0; i < p.join_plan_.steps.size(); ++i) {
    PhysicalNode* node = p.NewNode(p.join_plan_.steps[i].Label());
    node->children.push_back(top);
    node->children.push_back(p.groups_[i + 1].top);
    p.join_nodes_.push_back(node);
    top = node;
  }

  // --- relational tail --------------------------------------------------
  if (residual != nullptr) {
    p.filter_node_ = p.NewNode("Filter " + residual->ToString());
    p.filter_node_->children.push_back(top);
    top = p.filter_node_;
  }
  if (aggregate != nullptr) {
    p.aggregate_node_ = p.NewNode(aggregate->Describe());
    p.aggregate_node_->children.push_back(top);
    top = p.aggregate_node_;
  }
  if (having_filter != nullptr) {
    p.having_node_ =
        p.NewNode("Having " + having_filter->predicate->ToString());
    p.having_node_->children.push_back(top);
    top = p.having_node_;
  }
  p.project_node_ = p.NewNode(project->Describe());
  p.project_node_->children.push_back(top);
  top = p.project_node_;
  if (sort != nullptr) {
    p.sort_node_ = p.NewNode(sort->Describe());
    p.sort_node_->children.push_back(top);
    top = p.sort_node_;
  }
  if (distinct != nullptr) {
    p.distinct_node_ = p.NewNode(distinct->Describe());
    p.distinct_node_->children.push_back(top);
    top = p.distinct_node_;
  }
  if (limit != nullptr) {
    p.limit_node_ = p.NewNode(limit->Describe());
    p.limit_node_->children.push_back(top);
    top = p.limit_node_;
    p.limit_value_ = limit->limit;
  }
  p.root_ = top;

  // The tail spec borrows the plan's expressions; the stages consume it
  // exactly like the statement-driven engine path.
  for (size_t i = 0; i < project->exprs.size(); ++i) {
    engine::SelectItemView item;
    item.expr = project->exprs[i].get();
    item.alias = i < project->columns.size() ? project->columns[i]
                                             : std::string();
    p.spec_.select.push_back(std::move(item));
  }
  if (having_filter != nullptr) {
    p.spec_.having = having_filter->predicate.get();
  }
  if (sort != nullptr) {
    for (size_t i = 0; i < sort->exprs.size(); ++i) {
      engine::OrderItemView item;
      item.expr = sort->exprs[i].get();
      item.descending =
          i < sort->descending.size() && sort->descending[i];
      p.spec_.order_by.push_back(item);
    }
  }
  if (aggregate != nullptr) {
    for (size_t g = 0; g < aggregate->group_expr_count; ++g) {
      p.spec_.group_by.push_back(aggregate->exprs[g].get());
    }
  }
  return p;
}

Schema PhysicalPlan::GroupSchema(const TableGroup& group) {
  if (!group.from_llm) return group.def->ToSchema(group.alias);
  // LLM tables materialise as the key column plus the needed columns.
  auto key_col = group.def->FindColumn(group.def->key_column);
  Schema schema;
  if (key_col.ok()) {
    schema.AddColumn(Column(key_col.value()->name, key_col.value()->type,
                            group.alias));
  } else {
    schema.AddColumn(
        Column(group.def->key_column, DataType::kString, group.alias));
  }
  for (const catalog::ColumnDef* col : group.needed_columns) {
    schema.AddColumn(Column(col->name, col->type, group.alias));
  }
  return schema;
}

Result<Relation> PhysicalPlan::MaterialiseDb(TableGroup& group) {
  GALOIS_ASSIGN_OR_RETURN(const Relation* instance,
                          catalog_->GetInstance(group.def->name));
  Relation rel(GroupSchema(group), instance->rows());
  FinishRelationalOp(group.scan_node, rel.rows().size());
  return rel;
}

Result<Relation> PhysicalPlan::MaterialiseLlm(TableGroup& group,
                                              llm::LanguageModel* model,
                                              ExecutionTrace* trace) {
  const catalog::TableDef& def = *group.def;
  GALOIS_ASSIGN_OR_RETURN(size_t key_idx, def.KeyIndex());
  const catalog::ColumnDef& key_col = def.columns[key_idx];

  // 1. Leaf access: key scan, optionally with one pushed-down filter and
  // the LIMIT-derived paging bound (both decided by the planner).
  std::optional<llm::PromptFilter> scan_filter;
  size_t first_check = 0;
  if (group.push_first_filter) {
    scan_filter = group.llm_filters[0];
    first_check = 1;
  }
  llm::CostTap scan_tap(model);
  GALOIS_ASSIGN_OR_RETURN(
      std::vector<std::string> keys,
      LlmKeyScan(&scan_tap, def, options_, scan_filter, &group.scan_stats,
                 group.key_limit));
  FinishLlmOp(group.scan_node, scan_tap, keys.size());
  group.scan_node->stats.round_trips = group.scan_stats.pages;

  // Key-range shard slice (cluster scatter-gather): keep the contiguous
  // [n*i/c, n*(i+1)/c) run of the scanned key list. Every shard of a
  // split table runs the identical scan, so the slices partition the
  // same global key order — per-key verdicts are independent, and
  // concatenating the shard relations in slice order reproduces the
  // unsharded row order exactly.
  if (group.slice_count > 1) {
    const size_t n_keys = keys.size();
    const size_t lo = n_keys * static_cast<size_t>(group.slice_index) /
                      static_cast<size_t>(group.slice_count);
    const size_t hi = n_keys * static_cast<size_t>(group.slice_index + 1) /
                      static_cast<size_t>(group.slice_count);
    keys = std::vector<std::string>(
        std::make_move_iterator(keys.begin() + static_cast<int64_t>(lo)),
        std::make_move_iterator(keys.begin() + static_cast<int64_t>(hi)));
  }

  // 2a. Optional critic pass over the scanned keys: "Is it true that the
  // name of the country New Italy is New Italy?" rejects hallucinated
  // entities before any further prompt is spent on them. One scheduler
  // phase over all scanned keys.
  if (options_.verify_cells && !keys.empty()) {
    std::vector<Value> claimed;
    claimed.reserve(keys.size());
    for (const std::string& key : keys) {
      claimed.push_back(Value::String(key));
    }
    llm::CostTap verify_tap(model);
    GALOIS_ASSIGN_OR_RETURN(
        std::vector<int> verdicts,
        LlmVerifyCellBatch(&verify_tap, def, keys, key_col, claimed,
                           options_));
    std::vector<std::string> confirmed;
    confirmed.reserve(keys.size());
    for (size_t i = 0; i < keys.size(); ++i) {
      if (verdicts[i] != 0) confirmed.push_back(std::move(keys[i]));
    }
    keys = std::move(confirmed);
    FinishLlmOp(group.key_verify_node, verify_tap, keys.size());
  } else if (group.key_verify_node != nullptr) {
    FinishRelationalOp(group.key_verify_node, keys.size());
  }

  // 2b. Selection: one filter-check phase per remaining predicate, each
  // over the keys that survived the previous predicates — the same prompt
  // set as the paper prototype's per-key short-circuiting loop, just
  // grouped so the scheduler can dispatch each phase as a batch. Batched
  // and sequential dispatch return identical keys: the model's verdicts
  // are stable per (key, filter). Filter phases chain on each other's
  // survivors, so they stay sequential even under pipeline_phases.
  std::vector<std::string> surviving = keys;
  for (size_t f = first_check; f < group.llm_filters.size(); ++f) {
    if (surviving.empty()) break;
    llm::CostTap check_tap(model);
    GALOIS_ASSIGN_OR_RETURN(
        std::vector<int> verdicts,
        LlmFilterCheckBatch(&check_tap, def, surviving,
                            group.llm_filters[f], options_));
    std::vector<std::string> kept;
    kept.reserve(surviving.size());
    for (size_t i = 0; i < surviving.size(); ++i) {
      if (verdicts[i] == 1) kept.push_back(std::move(surviving[i]));
    }
    surviving = std::move(kept);
    FinishLlmOp(group.check_nodes[f - first_check], check_tap,
                surviving.size());
  }
  if (options_.record_provenance) {
    ScanProvenance scan;
    scan.table_alias = group.alias;
    scan.pages = group.scan_stats.pages;
    scan.keys = keys.size();
    scan.filtered = keys.size() - surviving.size();
    trace->scans.push_back(std::move(scan));
  }

  // 3. Attribute completion: one chain per needed column — a scheduler
  // phase retrieving the whole column, then (verify_cells) a critic phase
  // over its non-NULL cells (Section 6 extensions). The chains are
  // independent: under pipeline_phases they overlap on the phase pool,
  // otherwise they run inline in the paper prototype's order (attr_0,
  // verify_0, attr_1, ...). Retrieval bills through one per-operator tap
  // and verification through another, so the DAG attributes their spend
  // separately.
  llm::CostTap retrieve_tap(model);
  llm::CostTap cell_verify_tap(model);
  struct Column {
    std::vector<Value> values;
    std::vector<CellProvenance> provenances;
  };
  const bool concurrent =
      options_.pipeline_phases && group.needed_columns.size() > 1;
  std::vector<TaskHandle<Result<Column>>> chains;
  chains.reserve(group.needed_columns.size());
  for (const catalog::ColumnDef* col : group.needed_columns) {
    chains.push_back(PhaseTask<Result<Column>>(
        concurrent, [&, col]() -> Result<Column> {
          Column column;
          std::vector<CellProvenance>* prov =
              options_.record_provenance ? &column.provenances : nullptr;
          GALOIS_ASSIGN_OR_RETURN(
              column.values, LlmGetAttributeBatch(&retrieve_tap, def,
                                                  surviving, *col, options_,
                                                  prov));
          if (!options_.verify_cells) return column;
          CellSelection cells = SelectNonNullCells(column.values, surviving);
          if (cells.idx.empty()) return column;
          GALOIS_ASSIGN_OR_RETURN(
              std::vector<int> verdicts,
              LlmVerifyCellBatch(&cell_verify_tap, def, cells.keys, *col,
                                 cells.values, options_));
          ApplyVerdicts(verdicts, cells, &column.values, prov);
          return column;
        }));
  }
  GALOIS_ASSIGN_OR_RETURN(std::vector<Column> columns, JoinInOrder(&chains));
  FinishLlmOp(group.retrieve_node, retrieve_tap, surviving.size());
  FinishLlmOp(group.cell_verify_node, cell_verify_tap, surviving.size());
  for (Column& column : columns) {
    for (CellProvenance& p : column.provenances) {
      p.table_alias = group.alias;
      trace->cells.push_back(std::move(p));
    }
  }
  Relation rel(GroupSchema(group));
  for (size_t r = 0; r < surviving.size(); ++r) {
    Tuple row;
    row.reserve(1 + columns.size());
    row.push_back(Value::String(surviving[r]));
    // Move the cells out of the column vectors: each value is consumed
    // exactly once, and completions can be long strings.
    for (Column& column : columns) row.push_back(std::move(column.values[r]));
    rel.AddRowUnchecked(std::move(row));
  }
  return rel;
}

void PhysicalPlan::InsertResidualNode(TableGroup& group,
                                      const MaterialisationLookupInfo& info) {
  std::ostringstream os;
  os << "ResidualFilter ";
  for (size_t i = 0; i < info.residual.size(); ++i) {
    if (i > 0) os << " AND ";
    const PredicateConjunct& c = info.residual[i];
    os << group.alias << "." << c.column << " " << c.op << " "
       << c.value.ToString();
  }
  os << " (in-memory re-check over a subsuming cache entry)";
  PhysicalNode* node = NewNode(os.str());
  // Splice above the group's subtree: every edge (and the root) that
  // pointed at group.top now points at the residual filter. The arena is
  // a deque, so earlier node addresses stay valid across NewNode.
  for (PhysicalNode& n : nodes_) {
    if (&n == node) continue;
    for (PhysicalNode*& child : n.children) {
      if (child == group.top) child = node;
    }
  }
  if (root_ == group.top) root_ = node;
  node->children.push_back(group.top);
  group.top = node;
  node->stats.executed = true;
  node->stats.rows = info.rows_after_residual;
}

std::optional<Relation> PhysicalPlan::LookupCache(
    const TableGroup& group, MaterialisationCache* cache,
    const std::string& base_key, QueryCounters* counters,
    MaterialisationLookupInfo* info) const {
  ++counters->table_cache_lookups;
  std::optional<Relation> hit =
      cache->Lookup(base_key, group.descriptor, *group.def,
                    group.needed_columns, group.alias, info);
  if (hit.has_value()) {
    ++counters->table_cache_hits;
    if (info->exact) ++counters->table_cache_exact_hits;
    if (info->predicate_subsumed) ++counters->table_cache_subsumption_hits;
    if (info->from_store) ++counters->table_cache_store_hits;
  }
  return hit;
}

Result<std::vector<Relation>> PhysicalPlan::MaterialiseAll(
    llm::LanguageModel* model, MaterialisationCache* cache,
    QueryOutput* out) {
  // Provenance runs bypass the cache: a hit cannot replay the per-cell
  // prompt/completion trace the caller asked for.
  const bool use_cache = cache != nullptr && !options_.record_provenance;

  const size_t n = groups_.size();
  std::vector<std::optional<Relation>> materialised(n);
  std::vector<std::string> base_keys(n);
  std::vector<size_t> pending;  // LLM tables not served from cache
  for (size_t i = 0; i < n; ++i) {
    TableGroup& group = groups_[i];
    if (!group.from_llm) {
      GALOIS_ASSIGN_OR_RETURN(Relation rel, MaterialiseDb(group));
      materialised[i] = std::move(rel);
      continue;
    }
    // Gathered shard overlay: the table was materialised remotely (and
    // billed there); use it verbatim. Checked before the cache so a
    // coordinator-side cache can never shadow the shard the query was
    // actually billed for.
    TableOverlay* overlay = nullptr;
    for (TableOverlay& o : overlays_) {
      if (o.alias == group.alias) {
        overlay = &o;
        break;
      }
    }
    if (overlay != nullptr) {
      const int64_t overlay_rows =
          static_cast<int64_t>(overlay->relation.rows().size());
      for (PhysicalNode* node :
           {group.scan_node, group.key_verify_node, group.retrieve_node,
            group.cell_verify_node}) {
        if (node == nullptr) continue;
        node->stats.from_remote = true;
        node->stats.rows = overlay_rows;
      }
      for (PhysicalNode* node : group.check_nodes) {
        node->stats.from_remote = true;
        node->stats.rows = overlay_rows;
      }
      materialised[i] = std::move(overlay->relation);
      continue;
    }
    if (use_cache) {
      base_keys[i] =
          MaterialisationCache::BaseKey(*group.def, options_, model->name());
      MaterialisationLookupInfo info;
      std::optional<Relation> hit =
          LookupCache(group, cache, base_keys[i], out, &info);
      if (hit.has_value()) {
        // The cached phases produced the entry's rows; on a subsumption
        // hit the residual filter then narrows them, and shows up as
        // its own operator above the group.
        const int64_t cached_rows = info.rows_before_residual;
        for (PhysicalNode* node :
             {group.scan_node, group.key_verify_node, group.retrieve_node,
              group.cell_verify_node}) {
          if (node == nullptr) continue;
          node->stats.from_cache = true;
          node->stats.rows = cached_rows;
        }
        for (PhysicalNode* node : group.check_nodes) {
          node->stats.from_cache = true;
          node->stats.rows = cached_rows;
        }
        if (info.predicate_subsumed && info.residual_conjuncts > 0) {
          InsertResidualNode(group, info);
        }
        materialised[i] = std::move(*hit);
        continue;
      }
    }
    pending.push_back(i);
  }

  // One task per remaining LLM table, joined in FROM order: concurrent
  // on the phase pool under pipeline_phases, inline table by table
  // otherwise; the first error in FROM order wins and no later table is
  // billed after it. Each task records provenance into its own trace and
  // the traces merge in FROM order, so the combined trace does not depend
  // on the dispatch mode. Tasks touch disjoint table groups (and the
  // thread-safe query tap), so the per-operator stats need no locking.
  const bool concurrent = options_.pipeline_phases && pending.size() > 1;
  std::vector<ExecutionTrace> traces(pending.size());
  std::vector<TaskHandle<Result<Relation>>> tasks;
  tasks.reserve(pending.size());
  for (size_t t = 0; t < pending.size(); ++t) {
    TableGroup* group = &groups_[pending[t]];
    ExecutionTrace* trace = &traces[t];
    tasks.push_back(PhaseTask<Result<Relation>>(
        concurrent, [this, model, group, trace] {
          return MaterialiseLlm(*group, model, trace);
        }));
  }
  GALOIS_ASSIGN_OR_RETURN(std::vector<Relation> fresh, JoinInOrder(&tasks));
  for (size_t t = 0; t < pending.size(); ++t) {
    const size_t i = pending[t];
    for (ScanProvenance& s : traces[t].scans) {
      out->trace.scans.push_back(std::move(s));
    }
    for (CellProvenance& c : traces[t].cells) {
      out->trace.cells.push_back(std::move(c));
    }
    out->scan_pages_prefetched += groups_[i].scan_stats.prefetched;
    out->scan_pages_overfetched += groups_[i].scan_stats.overfetched;
    if (use_cache) {
      cache->Insert(base_keys[i], groups_[i].descriptor,
                    groups_[i].needed_columns, fresh[t]);
    }
    materialised[i] = std::move(fresh[t]);
  }

  std::vector<Relation> rels;
  rels.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    rels.push_back(std::move(*materialised[i]));
  }
  return rels;
}

Result<QueryOutput> PhysicalPlan::Execute(llm::LanguageModel* model,
                                          MaterialisationCache* cache) {
  QueryOutput out;
  GALOIS_ASSIGN_OR_RETURN(std::vector<Relation> rels,
                          MaterialiseAll(model, cache, &out));
  GALOIS_RETURN_IF_ERROR(CheckCancel(options_.control));

  // Relational tail: the same stages, in the same order, as the
  // statement-driven engine path (engine::ExecuteOnRelations).
  engine::JoinChainRows chain_rows;
  GALOIS_ASSIGN_OR_RETURN(
      Relation working,
      engine::ExecuteJoinChain(join_plan_, std::move(rels), &chain_rows));
  for (size_t i = 0; i < join_nodes_.size(); ++i) {
    FinishRelationalOp(join_nodes_[i], chain_rows.steps[i]);
  }
  FinishRelationalOp(filter_node_, chain_rows.filtered);

  engine::ProjectionExprs proj = engine::ExpandSelect(spec_, working.schema());
  Relation source;
  bool use_agg_env = false;
  engine::AggregationPlan aplan;
  if (engine::NeedsAggregation(spec_)) {
    aplan = engine::PlanAggregation(spec_);
    GALOIS_ASSIGN_OR_RETURN(
        source,
        engine::HashAggregate(working, aplan.group_exprs, aplan.specs));
    use_agg_env = true;
    FinishRelationalOp(aggregate_node_, source.rows().size());
  } else {
    source = std::move(working);
  }

  GALOIS_ASSIGN_OR_RETURN(
      engine::ProjectedRows prows,
      engine::ProjectAndFilter(source, proj, spec_, use_agg_env,
                               aplan.agg_keys, aplan.group_exprs.size()));
  // HAVING and projection run fused (one per-row loop); both operators
  // report the fused stage's output.
  FinishRelationalOp(having_node_, prows.values.size());
  FinishRelationalOp(project_node_, prows.values.size());
  engine::SortProjected(&prows, spec_);
  FinishRelationalOp(sort_node_, prows.values.size());
  Relation rel =
      engine::FinishProjection(source.schema(), proj, std::move(prows));

  if (distinct_node_ != nullptr) {
    rel = engine::Distinct(rel);
    FinishRelationalOp(distinct_node_, rel.rows().size());
  }
  if (limit_node_ != nullptr && limit_value_ >= 0) {
    rel = engine::Limit(rel, static_cast<size_t>(limit_value_));
    FinishRelationalOp(limit_node_, rel.rows().size());
  } else {
    FinishRelationalOp(limit_node_, rel.rows().size());
  }
  out.relation = std::move(rel);
  return out;
}

std::string PhysicalPlan::Render() const {
  std::ostringstream os;
  if (root_ != nullptr) RenderRec(*root_, 0, &os);
  return os.str();
}

ShardSpec PhysicalPlan::SpecOf(const TableGroup& group) {
  ShardSpec spec;
  spec.table = group.def->name;
  spec.alias = group.alias;
  spec.columns.reserve(group.needed_columns.size());
  for (const catalog::ColumnDef* col : group.needed_columns) {
    spec.columns.push_back(col->name);
  }
  spec.descriptor = group.descriptor.Encode();
  return spec;
}

std::vector<ShardSpec> PhysicalPlan::LlmShards() const {
  std::vector<ShardSpec> shards;
  for (const TableGroup& group : groups_) {
    if (group.from_llm) shards.push_back(SpecOf(group));
  }
  return shards;
}

void PhysicalPlan::SetOverlays(std::vector<TableOverlay> overlays) {
  overlays_ = std::move(overlays);
}

Result<QueryOutput> PhysicalPlan::ExecuteShard(const ShardRequest& request,
                                               llm::LanguageModel* model,
                                               MaterialisationCache* cache) {
  TableGroup* group = nullptr;
  for (TableGroup& g : groups_) {
    if (g.alias == request.alias) {
      group = &g;
      break;
    }
  }
  if (group == nullptr || !group->from_llm) {
    return Status::InvalidArgument("shard: no LLM table aliased \"" +
                                   request.alias + "\" in this query");
  }
  // Version-skew defence: the locally compiled shard must match the
  // request byte-for-byte — same table, same needed columns, same
  // canonical predicate descriptor. A mismatch means the coordinator
  // planned against a different catalog or planner version; executing
  // anyway would return a well-formed but wrong partial relation.
  const ShardSpec local = SpecOf(*group);
  if (local.table != request.table || local.columns != request.columns ||
      local.descriptor != request.descriptor) {
    return Status::InvalidArgument(
        "shard: compiled plan for alias \"" + request.alias +
        "\" does not match the request (catalog or planner version skew)");
  }
  if (request.slice_count < 1 || request.slice_index < 0 ||
      request.slice_index >= request.slice_count) {
    return Status::InvalidArgument(
        "shard: slice " + std::to_string(request.slice_index) + "/" +
        std::to_string(request.slice_count) + " out of range");
  }
  group->slice_index = request.slice_index;
  group->slice_count = request.slice_count;

  QueryOutput out;
  // Key-range slices bypass the cache: a slice inserted under the full
  // descriptor would later be served as the whole table.
  const bool use_cache = cache != nullptr && !options_.record_provenance &&
                         request.slice_count == 1;
  std::string base_key;
  if (use_cache) {
    base_key =
        MaterialisationCache::BaseKey(*group->def, options_, model->name());
    MaterialisationLookupInfo info;
    std::optional<Relation> hit =
        LookupCache(*group, cache, base_key, &out, &info);
    if (hit.has_value()) {
      out.relation = std::move(*hit);
      return out;
    }
  }
  GALOIS_ASSIGN_OR_RETURN(Relation rel,
                          MaterialiseLlm(*group, model, &out.trace));
  out.scan_pages_prefetched = group->scan_stats.prefetched;
  out.scan_pages_overfetched = group->scan_stats.overfetched;
  if (use_cache) {
    cache->Insert(base_key, group->descriptor, group->needed_columns, rel);
  }
  out.relation = std::move(rel);
  return out;
}

}  // namespace galois::core
