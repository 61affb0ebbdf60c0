#ifndef GALOIS_CORE_OPTIONS_H_
#define GALOIS_CORE_OPTIONS_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>

#include "common/cancel.h"

namespace galois::core {

/// When to push a selection into the leaf key-scan prompt instead of
/// issuing one filter-check prompt per key (Section 6, query
/// optimization): fewer prompts, but merged prompts answer less
/// accurately.
enum class PushdownPolicy {
  kNever,   // paper default: per-key filter-check prompts
  kAlways,  // always merge the first selection into the scan prompt
  kAuto,    // cost-based: merge only for scans expected to be large
};

const char* PushdownPolicyName(PushdownPolicy p);

/// Execution options of the Galois executor. The defaults reproduce the
/// paper's prototype; the flags exist for the Section 6 ablations and
/// extensions.
struct ExecutionOptions {
  /// Selection pushdown strategy (see PushdownPolicy).
  PushdownPolicy pushdown_policy = PushdownPolicy::kNever;

  /// kAuto pushes down only when the table's expected cardinality is at
  /// least this many rows (each avoided filter prompt is worth more on
  /// large scans, while the accuracy penalty is per-prompt).
  size_t auto_pushdown_min_rows = 60;

  /// Verify every retrieved non-NULL cell with a second critic prompt and
  /// null the cells the critic rejects (Section 6, "Knowledge of the
  /// Unknown"). Costs one extra prompt per cell.
  bool verify_cells = false;

  /// Record per-cell provenance (prompt, completion, critic verdict) in
  /// QueryOutput::trace / QueryResult::trace (Section 6, "Provenance").
  bool record_provenance = false;

  /// Issue per-key prompts (filter checks, attribute retrievals, critic
  /// verifications) as batches via LanguageModel::CompleteBatch instead of
  /// one round trip each. Answers are identical; the simulated latency
  /// drops because a batch pays one shared overhead and overlapped
  /// decoding. Off by default to mirror the paper prototype's sequential
  /// behaviour. Either way, every retrieval phase is dispatched through
  /// llm::BatchScheduler, which also dedupes repeated prompt texts within
  /// a phase (repeated keys from a join are billed once).
  bool batch_prompts = false;

  /// Upper bound on prompts per CompleteBatch round trip when
  /// batch_prompts is on; 0 sends each retrieval phase as a single batch
  /// (the paper's "~110 batched prompts per query" shape). Real APIs cap
  /// request sizes, so a phase of n prompts is split into
  /// ceil(n / max_batch_size) round trips — num_batches in the CostMeter
  /// grows accordingly while answers stay identical.
  size_t max_batch_size = 0;

  /// How many batch round trips the scheduler may keep in flight at once
  /// when batch_prompts is on. Above 1, each retrieval phase fans its
  /// max_batch_size chunks out across the shared thread pool, so phases
  /// with many chunks take roughly ceil(chunks / parallel_batches) round
  /// trips of wall-clock time instead of `chunks`. Results, Add-order,
  /// dedupe and the CostMeter are identical to sequential dispatch — the
  /// model must merely tolerate concurrent CompleteBatch calls
  /// (SimulatedLlm and PromptCache do). Values < 1 are treated as 1.
  int parallel_batches = 1;

  /// Pipeline independent retrieval phases instead of running them as a
  /// ladder of blocking barriers. The executor runs one task per LLM
  /// table of a join and, within a table, one task per needed column
  /// (its attribute phase, then its critic-verify follow-up). With this
  /// on, those tasks launch concurrently on ThreadPool::SharedPhase();
  /// off, they run inline one after another when joined. Results,
  /// provenance order and the CostMeter are identical either way — only
  /// wall-clock time changes, roughly from the *sum* of the phase
  /// latencies to the *max* along the longest dependency chain. Off by
  /// default to mirror the paper prototype's strictly sequential plan.
  /// Orthogonal to batch_prompts / parallel_batches, which act *within*
  /// one phase; the combination multiplies.
  bool pipeline_phases = false;

  /// Run the cleaning step (Section 4, workflow step 3): normalise numeric
  /// formats, parse dates, coerce types. When off, raw completion strings
  /// are stored as-is — the ablation shows how much accuracy this loses.
  bool enable_cleaning = true;

  /// Enforce per-column domain constraints (years in [1000, 2100], ...),
  /// rejecting hallucinated out-of-range values as NULL.
  bool enforce_domains = true;

  /// Upper bound on "Return more results" pages per key scan (the paper's
  /// user-specified termination threshold alternative).
  int max_scan_pages = 64;

  /// Speculative key-scan paging depth: while page k's completion is
  /// being parsed, keep up to this many further page round trips in
  /// flight (0 disables — the paper prototype's strictly sequential
  /// paging). Dispatch-only: the surviving key set, the CostMeter and
  /// the pages bought are identical when the scan terminates at the
  /// max_scan_pages cap; when the model signals "no more results" early,
  /// the pages already speculated are still paid for, joined, and left
  /// in the prompt cache rather than discarded (counted as overfetched
  /// in QueryOutput). Excluded from the materialisation-cache base key,
  /// like the other dispatch knobs. Disabled for LIMIT-bounded scans,
  /// which must never buy pages past the bound.
  int prefetch_pages = 0;

  /// Execute per-key selection checks with the LLM (the paper's filter
  /// operator). When false, the attribute is retrieved instead and the
  /// predicate is evaluated by the engine on the cleaned value.
  bool llm_filter_checks = true;

  /// Per-phase model routing: maps a retrieval phase ("key-scan",
  /// "filter-check", "attribute", "verify"/"critic", "freeform") to a
  /// backend name. Consumed by whoever assembles the model stack (eval
  /// harness, shell, examples): they register backends on an
  /// llm::ModelRouter and feed this map to ConfigureRoutes, so e.g.
  /// critic verification runs on a strong model while bulk retrieval
  /// runs on a cheap one (the cascade configuration of Section 6's cost
  /// discussion). Phases not listed use the router's default backend.
  /// Empty (default) means no routing — a single model serves every
  /// phase. In the eval harness, backend names are model profile names
  /// ("flan", "chatgpt", ...).
  std::map<std::string, std::string> phase_models;

  /// Per-query wall-clock budget in milliseconds; 0 disables. Enforced
  /// cooperatively: `Session::Query` arms a CancelState with this budget
  /// at query entry, the batch scheduler refuses to start new round
  /// trips once it fires, and the executor stops between phases. Work
  /// already in flight completes (and bills).
  int64_t query_deadline_ms = 0;

  /// Runtime cancellation/deadline token for the query this options
  /// snapshot executes. Not a tuning knob: Session::Query fills it from
  /// query_deadline_ms (or the caller's token) per query; it is excluded
  /// from ToString and from the materialisation-cache fingerprint. Null
  /// means not cancellable.
  CancelToken control;

  std::string ToString() const;
};

}  // namespace galois::core

#endif  // GALOIS_CORE_OPTIONS_H_
