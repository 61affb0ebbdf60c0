#ifndef GALOIS_CORE_LLM_OPERATORS_H_
#define GALOIS_CORE_LLM_OPERATORS_H_

#include <optional>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "common/result.h"
#include "core/options.h"
#include "core/provenance.h"
#include "llm/batch_scheduler.h"
#include "llm/language_model.h"

namespace galois::core {

/// The physical operators that access the LLM (Section 4, Figure 3).
/// These functions are the prompt-issuing leaves of the Galois plan; the
/// relational part of the plan runs on the classic engine.
///
/// Every fan-out operator dispatches its prompts through one
/// llm::BatchScheduler per phase: batched (CompleteBatch round trips split
/// by ExecutionOptions::max_batch_size, up to
/// ExecutionOptions::parallel_batches in flight concurrently) when
/// options.batch_prompts is on, sequential Complete calls otherwise. All
/// modes issue the same deduplicated prompt set and return identical
/// results; only the round trips — and, with parallelism, the wall-clock
/// time — differ. Each scheduler carries a phase label
/// ("filter-check:population") so a failed round trip names the phase and
/// chunk in its error message.

/// The scheduler dispatch policy implied by the execution options.
llm::BatchPolicy BatchPolicyFor(const ExecutionOptions& options);

/// Paging accounting of one LlmKeyScan: every page bought (round trip
/// issued), how many of those were dispatched speculatively before the
/// previous page's answer had been consumed, and how many were bought
/// past the page that terminated the scan (speculation overshoot — those
/// completions are still joined and land in the prompt-cache layer, so
/// a later scan of the same table gets them for free).
struct KeyScanStats {
  int pages = 0;
  int prefetched = 0;
  int overfetched = 0;
};

/// Leaf data access: retrieves the set of key-attribute values of `table`
/// by iterating "Return more results" prompts until the model stops
/// producing new keys (workflow: "we iterate with the prompt until we stop
/// getting new results"). An optional `filter` is pushed into the scan
/// prompt (Section 6 optimisation). Keys are deduplicated, first-seen
/// order.
///
/// Every page is one BatchScheduler::CompleteOne round trip wrapped in a
/// TaskHandle (PhaseTask), and one loop joins the page handles strictly
/// in page order. Page prompts are independent texts (page k+1's prompt
/// does not embed page k's answer), but the *termination decision* is
/// sequential. By default the window holds one deferred page, run inline
/// at Join: one page at a time. With options.prefetch_pages > 0 the
/// window keeps up to that many further pages speculatively in flight on
/// the phase pool: the surviving keys, pages bought and CostMeter are
/// identical whenever the scan terminates at the max_scan_pages cap, and
/// when the model terminates the scan early the already-speculated pages
/// are joined (they bill, and their completions stay in any prompt-cache
/// decorator) and reported as overfetched. A failed page returns the
/// model's error as-is in both modes. `key_limit >= 0` stops paging as
/// soon as that many keys have been scanned (the plan compiler sets it
/// when a LIMIT provably bounds the scan; `key_limit == 0` buys no page):
/// the returned prefix may exceed the limit within the last page but no
/// further page round trips are issued — prefetch is disabled on bounded
/// scans to preserve exactly that guarantee.
Result<std::vector<std::string>> LlmKeyScan(
    llm::LanguageModel* model, const catalog::TableDef& table,
    const ExecutionOptions& options,
    const std::optional<llm::PromptFilter>& filter = std::nullopt,
    KeyScanStats* stats = nullptr, int64_t key_limit = -1);

/// Attribute retrieval node: fetches `column` of the entity identified by
/// `key` and converts the completion to a typed cell via the cleaning
/// layer (or stores the raw string when cleaning is disabled). When
/// `provenance` is non-null the raw prompt/completion are recorded there.
Result<Value> LlmGetAttribute(llm::LanguageModel* model,
                              const catalog::TableDef& table,
                              const std::string& key,
                              const catalog::ColumnDef& column,
                              const ExecutionOptions& options,
                              CellProvenance* provenance = nullptr);

/// Attribute-retrieval phase: fetches `column` for every key in `keys`
/// through the batch scheduler. Semantically identical to calling
/// LlmGetAttribute per key. `provenances`, when non-null, receives one
/// record per key.
Result<std::vector<Value>> LlmGetAttributeBatch(
    llm::LanguageModel* model, const catalog::TableDef& table,
    const std::vector<std::string>& keys,
    const catalog::ColumnDef& column, const ExecutionOptions& options,
    std::vector<CellProvenance>* provenances = nullptr);

/// Filter-check phase over many keys; returns one verdict (1/0/-1) per
/// key, in order.
Result<std::vector<int>> LlmFilterCheckBatch(
    llm::LanguageModel* model, const catalog::TableDef& table,
    const std::vector<std::string>& keys, const llm::PromptFilter& filter,
    const ExecutionOptions& options);

/// Critic verification (Section 6): asks a second prompt whether the
/// claimed value is true. Returns 1 (confirmed), 0 (rejected) or -1
/// (critic answered "Unknown" — treated as confirmation by callers, the
/// critic abstains).
Result<int> LlmVerifyCell(llm::LanguageModel* model,
                          const catalog::TableDef& table,
                          const std::string& key,
                          const catalog::ColumnDef& column,
                          const Value& claimed);

/// Critic-verification phase: one verdict per (keys[i], claimed[i]) pair
/// for `column`, dispatched through the batch scheduler. `keys` and
/// `claimed` must have equal length.
Result<std::vector<int>> LlmVerifyCellBatch(
    llm::LanguageModel* model, const catalog::TableDef& table,
    const std::vector<std::string>& keys,
    const catalog::ColumnDef& column, const std::vector<Value>& claimed,
    const ExecutionOptions& options);

/// Selection check: asks whether `filter` holds for `key`. Returns 1/0 for
/// yes/no and -1 when the model answers "Unknown" (callers drop unknown
/// keys, matching the closed-world behaviour of a selection).
Result<int> LlmFilterCheck(llm::LanguageModel* model,
                           const catalog::TableDef& table,
                           const std::string& key,
                           const llm::PromptFilter& filter);

}  // namespace galois::core

#endif  // GALOIS_CORE_LLM_OPERATORS_H_
