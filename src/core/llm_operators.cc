#include "core/llm_operators.h"

#include <deque>
#include <unordered_set>

#include "clean/normalize.h"
#include "common/thread_pool.h"
#include "llm/prompt_templates.h"

namespace galois::core {

llm::BatchPolicy BatchPolicyFor(const ExecutionOptions& options) {
  llm::BatchPolicy policy;
  policy.batch = options.batch_prompts;
  policy.max_batch_size = options.max_batch_size;
  policy.parallel_batches =
      options.parallel_batches < 1 ? 1 : options.parallel_batches;
  policy.control = options.control;
  return policy;
}

namespace {

/// Parses a yes/no/Unknown completion into the 1/0/-1 verdict shared by
/// the filter-check and critic operators.
int ParseVerdict(const std::string& completion) {
  if (clean::IsUnknown(completion)) return -1;
  auto b = clean::ParseBool(completion);
  if (!b.ok()) return -1;
  return b.value() ? 1 : 0;
}

/// Converts one completion into a typed cell (shared by the scalar and
/// batched attribute paths).
Result<Value> CleanAttributeCompletion(const std::string& completion,
                                       const catalog::ColumnDef& column,
                                       const ExecutionOptions& options) {
  if (!options.enable_cleaning) {
    // Ablation: store the raw completion (still mapping "Unknown" to NULL
    // so the relation stays well-formed).
    if (clean::IsUnknown(completion)) return Value::Null();
    return Value::String(completion);
  }
  clean::DomainConstraint domain =
      clean::DefaultDomainForColumn(column.name);
  return clean::NormalizeCell(completion, column.type,
                              options.enforce_domains ? &domain : nullptr);
}

/// The attribute-retrieval prompt for `column` of the entity `key`
/// (shared by the scalar and batched paths, so both issue byte-identical
/// prompts).
llm::Prompt AttributePrompt(const catalog::TableDef& table,
                            const std::string& key,
                            const catalog::ColumnDef& column) {
  llm::AttributeGetIntent intent;
  intent.concept_name = table.entity_type;
  intent.key = key;
  intent.attribute = column.name;
  intent.attribute_description = column.description;
  intent.expected_type = column.type;
  return llm::BuildAttributePrompt(intent);
}

/// The critic prompt asking whether `claimed` is `column` of `key`.
llm::Prompt VerifyPrompt(const catalog::TableDef& table,
                         const std::string& key,
                         const catalog::ColumnDef& column,
                         const Value& claimed) {
  llm::VerifyIntent intent;
  intent.concept_name = table.entity_type;
  intent.key = key;
  intent.attribute = column.name;
  intent.attribute_description = column.description;
  intent.claimed = claimed;
  return llm::BuildVerifyPrompt(intent);
}

/// The selection-check prompt asking whether `filter` holds for `key`.
llm::Prompt FilterPrompt(const catalog::TableDef& table,
                         const std::string& key,
                         const llm::PromptFilter& filter) {
  llm::FilterCheckIntent intent;
  intent.concept_name = table.entity_type;
  intent.key = key;
  intent.filter = filter;
  return llm::BuildFilterPrompt(intent);
}

std::vector<int> ParseVerdicts(
    const std::vector<llm::Completion>& completions) {
  std::vector<int> verdicts;
  verdicts.reserve(completions.size());
  for (const llm::Completion& c : completions) {
    verdicts.push_back(ParseVerdict(c.text));
  }
  return verdicts;
}

}  // namespace

namespace {

/// Builds the page-k scan prompt.
llm::Prompt BuildScanPagePrompt(const catalog::TableDef& table,
                                const std::optional<llm::PromptFilter>& filter,
                                int page) {
  llm::KeyScanIntent intent;
  intent.concept_name = table.entity_type;
  intent.key_attribute = table.key_column;
  intent.page = page;
  intent.filter = filter;
  return llm::BuildKeyScanPrompt(intent);
}

/// Folds one page's completion into the deduplicated key list. Returns
/// true when the scan should keep paging (new keys appeared and the
/// model did not signal the end of its enumeration).
bool ConsumeScanPage(const llm::Completion& completion,
                     std::vector<std::string>* keys,
                     std::unordered_set<std::string>* seen) {
  if (clean::IsNoMoreResults(completion.text)) return false;
  std::vector<std::string> page_keys = clean::SplitList(completion.text);
  size_t new_keys = 0;
  for (std::string& k : page_keys) {
    if (seen->insert(k).second) {
      keys->push_back(std::move(k));
      ++new_keys;
    }
  }
  // Termination condition: "we keep asking for more names ... until we
  // stop getting new results".
  return new_keys > 0;
}

}  // namespace

Result<std::vector<std::string>> LlmKeyScan(
    llm::LanguageModel* model, const catalog::TableDef& table,
    const ExecutionOptions& options,
    const std::optional<llm::PromptFilter>& filter, KeyScanStats* stats,
    int64_t key_limit) {
  if (stats != nullptr) *stats = KeyScanStats{};
  std::vector<std::string> keys;
  std::unordered_set<std::string> seen;

  // One paging loop: a window of page tasks, joined strictly in page
  // order, so the termination decision (and therefore the key set) never
  // depends on the window. Page prompts are independent texts, so with
  // prefetch the window keeps pages k+1..k+W in flight on the phase pool
  // while page k's answer is consumed. Prefetch never applies to
  // LIMIT-bounded scans: the bound promises that no round trip past the
  // satisfying page is ever issued. Without prefetch the window is one
  // deferred task, run inline at Join — the paper's sequential scan.
  const bool prefetch = options.prefetch_pages > 0 && key_limit < 0;
  const size_t window =
      prefetch ? static_cast<size_t>(options.prefetch_pages) + 1 : 1;
  const llm::BatchScheduler scheduler(model, BatchPolicyFor(options),
                                      "key-scan:" + table.entity_type);
  std::deque<TaskHandle<Result<llm::Completion>>> inflight;  // page order
  int next_page = 0;
  auto fill = [&]() {
    while (inflight.size() < window && next_page < options.max_scan_pages) {
      // LIMIT-bounded paging: enough keys are already scanned that the
      // downstream Limit operator is satisfiable — stop buying pages.
      if (key_limit >= 0 && static_cast<int64_t>(keys.size()) >= key_limit) {
        return;
      }
      inflight.push_back(PhaseTask<Result<llm::Completion>>(
          prefetch,
          [&scheduler, prompt = BuildScanPagePrompt(table, filter,
                                                    next_page)] {
            return scheduler.CompleteOne(prompt);
          }));
      ++next_page;
      if (stats != nullptr) {
        ++stats->pages;
        // Bought before an earlier page's answer was consumed.
        if (inflight.size() > 1) ++stats->prefetched;
      }
    }
  };
  // Every speculated round trip was started (and bills) whether or not
  // the scan still wants its answer: join the stragglers so their
  // completions settle into any prompt-cache decorator — and so no task
  // outlives the scheduler it borrows.
  auto drain = [&]() {
    if (stats != nullptr) {
      stats->overfetched += static_cast<int>(inflight.size());
    }
    for (TaskHandle<Result<llm::Completion>>& page : inflight) {
      (void)page.Join();
    }
    inflight.clear();
  };

  fill();
  while (!inflight.empty()) {
    Result<llm::Completion> page = inflight.front().Join();
    inflight.pop_front();
    if (!page.ok()) {
      drain();
      return page.status();
    }
    if (!ConsumeScanPage(page.value(), &keys, &seen)) break;
    fill();
  }
  drain();
  return keys;
}

Result<Value> LlmGetAttribute(llm::LanguageModel* model,
                              const catalog::TableDef& table,
                              const std::string& key,
                              const catalog::ColumnDef& column,
                              const ExecutionOptions& options,
                              CellProvenance* provenance) {
  llm::Prompt prompt = AttributePrompt(table, key, column);
  GALOIS_ASSIGN_OR_RETURN(llm::Completion completion,
                          model->Complete(prompt));
  if (provenance != nullptr) {
    provenance->table_alias = table.name;
    provenance->key = key;
    provenance->column = column.name;
    provenance->prompt = prompt.text;
    provenance->completion = completion.text;
  }
  GALOIS_ASSIGN_OR_RETURN(
      Value value, CleanAttributeCompletion(completion.text, column, options));
  if (provenance != nullptr) provenance->value = value;
  return value;
}

Result<std::vector<Value>> LlmGetAttributeBatch(
    llm::LanguageModel* model, const catalog::TableDef& table,
    const std::vector<std::string>& keys,
    const catalog::ColumnDef& column, const ExecutionOptions& options,
    std::vector<CellProvenance>* provenances) {
  std::vector<llm::Prompt> prompts;
  prompts.reserve(keys.size());
  for (const std::string& key : keys) {
    prompts.push_back(AttributePrompt(table, key, column));
  }
  // Only provenance reads the prompt texts; don't duplicate one long
  // string per key on ordinary runs.
  std::vector<std::string> prompt_texts;
  if (provenances != nullptr) {
    prompt_texts.reserve(prompts.size());
    for (const llm::Prompt& p : prompts) prompt_texts.push_back(p.text);
  }
  llm::BatchScheduler scheduler(model, BatchPolicyFor(options),
                                "attribute:" + column.name);
  GALOIS_ASSIGN_OR_RETURN(std::vector<llm::Completion> completions,
                          scheduler.Run(std::move(prompts)));
  std::vector<Value> values;
  values.reserve(keys.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    GALOIS_ASSIGN_OR_RETURN(
        Value v,
        CleanAttributeCompletion(completions[i].text, column, options));
    if (provenances != nullptr) {
      CellProvenance p;
      p.table_alias = table.name;
      p.key = keys[i];
      p.column = column.name;
      p.prompt = prompt_texts[i];
      p.completion = completions[i].text;
      p.value = v;
      provenances->push_back(std::move(p));
    }
    values.push_back(std::move(v));
  }
  return values;
}

Result<std::vector<int>> LlmFilterCheckBatch(
    llm::LanguageModel* model, const catalog::TableDef& table,
    const std::vector<std::string>& keys, const llm::PromptFilter& filter,
    const ExecutionOptions& options) {
  std::vector<llm::Prompt> prompts;
  prompts.reserve(keys.size());
  for (const std::string& key : keys) {
    prompts.push_back(FilterPrompt(table, key, filter));
  }
  llm::BatchScheduler scheduler(model, BatchPolicyFor(options),
                                "filter-check:" + filter.attribute);
  GALOIS_ASSIGN_OR_RETURN(std::vector<llm::Completion> completions,
                          scheduler.Run(std::move(prompts)));
  return ParseVerdicts(completions);
}

Result<std::vector<int>> LlmVerifyCellBatch(
    llm::LanguageModel* model, const catalog::TableDef& table,
    const std::vector<std::string>& keys,
    const catalog::ColumnDef& column, const std::vector<Value>& claimed,
    const ExecutionOptions& options) {
  if (keys.size() != claimed.size()) {
    return Status::InvalidArgument(
        "LlmVerifyCellBatch: keys/claimed size mismatch");
  }
  std::vector<llm::Prompt> prompts;
  prompts.reserve(keys.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    prompts.push_back(VerifyPrompt(table, keys[i], column, claimed[i]));
  }
  llm::BatchScheduler scheduler(model, BatchPolicyFor(options),
                                "verify:" + column.name);
  GALOIS_ASSIGN_OR_RETURN(std::vector<llm::Completion> completions,
                          scheduler.Run(std::move(prompts)));
  return ParseVerdicts(completions);
}

Result<int> LlmVerifyCell(llm::LanguageModel* model,
                          const catalog::TableDef& table,
                          const std::string& key,
                          const catalog::ColumnDef& column,
                          const Value& claimed) {
  GALOIS_ASSIGN_OR_RETURN(
      llm::Completion completion,
      model->Complete(VerifyPrompt(table, key, column, claimed)));
  return ParseVerdict(completion.text);
}

Result<int> LlmFilterCheck(llm::LanguageModel* model,
                           const catalog::TableDef& table,
                           const std::string& key,
                           const llm::PromptFilter& filter) {
  GALOIS_ASSIGN_OR_RETURN(llm::Completion completion,
                          model->Complete(FilterPrompt(table, key, filter)));
  return ParseVerdict(completion.text);
}

}  // namespace galois::core
