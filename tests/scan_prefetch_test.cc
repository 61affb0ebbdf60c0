// Speculative key-scan prefetch: identical keys/pages/meters to the
// sequential scan when termination is the page cap, bounded overfetch
// on early termination, LIMIT-bounded scans never speculate, and
// cancellation still cuts the scan off.

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <variant>
#include <vector>

#include "common/cancel.h"
#include "core/galois_executor.h"
#include "core/llm_operators.h"
#include "knowledge/workload.h"
#include "llm/prompt_cache.h"
#include "llm/simulated_llm.h"

namespace galois::core {
namespace {

const knowledge::SpiderLikeWorkload& W() {
  static const auto* w = []() {
    auto r = knowledge::SpiderLikeWorkload::Create();
    EXPECT_TRUE(r.ok());
    return new knowledge::SpiderLikeWorkload(std::move(r).value());
  }();
  return *w;
}

const catalog::TableDef& CountryDef() {
  return *W().catalog().GetTable("country").value();
}

llm::ModelProfile FullCoverage(int page_size) {
  llm::ModelProfile p = llm::ModelProfile::ChatGpt();
  p.coverage_floor = 1.0;
  p.coverage_gain = 0.0;
  p.paging_fatigue = 0.0;
  p.hallucinated_key_rate = 0.0;
  p.unknown_rate = 0.0;
  p.fact_accuracy = 1.0;
  p.numeric_fact_accuracy = 1.0;
  p.value_format_noise = 0.0;
  p.reference_style_noise = 0.0;
  p.verbosity = 0.0;
  p.filter_check_error = 0.0;
  p.pushdown_error = 0.0;
  p.page_size = page_size;
  return p;
}

TEST(ScanPrefetchTest, CapTerminationMatchesSequentialExactly) {
  // Cap termination: every issued page is wanted, so the speculative
  // scan buys the same pages as the sequential one — identical keys,
  // identical spend, zero overfetch.
  ExecutionOptions sequential;
  sequential.max_scan_pages = 3;
  ExecutionOptions prefetched = sequential;
  prefetched.prefetch_pages = 2;

  llm::SimulatedLlm seq_model(&W().kb(), FullCoverage(5), nullptr, 7);
  KeyScanStats seq_stats;
  auto seq = LlmKeyScan(&seq_model, CountryDef(), sequential,
                        /*filter=*/std::nullopt, &seq_stats);
  ASSERT_TRUE(seq.ok());

  llm::SimulatedLlm pre_model(&W().kb(), FullCoverage(5), nullptr, 7);
  KeyScanStats pre_stats;
  auto pre = LlmKeyScan(&pre_model, CountryDef(), prefetched,
                        /*filter=*/std::nullopt, &pre_stats);
  ASSERT_TRUE(pre.ok());

  EXPECT_EQ(*seq, *pre);
  EXPECT_EQ(seq_stats.pages, 3);
  EXPECT_EQ(pre_stats.pages, 3);
  EXPECT_EQ(pre_stats.prefetched, 2);
  EXPECT_EQ(pre_stats.overfetched, 0);
  EXPECT_EQ(seq_model.cost().num_prompts, pre_model.cost().num_prompts);
  EXPECT_EQ(seq_model.cost().prompt_tokens, pre_model.cost().prompt_tokens);
  EXPECT_EQ(seq_model.cost().completion_tokens,
            pre_model.cost().completion_tokens);
}

TEST(ScanPrefetchTest, EarlyTerminationJoinsAndCountsOverfetch) {
  // One page holds the whole table, page 2 says "no more": the window
  // has already bought page 3. It is joined (it billed) and counted as
  // overfetched; the key set stays identical to sequential.
  ExecutionOptions sequential;
  ExecutionOptions prefetched = sequential;
  prefetched.prefetch_pages = 2;

  llm::SimulatedLlm seq_model(&W().kb(), FullCoverage(50), nullptr, 7);
  auto seq = LlmKeyScan(&seq_model, CountryDef(), sequential);
  ASSERT_TRUE(seq.ok());

  llm::SimulatedLlm pre_model(&W().kb(), FullCoverage(50), nullptr, 7);
  KeyScanStats stats;
  auto pre = LlmKeyScan(&pre_model, CountryDef(), prefetched,
                        /*filter=*/std::nullopt, &stats);
  ASSERT_TRUE(pre.ok());

  EXPECT_EQ(*seq, *pre);
  EXPECT_GE(stats.overfetched, 1);
  EXPECT_EQ(stats.pages - stats.overfetched,
            static_cast<int>(seq_model.cost().num_prompts));
  // Every speculated round trip was paid for.
  EXPECT_EQ(static_cast<int>(pre_model.cost().num_prompts), stats.pages);
}

TEST(ScanPrefetchTest, WindowWiderThanPageCapTerminates) {
  // prefetch_pages >= max_scan_pages: the fill must stop at the cap,
  // not wait for a window that can never fill.
  ExecutionOptions options;
  options.max_scan_pages = 2;
  options.prefetch_pages = 8;
  llm::SimulatedLlm model(&W().kb(), FullCoverage(5), nullptr, 7);
  KeyScanStats stats;
  auto keys = LlmKeyScan(&model, CountryDef(), options,
                         /*filter=*/std::nullopt, &stats);
  ASSERT_TRUE(keys.ok());
  EXPECT_EQ(stats.pages, 2);
  EXPECT_EQ(model.cost().num_prompts, 2);
}

TEST(ScanPrefetchTest, LimitBoundedScanNeverSpeculates) {
  // A LIMIT-derived key bound promises no round trip past the
  // satisfying page; prefetch must be disabled, not merely trimmed.
  ExecutionOptions options;
  options.prefetch_pages = 4;
  llm::SimulatedLlm model(&W().kb(), FullCoverage(5), nullptr, 7);
  KeyScanStats stats;
  auto keys = LlmKeyScan(&model, CountryDef(), options,
                         /*filter=*/std::nullopt, &stats,
                         /*key_limit=*/7);
  ASSERT_TRUE(keys.ok());
  EXPECT_EQ(stats.prefetched, 0);
  EXPECT_EQ(stats.overfetched, 0);
  EXPECT_EQ(stats.pages, 2);  // ceil(7 / page_size 5)
  EXPECT_EQ(model.cost().num_prompts, 2);
}

TEST(ScanPrefetchTest, CancellationStopsTheScan) {
  ExecutionOptions options;
  options.prefetch_pages = 2;
  options.control = std::make_shared<CancelState>();
  options.control->RequestCancel();
  llm::SimulatedLlm model(&W().kb(), FullCoverage(5), nullptr, 7);
  auto keys = LlmKeyScan(&model, CountryDef(), options);
  ASSERT_FALSE(keys.ok());
  EXPECT_EQ(keys.status().code(), StatusCode::kCancelled);
}

/// Forwards every round trip to `inner` except the key-scan prompt for
/// page `fail_page`, which fails with a kLlmError before billing.
class PageFailingModel : public llm::LanguageModel {
 public:
  PageFailingModel(llm::LanguageModel* inner, int fail_page)
      : inner_(inner), fail_page_(fail_page) {}

  const std::string& name() const override { return inner_->name(); }
  Result<llm::Completion> Complete(const llm::Prompt& prompt) override {
    return CompleteMetered(prompt, nullptr);
  }
  Result<std::vector<llm::Completion>> CompleteBatch(
      const std::vector<llm::Prompt>& batch) override {
    return CompleteBatchMetered(batch, nullptr);
  }
  Result<llm::Completion> CompleteMetered(const llm::Prompt& prompt,
                                          llm::CostMeter* usage) override {
    const auto* scan = std::get_if<llm::KeyScanIntent>(&prompt.intent);
    if (scan != nullptr && scan->page == fail_page_) {
      return Status::LlmError("page " + std::to_string(fail_page_) +
                              " unavailable");
    }
    return inner_->CompleteMetered(prompt, usage);
  }
  Result<std::vector<llm::Completion>> CompleteBatchMetered(
      const std::vector<llm::Prompt>& batch,
      llm::CostMeter* usage) override {
    return inner_->CompleteBatchMetered(batch, usage);
  }
  llm::CostMeter cost() const override { return inner_->cost(); }
  void ResetCost() override { inner_->ResetCost(); }

 private:
  llm::LanguageModel* inner_;
  int fail_page_;
};

TEST(ScanPrefetchTest, FailedPageReturnsTheSameStatusWithAndWithoutPrefetch) {
  // Both window sizes run the same paging loop, so a page the model
  // fails surfaces as the same Status — code and message — either way.
  ExecutionOptions sequential;
  sequential.max_scan_pages = 4;
  ExecutionOptions prefetched = sequential;
  prefetched.prefetch_pages = 2;

  llm::SimulatedLlm seq_inner(&W().kb(), FullCoverage(5), nullptr, 7);
  PageFailingModel seq_model(&seq_inner, /*fail_page=*/1);
  auto seq = LlmKeyScan(&seq_model, CountryDef(), sequential);

  llm::SimulatedLlm pre_inner(&W().kb(), FullCoverage(5), nullptr, 7);
  PageFailingModel pre_model(&pre_inner, /*fail_page=*/1);
  KeyScanStats stats;
  auto pre = LlmKeyScan(&pre_model, CountryDef(), prefetched,
                        /*filter=*/std::nullopt, &stats);

  ASSERT_FALSE(seq.ok());
  ASSERT_FALSE(pre.ok());
  EXPECT_EQ(seq.status().code(), StatusCode::kLlmError);
  EXPECT_EQ(pre.status().code(), seq.status().code());
  EXPECT_EQ(pre.status().message(), seq.status().message());
  // Pages 0-2 went out at once and page 3 after page 0 was consumed;
  // the two speculated behind the failed page 1 were still joined.
  EXPECT_EQ(stats.pages, 4);
  EXPECT_EQ(stats.overfetched, 2);
}

TEST(ScanPrefetchTest, ExecutorQueryIsIdenticalWithPrefetch) {
  // End to end: the same query with and without speculation returns the
  // same relation at the same LLM spend when the scan ends at the page
  // cap, and the prefetch counters surface in QueryOutput.
  ExecutionOptions base;
  base.max_scan_pages = 3;
  ExecutionOptions spec = base;
  spec.prefetch_pages = 2;

  llm::SimulatedLlm plain_model(&W().kb(), FullCoverage(5), &W().catalog(),
                                7);
  GaloisExecutor plain(&plain_model, &W().catalog(), base);
  auto want = plain.RunSql("SELECT name, capital FROM country");
  ASSERT_TRUE(want.ok());

  llm::SimulatedLlm spec_model(&W().kb(), FullCoverage(5), &W().catalog(),
                               7);
  GaloisExecutor speculating(&spec_model, &W().catalog(), spec);
  auto got = speculating.RunSql("SELECT name, capital FROM country");
  ASSERT_TRUE(got.ok());

  EXPECT_TRUE(want->relation.SameContents(got->relation));
  EXPECT_EQ(want->cost.num_prompts, got->cost.num_prompts);
  EXPECT_EQ(want->scan_pages_prefetched, 0);
  EXPECT_EQ(got->scan_pages_prefetched, 2);
  EXPECT_EQ(got->scan_pages_overfetched, 0);
  // The explain report announces the speculative paging.
  EXPECT_NE(got->physical_plan.find("prefetched speculatively"),
            std::string::npos)
      << got->physical_plan;
}

TEST(ScanPrefetchTest, PrefetchedPagesLandInThePromptCache) {
  // Overfetched pages are not wasted: their completions settle into a
  // prompt-cache decorator, so a later scan that *does* want those
  // pages gets them for free.
  ExecutionOptions options;
  options.prefetch_pages = 3;
  llm::SimulatedLlm inner(&W().kb(), FullCoverage(50), nullptr, 7);
  llm::PromptCache cached(&inner);
  KeyScanStats stats;
  auto first = LlmKeyScan(&cached, CountryDef(), options,
                          /*filter=*/std::nullopt, &stats);
  ASSERT_TRUE(first.ok());
  ASSERT_GE(stats.overfetched, 1);
  const int64_t bought = inner.cost().num_prompts;

  // Identical rerun: every page — wanted and overfetched — is a cache
  // hit; the transport sees nothing new.
  auto second = LlmKeyScan(&cached, CountryDef(), options);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(*first, *second);
  EXPECT_EQ(inner.cost().num_prompts, bought);
}

}  // namespace
}  // namespace galois::core
