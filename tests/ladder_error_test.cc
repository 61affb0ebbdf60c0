// Error path of the materialisation ladder: when one phase fails, both
// dispatch modes (ExecutionOptions::pipeline_phases off and on) must
// report the same Status — the first error in the paper prototype's
// order (table by table in FROM order; per table attr_0, verify_0,
// attr_1, ...) — and the sequential mode must bill no prompt after the
// failing phase: no later column, no later table.
//
// The sequential prompt counts below are frozen: they pin that a failure
// stops the spend exactly where the paper prototype's ladder stops it.

#include <gtest/gtest.h>

#include <functional>
#include <mutex>
#include <set>
#include <string>
#include <variant>
#include <vector>

#include "core/galois_executor.h"
#include "knowledge/workload.h"
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

/// Forwards every round trip to `inner` unless one of its prompts
/// matches `fails`, in which case the whole round trip fails with a
/// kLlmError before reaching (and billing) the inner model. Records the
/// concept names of the prompts it forwarded.
class FailingModel : public llm::LanguageModel {
 public:
  FailingModel(llm::LanguageModel* inner,
               std::function<bool(const llm::Prompt&)> fails)
      : inner_(inner), fails_(std::move(fails)) {}

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
    GALOIS_RETURN_IF_ERROR(Admit({prompt}));
    return inner_->CompleteMetered(prompt, usage);
  }
  Result<std::vector<llm::Completion>> CompleteBatchMetered(
      const std::vector<llm::Prompt>& batch,
      llm::CostMeter* usage) override {
    GALOIS_RETURN_IF_ERROR(Admit(batch));
    return inner_->CompleteBatchMetered(batch, usage);
  }
  llm::CostMeter cost() const override { return inner_->cost(); }
  void ResetCost() override { inner_->ResetCost(); }

  std::set<std::string> concepts() const {
    std::lock_guard<std::mutex> lock(mu_);
    return concepts_;
  }

 private:
  Status Admit(const std::vector<llm::Prompt>& batch) {
    for (const llm::Prompt& p : batch) {
      if (fails_(p)) return Status::LlmError("injected failure");
    }
    std::lock_guard<std::mutex> lock(mu_);
    for (const llm::Prompt& p : batch) {
      std::visit([this](const auto& intent) { Record(intent); }, p.intent);
    }
    return Status::OK();
  }
  void Record(const llm::FreeformIntent&) {}
  template <typename Intent>
  void Record(const Intent& intent) {
    concepts_.insert(intent.concept_name);
  }

  llm::LanguageModel* inner_;
  std::function<bool(const llm::Prompt&)> fails_;
  mutable std::mutex mu_;
  std::set<std::string> concepts_;
};

std::function<bool(const llm::Prompt&)> FailAttribute(
    const std::string& concept_name, const std::string& attribute) {
  return [=](const llm::Prompt& p) {
    const auto* a = std::get_if<llm::AttributeGetIntent>(&p.intent);
    return a != nullptr && a->concept_name == concept_name &&
           a->attribute == attribute;
  };
}

std::function<bool(const llm::Prompt&)> FailVerify(
    const std::string& concept_name, const std::string& attribute) {
  return [=](const llm::Prompt& p) {
    const auto* v = std::get_if<llm::VerifyIntent>(&p.intent);
    return v != nullptr && v->concept_name == concept_name &&
           v->attribute == attribute;
  };
}

struct FailedRun {
  Status status;
  int64_t num_prompts = 0;  // billed by the inner model
  std::set<std::string> concepts;
};

FailedRun RunFailing(const std::string& sql, bool pipelined,
                     std::function<bool(const llm::Prompt&)> fails) {
  llm::SimulatedLlm inner(&W().kb(), llm::ModelProfile::ChatGpt(),
                          &W().catalog(), 7);
  FailingModel model(&inner, std::move(fails));
  ExecutionOptions opts;
  opts.batch_prompts = true;
  opts.max_batch_size = 4;
  opts.verify_cells = true;
  opts.pipeline_phases = pipelined;
  GaloisExecutor executor(&model, &W().catalog(), opts);
  auto out = executor.RunSql(sql);
  FailedRun run;
  run.status = out.ok() ? Status::OK() : out.status();
  run.num_prompts = inner.cost().num_prompts;
  run.concepts = model.concepts();
  return run;
}

void ExpectSameFailure(const std::string& sql,
                       const std::function<bool(const llm::Prompt&)>& fails,
                       int64_t sequential_prompts) {
  FailedRun sequential = RunFailing(sql, false, fails);
  FailedRun pipelined = RunFailing(sql, true, fails);
  ASSERT_FALSE(sequential.status.ok()) << sql;
  EXPECT_EQ(sequential.status.code(), StatusCode::kLlmError) << sql;
  EXPECT_EQ(sequential.status, pipelined.status)
      << sql << "\n  sequential: " << sequential.status.ToString()
      << "\n  pipelined:  " << pipelined.status.ToString();
  EXPECT_EQ(sequential.num_prompts, sequential_prompts) << sql;
  // Pipelining may bill phases already in flight, never fewer than the
  // sequential ladder had spent before the failure.
  EXPECT_GE(pipelined.num_prompts, sequential.num_prompts) << sql;
}

// Retrieved columns, in definition order: capital, population, gdp.
const char kCountrySql[] =
    "SELECT name, capital, population, gdp FROM country "
    "WHERE continent = 'Europe'";

TEST(LadderErrorTest, FailedAttributePhaseStopsTheColumnLadder) {
  // population's retrieval fails: capital and its critic billed, nothing
  // of population or gdp.
  const auto fails = FailAttribute("country", "population");
  ExpectSameFailure(kCountrySql, fails, /*sequential_prompts=*/131);
}

TEST(LadderErrorTest, FailedCriticPhaseStopsTheColumnLadder) {
  // capital's critic fails: capital's retrieval billed, no later column.
  ExpectSameFailure(kCountrySql, FailVerify("country", "capital"),
                    /*sequential_prompts=*/111);
}

TEST(LadderErrorTest, FailedFirstTableBillsNoLaterTable) {
  const std::string sql =
      "SELECT ci.name, ci.mayor, co.capital FROM city ci, country co "
      "WHERE ci.country = co.name";
  const auto fails = FailAttribute("city", "mayor");
  ExpectSameFailure(sql, fails, /*sequential_prompts=*/184);
  EXPECT_EQ(RunFailing(sql, false, fails).concepts,
            std::set<std::string>{"city"});
}

}  // namespace
}  // namespace galois::core
