// Tests for the physical-binding pass (planner::BindPhysicalAnnotations)
// and the plan-driven executor built on it:
//   - drift regression: a plan annotated with merge-into-scan renders
//     byte-for-byte the merged scan prompt the pre-plan executor ladder
//     produced (frozen literal below — do not regenerate);
//   - annotation semantics: conjunct consumption / residual folding,
//     the pushdown merge decision, retrieve reconciliation, and the
//     legality rules of the LIMIT paging bound;
//   - execution: a LIMIT-bounded key scan issues strictly fewer page
//     round trips than the unbounded scan of the same table.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/galois_executor.h"
#include "core/physical_plan.h"
#include "knowledge/workload.h"
#include "llm/language_model.h"
#include "llm/prompt_templates.h"
#include "llm/simulated_llm.h"
#include "planner/planner.h"
#include "sql/parser.h"

namespace galois {
namespace {

const knowledge::SpiderLikeWorkload& W() {
  static const auto* w = []() {
    auto r = knowledge::SpiderLikeWorkload::Create();
    EXPECT_TRUE(r.ok());
    return new knowledge::SpiderLikeWorkload(std::move(r).value());
  }();
  return *w;
}

llm::ModelProfile FullCoverage() {
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
  return p;
}

planner::PlanNodePtr Annotated(const std::string& sql,
                               const planner::BindingOptions& options) {
  auto stmt = sql::ParseSelect(sql);
  EXPECT_TRUE(stmt.ok()) << stmt.status();
  auto plan = planner::BuildLogicalPlan(stmt.value(), W().catalog());
  EXPECT_TRUE(plan.ok()) << plan.status();
  auto consumed = planner::BindPhysicalAnnotations(
      plan.value().get(), W().catalog(), options);
  EXPECT_TRUE(consumed.ok()) << consumed.status();
  return std::move(plan).value();
}

const planner::PlanNode* FindOp(const planner::PlanNode& root,
                                planner::PlanOp op) {
  if (root.op == op) return &root;
  for (const auto& c : root.children) {
    if (const planner::PlanNode* found = FindOp(*c, op)) return found;
  }
  return nullptr;
}

/// Transparent decorator recording every prompt text it forwards, so a
/// test can assert on the exact wire-level prompts a query issued.
class PromptRecorder : public llm::LanguageModel {
 public:
  explicit PromptRecorder(llm::LanguageModel* inner) : inner_(inner) {}

  const std::string& name() const override { return inner_->name(); }
  Result<llm::Completion> Complete(const llm::Prompt& prompt) override {
    prompts.push_back(prompt.text);
    return inner_->Complete(prompt);
  }
  Result<std::vector<llm::Completion>> CompleteBatch(
      const std::vector<llm::Prompt>& batch) override {
    for (const llm::Prompt& p : batch) prompts.push_back(p.text);
    return inner_->CompleteBatch(batch);
  }
  llm::CostMeter cost() const override { return inner_->cost(); }
  void ResetCost() override { inner_->ResetCost(); }

  std::vector<std::string> prompts;

 private:
  llm::LanguageModel* inner_;
};

// The page-0 scan prompt the pre-plan executor ladder issued for
//   SELECT name FROM city WHERE population > 1000000
// under PushdownPolicy::kAlways, captured verbatim before the ladder was
// retired. Frozen: if this test fails, the planner annotations (or the
// prompt template) drifted from the ladder's behaviour — fix the drift,
// do not re-capture.
const char kLadderMergedScanPrompt[] =
    "I am a highly intelligent question answering bot. If you ask me a "
    "question that is rooted in truth, I will give you the short answer. "
    "If you ask me a question that is nonsense, trickery, or has no "
    "clear answer, I will respond with \"Unknown\". If the answer is "
    "numerical, I will return the number only.\n"
    "Q: What is human life expectancy in the United States?\n"
    "A: 78.\n"
    "Q: Who was president of the United States in 1955?\n"
    "A: Dwight D. Eisenhower.\n"
    "Q: What is the capital of France?\n"
    "A: Paris.\n"
    "Q: What is a continent starting with letter O?\n"
    "A: Oceania.\n"
    "Q: Where were the 1992 Olympics held?\n"
    "A: Barcelona.\n"
    "Q: How many squigs are in a bonk?\n"
    "A: Unknown\n"
    "Q: List the names of all cities with population greater than "
    "1000000.\n"
    "A:";

TEST(MergedScanDriftTest, AnnotationsRenderTheLadderScanPrompt) {
  // Unit level: the ScanFilter annotation, routed through the same
  // PromptFilter conversion the plan compiler uses, renders the exact
  // prompt the ladder built.
  planner::BindingOptions binding;
  binding.merge_filter_into_scan = true;
  planner::PlanNodePtr plan = Annotated(
      "SELECT name FROM city WHERE population > 1000000", binding);
  const planner::PlanNode* scan = FindOp(*plan, planner::PlanOp::kScan);
  ASSERT_NE(scan, nullptr);
  ASSERT_EQ(scan->scan_filters.size(), 1u);
  EXPECT_TRUE(scan->merge_first_filter);

  const planner::ScanFilter& f = scan->scan_filters[0];
  llm::PromptFilter filter;
  filter.attribute = f.column;
  filter.attribute_description = f.column_description;
  filter.op = f.op;
  filter.value = f.value;

  auto def = W().catalog().GetTable("city");
  ASSERT_TRUE(def.ok());
  llm::KeyScanIntent intent;
  intent.concept_name = def.value()->entity_type;
  intent.key_attribute = def.value()->key_column;
  intent.page = 0;
  intent.filter = filter;
  EXPECT_EQ(llm::BuildKeyScanPrompt(intent).text, kLadderMergedScanPrompt);
}

TEST(MergedScanDriftTest, ExecutorIssuesTheLadderScanPrompt) {
  // End to end: the first wire-level prompt of the plan-driven executor
  // is byte-identical to the ladder's merged scan prompt.
  llm::SimulatedLlm inner(&W().kb(), FullCoverage(), &W().catalog(), 7);
  PromptRecorder model(&inner);
  core::ExecutionOptions options;
  options.pushdown_policy = core::PushdownPolicy::kAlways;
  core::GaloisExecutor executor(&model, &W().catalog(), options);
  auto out =
      executor.RunSql("SELECT name FROM city WHERE population > 1000000");
  ASSERT_TRUE(out.ok()) << out.status();
  ASSERT_FALSE(model.prompts.empty());
  EXPECT_EQ(model.prompts[0], kLadderMergedScanPrompt);
}

TEST(BindingTest, SimpleConjunctsConsumedInOrderResidualNull) {
  planner::BindingOptions binding;  // llm_filter_checks on by default
  planner::PlanNodePtr plan = Annotated(
      "SELECT name FROM city "
      "WHERE population > 1000000 AND country = 'Japan'",
      binding);
  const planner::PlanNode* scan = FindOp(*plan, planner::PlanOp::kScan);
  ASSERT_NE(scan, nullptr);
  ASSERT_EQ(scan->scan_filters.size(), 2u);
  EXPECT_EQ(scan->scan_filters[0].column, "population");
  EXPECT_EQ(scan->scan_filters[1].column, "country");
  const planner::PlanNode* filter =
      FindOp(*plan, planner::PlanOp::kFilter);
  ASSERT_NE(filter, nullptr);
  EXPECT_TRUE(filter->annotated);
  EXPECT_EQ(filter->residual, nullptr);  // everything consumed
}

TEST(BindingTest, NonSimpleConjunctStaysInResidual) {
  planner::BindingOptions binding;
  planner::PlanNodePtr plan = Annotated(
      "SELECT name FROM city "
      "WHERE population > 1000000 AND elevation < population",
      binding);
  const planner::PlanNode* scan = FindOp(*plan, planner::PlanOp::kScan);
  ASSERT_NE(scan, nullptr);
  ASSERT_EQ(scan->scan_filters.size(), 1u);  // only the literal compare
  EXPECT_EQ(scan->scan_filters[0].column, "population");
  const planner::PlanNode* filter =
      FindOp(*plan, planner::PlanOp::kFilter);
  ASSERT_NE(filter, nullptr);
  EXPECT_NE(filter->residual, nullptr);  // col-vs-col runs on the engine
}

TEST(BindingTest, FilterChecksOffConsumesNothing) {
  planner::BindingOptions binding;
  binding.llm_filter_checks = false;
  planner::PlanNodePtr plan = Annotated(
      "SELECT name FROM city WHERE population > 1000000", binding);
  const planner::PlanNode* scan = FindOp(*plan, planner::PlanOp::kScan);
  ASSERT_NE(scan, nullptr);
  EXPECT_TRUE(scan->scan_filters.empty());
  const planner::PlanNode* filter =
      FindOp(*plan, planner::PlanOp::kFilter);
  ASSERT_NE(filter, nullptr);
  EXPECT_NE(filter->residual, nullptr);
}

TEST(BindingTest, MergeDecisionFollowsPolicy) {
  const std::string sql =
      "SELECT name FROM city WHERE population > 1000000";
  {
    planner::BindingOptions always;
    always.merge_filter_into_scan = true;
    planner::PlanNodePtr plan = Annotated(sql, always);
    EXPECT_TRUE(FindOp(*plan, planner::PlanOp::kScan)->merge_first_filter);
  }
  {
    planner::BindingOptions never;
    planner::PlanNodePtr plan = Annotated(sql, never);
    EXPECT_FALSE(
        FindOp(*plan, planner::PlanOp::kScan)->merge_first_filter);
  }
  {
    // Auto: merge iff the catalog expects the table to be large enough.
    planner::BindingOptions auto_small;
    auto_small.merge_filter_auto = true;
    auto_small.auto_pushdown_min_rows = 1;
    planner::PlanNodePtr plan = Annotated(sql, auto_small);
    EXPECT_TRUE(FindOp(*plan, planner::PlanOp::kScan)->merge_first_filter);
  }
  {
    planner::BindingOptions auto_large;
    auto_large.merge_filter_auto = true;
    auto_large.auto_pushdown_min_rows = 1000000;
    planner::PlanNodePtr plan = Annotated(sql, auto_large);
    EXPECT_FALSE(
        FindOp(*plan, planner::PlanOp::kScan)->merge_first_filter);
  }
}

TEST(BindingTest, RetrieveReconciledWithConsumedFilterColumns) {
  // `country` is consumed as a scan filter and not projected, so the
  // retrieve node must not fetch it; `population` is projected and must
  // be fetched even though it is also a filter column.
  planner::BindingOptions binding;
  planner::PlanNodePtr plan = Annotated(
      "SELECT name, population FROM city WHERE country = 'Japan'",
      binding);
  const planner::PlanNode* retrieve =
      FindOp(*plan, planner::PlanOp::kRetrieve);
  ASSERT_NE(retrieve, nullptr);
  EXPECT_EQ(retrieve->columns,
            std::vector<std::string>{"population"});
}

TEST(BindingTest, LimitBoundLegality) {
  planner::BindingOptions binding;
  auto key_limit = [&](const std::string& sql,
                       const planner::BindingOptions& options) {
    planner::PlanNodePtr plan = Annotated(sql, options);
    return FindOp(*plan, planner::PlanOp::kScan)->scan_key_limit;
  };
  // The legal shape: Limit -> Project -> [Retrieve] -> Scan.
  EXPECT_EQ(key_limit("SELECT name FROM city LIMIT 5", binding), 5);
  EXPECT_EQ(key_limit("SELECT name, population FROM city LIMIT 5",
                      binding),
            5);
  // A WHERE may drop rows: the first N keys are not the first N rows.
  EXPECT_EQ(key_limit(
                "SELECT name FROM city WHERE population > 1000000 "
                "LIMIT 5",
                binding),
            -1);
  // Sort / distinct / aggregate reorder or collapse rows.
  EXPECT_EQ(key_limit("SELECT name FROM city ORDER BY name LIMIT 5",
                      binding),
            -1);
  EXPECT_EQ(key_limit("SELECT DISTINCT country FROM city LIMIT 5",
                      binding),
            -1);
  EXPECT_EQ(key_limit("SELECT COUNT(*) FROM city LIMIT 5", binding), -1);
  // The critic pass may reject scanned keys (verify_cells).
  planner::BindingOptions critic = binding;
  critic.scan_rows_may_drop = true;
  EXPECT_EQ(key_limit("SELECT name FROM city LIMIT 5", critic), -1);
}

TEST(LimitBoundedScanTest, LimitBuysStrictlyFewerPages) {
  llm::ModelProfile profile = FullCoverage();
  profile.page_size = 5;  // many pages for an unbounded city scan
  core::ExecutionOptions options;
  options.verify_cells = false;  // keeps the bound legal

  llm::SimulatedLlm unbounded_model(&W().kb(), profile, &W().catalog(),
                                    7);
  core::GaloisExecutor unbounded(&unbounded_model, &W().catalog(),
                                 options);
  auto all = unbounded.RunSql("SELECT name FROM city");
  ASSERT_TRUE(all.ok()) << all.status();

  llm::SimulatedLlm limited_model(&W().kb(), profile, &W().catalog(), 7);
  core::GaloisExecutor limited(&limited_model, &W().catalog(), options);
  auto five = limited.RunSql("SELECT name FROM city LIMIT 5");
  ASSERT_TRUE(five.ok()) << five.status();

  EXPECT_EQ(five->relation.NumRows(), 5u);
  EXPECT_GT(all->relation.NumRows(), 5u);
  // Key-only scans issue exactly one prompt per page, so the cost meter
  // counts pages directly.
  EXPECT_LT(five->cost.num_prompts, all->cost.num_prompts);
  EXPECT_EQ(five->cost.num_prompts, 1);  // 5 keys fit in one 5-key page
}

}  // namespace
}  // namespace galois
