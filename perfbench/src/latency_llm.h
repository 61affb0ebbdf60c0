#ifndef GALOIS_PERFBENCH_LATENCY_LLM_H_
#define GALOIS_PERFBENCH_LATENCY_LLM_H_

// The benchmark's latency model at the LLM boundary. A ScaledLatencyLlm
// wraps the transport (a SimulatedLlm) and is registered with the
// Database as an external backend, so the Database's prompt cache sits
// above it and only real round trips reach it. Each Complete /
// CompleteBatch call sleeps for the call's own simulated latency (the
// simulator bills base + the max decode over the batch, the paper's
// batching model) times one fixed time-scale factor, and passes
// completions and usage through unchanged.

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "llm/language_model.h"
#include "trace.h"

namespace perfbench {

/// Round trips that reached the transport, as counted by the decorator.
struct RoundTripCounts {
  int64_t round_trips = 0;
  int64_t prompts = 0;
};

class ScaledLatencyLlm : public galois::llm::LanguageModel {
 public:
  /// `inner` and `tracer` must outlive the decorator. A round trip takes
  /// max(inner call, simulated latency x time_scale) of wall time.
  ScaledLatencyLlm(galois::llm::LanguageModel* inner, double time_scale,
                   Tracer* tracer);

  const std::string& name() const override { return inner_->name(); }

  galois::Result<galois::llm::Completion> Complete(
      const galois::llm::Prompt& prompt) override {
    return CompleteMetered(prompt, nullptr);
  }
  galois::Result<std::vector<galois::llm::Completion>> CompleteBatch(
      const std::vector<galois::llm::Prompt>& prompts) override {
    return CompleteBatchMetered(prompts, nullptr);
  }
  galois::Result<galois::llm::Completion> CompleteMetered(
      const galois::llm::Prompt& prompt,
      galois::llm::CostMeter* usage) override;
  galois::Result<std::vector<galois::llm::Completion>> CompleteBatchMetered(
      const std::vector<galois::llm::Prompt>& prompts,
      galois::llm::CostMeter* usage) override;

  galois::llm::CostMeter cost() const override { return inner_->cost(); }
  void ResetCost() override { inner_->ResetCost(); }

  RoundTripCounts counts() const {
    return {round_trips_.load(), prompts_.load()};
  }

 private:
  /// Waits out the scaled latency of a call that started at `start_ns`
  /// and billed `delta`, counts it and records its span.
  void FinishRoundTrip(int64_t start_ns, size_t prompts,
                       const galois::llm::CostMeter& delta);

  galois::llm::LanguageModel* inner_;
  const double time_scale_;
  Tracer* tracer_;
  std::atomic<int64_t> round_trips_{0};
  std::atomic<int64_t> prompts_{0};
};

}  // namespace perfbench

#endif  // GALOIS_PERFBENCH_LATENCY_LLM_H_
