#include "latency_llm.h"

#include <chrono>
#include <thread>

namespace perfbench {

using galois::Result;
using galois::llm::Completion;
using galois::llm::CostMeter;
using galois::llm::Prompt;

ScaledLatencyLlm::ScaledLatencyLlm(galois::llm::LanguageModel* inner,
                                   double time_scale, Tracer* tracer)
    : inner_(inner), time_scale_(time_scale), tracer_(tracer) {}

Result<Completion> ScaledLatencyLlm::CompleteMetered(const Prompt& prompt,
                                                     CostMeter* usage) {
  const int64_t start_ns = NowNs();
  CostMeter delta;
  Result<Completion> out = inner_->CompleteMetered(prompt, &delta);
  FinishRoundTrip(start_ns, 1, delta);
  if (out.ok() && usage != nullptr) *usage += delta;
  return out;
}

Result<std::vector<Completion>> ScaledLatencyLlm::CompleteBatchMetered(
    const std::vector<Prompt>& prompts, CostMeter* usage) {
  const int64_t start_ns = NowNs();
  CostMeter delta;
  Result<std::vector<Completion>> out =
      inner_->CompleteBatchMetered(prompts, &delta);
  FinishRoundTrip(start_ns, prompts.size(), delta);
  if (out.ok() && usage != nullptr) *usage += delta;
  return out;
}

void ScaledLatencyLlm::FinishRoundTrip(int64_t start_ns, size_t prompts,
                                       const CostMeter& delta) {
  const int64_t wait_ns =
      static_cast<int64_t>(delta.simulated_latency_ms * time_scale_ * 1e6);
  const int64_t due_ns = start_ns + wait_ns;
  const int64_t now_ns = NowNs();
  if (due_ns > now_ns) {
    std::this_thread::sleep_for(std::chrono::nanoseconds(due_ns - now_ns));
  }
  round_trips_.fetch_add(1);
  prompts_.fetch_add(static_cast<int64_t>(prompts));
  if (tracer_->enabled()) {
    const uint64_t query = tracer_->current_query();
    tracer_->Record(Span{"llm.round_trip", start_ns, NowNs(),
                         tracer_->NextId(), query, query});
  }
}

}  // namespace perfbench
