#include "core/options.h"

#include <sstream>

namespace galois::core {

const char* PushdownPolicyName(PushdownPolicy p) {
  switch (p) {
    case PushdownPolicy::kNever:
      return "never";
    case PushdownPolicy::kAlways:
      return "always";
    case PushdownPolicy::kAuto:
      return "auto";
  }
  return "?";
}

std::string ExecutionOptions::ToString() const {
  std::ostringstream os;
  os << "pushdown=" << PushdownPolicyName(pushdown_policy)
     << " cleaning=" << (enable_cleaning ? "on" : "off")
     << " domains=" << (enforce_domains ? "on" : "off")
     << " llm_filters=" << (llm_filter_checks ? "on" : "off")
     << " verify=" << (verify_cells ? "on" : "off")
     << " batching=" << (batch_prompts ? "on" : "off")
     << " max_batch=" << max_batch_size
     << " parallel_batches=" << parallel_batches
     << " pipeline=" << (pipeline_phases ? "on" : "off")
     << " provenance=" << (record_provenance ? "on" : "off")
     << " max_pages=" << max_scan_pages
     << " prefetch=" << prefetch_pages;
  if (!phase_models.empty()) {
    os << " routes=";
    bool first = true;
    for (const auto& [phase, model] : phase_models) {
      os << (first ? "" : ",") << phase << "->" << model;
      first = false;
    }
  }
  return os.str();
}

}  // namespace galois::core
