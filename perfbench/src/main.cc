// galois_perfbench — the end-to-end benchmark of the Galois engine.
//
//   galois_perfbench --workload cold_llm|warm_tail|served_mixed --seed N
//                    --seconds S --trace 0|1 [--work-dir DIR]
//
// Prints the run context, a human-readable line per metric (name, value,
// unit) and, as the last line of standard output, one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// run is measured once untraced and once traced and the metrics are the
// per-layer ones. Exits 1 when an output check fails, 2 on bad usage.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "stream.h"
#include "workloads.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

void Usage() {
  std::fprintf(stderr,
               "usage: galois_perfbench --workload cold_llm|warm_tail|"
               "served_mixed --seed N --seconds S --trace 0|1\n"
               "       [--work-dir DIR]\n");
}

bool ParseDouble(const char* text, double* out) {
  char* end = nullptr;
  *out = std::strtod(text, &end);
  return end != text && *end == '\0' && std::isfinite(*out);
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions options;
  double trace = -1.0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) {
      Usage();
      return 2;
    }
    const char* value = argv[++i];
    double number = 0.0;
    if (arg == "--workload") {
      options.workload = value;
      continue;
    }
    if (arg == "--work-dir") {
      options.work_dir = value;
      continue;
    }
    if (!ParseDouble(value, &number)) {
      Usage();
      return 2;
    }
    if (arg == "--seed" && number >= 0) {
      options.seed = static_cast<uint64_t>(number);
    } else if (arg == "--seconds" && number > 0) {
      options.seconds = number;
    } else if (arg == "--trace" && (number == 0 || number == 1)) {
      trace = number;
    } else {
      Usage();
      return 2;
    }
  }
  if (!perfbench::IsWorkload(options.workload) || trace < 0) {
    Usage();
    return 2;
  }
  options.trace = trace == 1.0;

  // Run context, printed with every result.
  const std::string build_type = PERFBENCH_BUILD_TYPE;
#ifdef NDEBUG
  const bool asserts = false;
#else
  const bool asserts = true;
#endif
  std::printf("context: workload=%s seed=%llu held_out_seed=%llu seconds=%g "
              "trace=%d\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed),
              static_cast<unsigned long long>(perfbench::kHeldOutSeed),
              options.seconds, options.trace ? 1 : 0);
  std::printf("context: nproc=%u build_type=%s asserts=%s compiler=%s\n",
              std::thread::hardware_concurrency(), build_type.c_str(),
              asserts ? "on" : "off", __VERSION__);
  if (build_type != "Release" || asserts) {
    std::printf("context: WARNING: not a Release build; timings are not "
                "comparable with Release baselines\n");
  }
  std::printf("context: time_scale=%g wall ms per simulated LLM ms; "
              "model profile=%s\n",
              perfbench::kTimeScale,
              perfbench::ModelProfileName(options.workload).c_str());
  std::printf("context: session options: %s\n",
              perfbench::SessionOptions().ToString().c_str());
  if (options.workload == "served_mixed") {
    std::printf("context: clients=%d offered_rate=%g q/s "
                "fresh_share=%g redraw_share=%g\n",
                perfbench::kServedClients, perfbench::kOfferedQps,
                perfbench::kFreshShare, perfbench::kRedrawShare);
  } else {
    std::printf("context: clients=1 (closed loop)\n");
  }
  std::fflush(stdout);

  const perfbench::RunReport report = perfbench::RunWorkload(options);
  for (const std::string& note : report.notes) {
    std::printf("%s\n", note.c_str());
  }
  for (const perfbench::Metric& m : report.metrics) {
    std::printf("metric %-30s %.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  if (report.metrics.empty()) {
    std::fprintf(stderr, "galois_perfbench: run failed before measuring\n");
    return 1;
  }
  std::string json = "{\"correct\": ";
  json += report.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(report.attempted);
  json += ", \"failed\": " + std::to_string(report.failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < report.metrics.size(); ++i) {
    const perfbench::Metric& m = report.metrics[i];
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", m.value);
    if (i > 0) json += ", ";
    json += "\"" + JsonEscape(m.name) + "\": {\"value\": " + value +
            ", \"unit\": \"" + JsonEscape(m.unit) + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return report.correct ? 0 : 1;
}
