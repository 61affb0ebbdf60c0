#ifndef GALOIS_PERFBENCH_WORKLOADS_H_
#define GALOIS_PERFBENCH_WORKLOADS_H_

// The three end-to-end workloads of the benchmark, run against the public
// API only (Database/Session, net::GaloisServer/GaloisClient, cluster
// options):
//
//  cold_llm      one in-process Session, one closed-loop client, every
//                cache off, the 46 workload queries in seeded order —
//                every query pays the LLM.
//  warm_tail     one in-process Session, one closed-loop client, both
//                caches filled by the 46 queries during set-up; the
//                stream mixes the 46 queries with seeded narrower-
//                predicate variants served by subsumption — zero LLM
//                round trips, the relational tail is the whole query.
//  served_mixed  one GALP connection to an in-process galoisd front door
//                whose Database scatters to two back galoisd nodes
//                (caches + persistent store each); a skewed seeded
//                stream of hits and fresh misses, first a closed loop
//                that saturates the connection for two thirds of the
//                window (throughput and the latency metrics), then an
//                open loop at a fixed offered rate, timed from each
//                request's due time (printed with the run and traced as
//                generator lag). The open-loop latency is not an end-to-
//                end metric: on a shared 4-vCPU host its p50 is dominated
//                by idle-CPU wake-ups and moved by +-35% between
//                identical runs.
//
// Every workload first serves its stream untimed for a short warm-up;
// set-up and the measured windows run pinned to one CPU (see OneCpu in
// workloads.cc).

#include <cstdint>
#include <string>
#include <vector>

#include "core/options.h"

namespace perfbench {

/// Wall-clock milliseconds slept per simulated LLM millisecond.
inline constexpr double kTimeScale = 0.01;
/// served_mixed open-loop rate (queries per second).
inline constexpr double kOfferedQps = 300.0;
/// served_mixed connections, like the other workloads' one client. Each
/// request already crosses four threads (client, front door, back node
/// and back), and on a shared 4-vCPU host every extra connection made
/// the closed loop measure the host's scheduler more than the system:
/// with four, steal time reached half the wall clock; with two, the
/// closed-loop p50 of identical runs still spread by half its median.
inline constexpr int kServedClients = 1;

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Directory (inside the checkout) for stores and trace files.
  std::string work_dir = ".bench_build/perfbench-run";
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunReport {
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  /// End-to-end metrics for untraced runs, per-layer metrics for traced
  /// runs.
  std::vector<Metric> metrics;
  /// Human-readable lines: run context, stream composition, checks.
  std::vector<std::string> notes;
};

bool IsWorkload(const std::string& name);

/// Session options shared by every workload: the README's "lowest
/// wall-clock latency (whole plan)" configuration.
galois::core::ExecutionOptions SessionOptions();

/// Name of the simulated model profile a workload runs on.
std::string ModelProfileName(const std::string& workload);

/// latency_tail_ms is the mean latency from this percentile up, on
/// every workload (cold_llm, the slowest, has about 1.5k samples in a
/// 30 s run, so about 15 beyond it).
inline constexpr double kTailPercentile = 99.0;

/// Runs one workload end to end. A set-up or output-check failure makes
/// the report incorrect (the caller exits non-zero).
RunReport RunWorkload(const RunOptions& options);

}  // namespace perfbench

#endif  // GALOIS_PERFBENCH_WORKLOADS_H_
