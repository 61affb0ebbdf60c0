#ifndef GALOIS_PERFBENCH_STATS_H_
#define GALOIS_PERFBENCH_STATS_H_

// Measurement primitives of the end-to-end benchmark: the latency
// percentile rule, the closed- and open-loop load generators, and layer
// counters taken as deltas over a measured window.

#include <cstdint>
#include <functional>
#include <vector>

#include "api/database.h"

namespace perfbench {

/// Nearest-rank quantile (q in [0, 1]) of an ascending sample.
double Quantile(const std::vector<double>& sorted, double q);

/// The tail of a latency sample at a fixed percentile (nearest rank):
/// the percentile itself, and the mean of it and every sample above it,
/// which latency_tail_ms reports. The mean moves smoothly when the
/// number of slow requests of one kind drifts between runs, where a
/// single order statistic jumps between the latency classes it sits
/// between. The percentile never depends on the sample count, so runs
/// of different throughput compare the same statistic; a run with fewer
/// than kTailMinBeyond samples beyond it is flagged (`enough` false) and
/// the workload prints a warning.
inline constexpr int64_t kTailMinBeyond = 10;
struct TailLatency {
  double percentile = 0.0;
  double value = 0.0;  // the percentile
  double mean = 0.0;   // of the samples from the percentile up
  int64_t beyond = 0;  // samples strictly above the reported rank
  int64_t samples = 0;
  bool enough = false;  // beyond >= kTailMinBeyond
};
TailLatency Tail(const std::vector<double>& sorted, double percentile);

/// One timed request of a load generator: its sequence number in the stream and
/// its latency.
struct Timed {
  int64_t seq = 0;
  double latency_ms = 0.0;
};

/// Serves stream element `seq` on `worker` and returns NowNs() taken the
/// moment the system answered, so work the benchmark does afterwards
/// (output checks) stays out of the latency.
using ServeFn = std::function<int64_t(int worker, int64_t seq)>;

/// Closed loop: `workers` callers each send their next request only
/// after the previous one returned, for `seconds`. Latency is measured
/// from send to return; throughput is completions over the time until
/// the last one returned.
struct ClosedLoopResult {
  std::vector<Timed> timed;
  double throughput_qps = 0.0;
};
ClosedLoopResult RunClosedLoop(double seconds, int workers, int64_t first_seq,
                               const ServeFn& serve);

/// Open loop at a fixed offered rate: request i is due at
/// start + i / rate_qps whatever the system is doing; a generator thread
/// hands due requests to a queue that `workers` connections drain.
/// Latency is timed from the due time, so a stall also charges every
/// request queued behind it. The generator's own lateness in handing a
/// request over is reported separately as lag.
struct OpenLoopResult {
  std::vector<Timed> timed;
  double mean_lag_ms = 0.0;
};
OpenLoopResult RunOpenLoop(double rate_qps, double seconds, int workers,
                           int64_t first_seq, const ServeFn& serve);

/// Cumulative layer counters summed over a set of Databases (their
/// stores, materialisation caches and cluster coordinators). Benchmark
/// metrics always use the difference of two snapshots around the
/// measured window, never a cumulative value, so they do not depend on
/// what ran before (set-up, warm-up, an earlier phase).
struct LayerCounters {
  int64_t store_appends = 0;
  int64_t store_append_bytes = 0;
  int64_t store_vacuums = 0;
  int64_t cache_insertions = 0;
  int64_t cache_evictions = 0;
  int64_t cluster_queries = 0;
  int64_t cluster_queries_local = 0;
  int64_t cluster_shards = 0;
  int64_t cluster_redispatches = 0;

  LayerCounters operator-(const LayerCounters& before) const;
};
LayerCounters SnapshotCounters(const std::vector<galois::Database*>& dbs);

/// Peak resident set size of this process, in MiB.
double PeakRssMb();

}  // namespace perfbench

#endif  // GALOIS_PERFBENCH_STATS_H_
