#ifndef GALOIS_PERFBENCH_TRACE_H_
#define GALOIS_PERFBENCH_TRACE_H_

// Span recorder of the end-to-end benchmark. Spans are recorded from the
// benchmark's own code around each call into a layer of the system (the
// client call, the LLM round trip, the parser/planner/engine probes); the
// system itself is not instrumented. Spans live in memory and are written
// out once, when the run ends.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Nanoseconds since the tracer's epoch (first use in the process).
int64_t NowNs();

struct Span {
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint64_t id = 0;
  uint64_t parent = 0;  // 0: no known parent
  uint64_t query = 0;   // 0: not attributable to one query
};

/// Half-open [start, end) nanosecond interval.
using Interval = std::pair<int64_t, int64_t>;

/// `intervals` sorted and merged into disjoint intervals.
std::vector<Interval> Merge(std::vector<Interval> intervals);

/// Total length covered by `intervals` (overlaps counted once).
int64_t UnionLength(std::vector<Interval> intervals);

/// Length of the part of `window` that `intervals` cover.
int64_t CoveredLength(const Interval& window,
                      const std::vector<Interval>& intervals);

/// Thread-safe, in-memory span recorder. Disabled tracers record
/// nothing; NextId() and the current-query slot work either way so the
/// instrumented code has one path.
class Tracer {
 public:
  void set_enabled(bool on) { enabled_.store(on); }
  bool enabled() const { return enabled_.load(); }

  uint64_t NextId() { return next_id_.fetch_add(1) + 1; }

  /// The query span a single closed-loop client currently has in
  /// flight; 0 when none or when several clients share the model stack
  /// (then round trips cannot be attributed from outside the system).
  void set_current_query(uint64_t id) { current_query_.store(id); }
  uint64_t current_query() const { return current_query_.load(); }

  void Record(Span span);

  /// Snapshot of every recorded span.
  std::vector<Span> spans() const;
  void Clear();

  /// Writes one JSON object per span; false on I/O failure.
  bool WriteJsonLines(const std::string& path) const;

 private:
  std::atomic<bool> enabled_{false};
  std::atomic<uint64_t> next_id_{0};
  std::atomic<uint64_t> current_query_{0};
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_
};

/// Per-name totals: span count and self time (duration minus the part
/// covered by the span's recorded children).
struct LayerTime {
  int64_t count = 0;
  double self_ms = 0.0;
};

std::vector<std::pair<std::string, LayerTime>> SelfTimeByName(
    const std::vector<Span>& spans);

}  // namespace perfbench

#endif  // GALOIS_PERFBENCH_TRACE_H_
