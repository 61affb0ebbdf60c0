#include "stats.h"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <thread>

#include "cluster/cluster_coordinator.h"
#include "trace.h"

namespace perfbench {
namespace {

/// Nearest-rank index of the percentile `basis_points` / 100 in a sample
/// of `n`, in integer arithmetic so p99 of 1000 samples is exactly rank
/// 990 (index 989).
int64_t RankIndex(int64_t basis_points, int64_t n) {
  const int64_t rank = (basis_points * n + 9999) / 10000;
  return std::clamp<int64_t>(rank - 1, 0, n - 1);
}

double ElapsedMs(int64_t from_ns, int64_t to_ns) {
  return static_cast<double>(to_ns - from_ns) / 1e6;
}

// Result buffers are reserved up front for this many requests per second
// (above any workload's rate), so the harness's memory grows linearly
// with requests served instead of in capacity doublings that would show
// in peak_rss_mb.
constexpr double kReservedQps = 20000.0;

}  // namespace

double Quantile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const int64_t bp = static_cast<int64_t>(q * 10000.0 + 0.5);
  return sorted[static_cast<size_t>(
      RankIndex(bp, static_cast<int64_t>(sorted.size())))];
}

TailLatency Tail(const std::vector<double>& sorted, double percentile) {
  TailLatency out;
  out.percentile = percentile;
  const int64_t n = static_cast<int64_t>(sorted.size());
  out.samples = n;
  if (n == 0) return out;
  const int64_t idx =
      RankIndex(static_cast<int64_t>(percentile * 100.0 + 0.5), n);
  out.value = sorted[static_cast<size_t>(idx)];
  double sum = 0.0;
  for (int64_t i = idx; i < n; ++i) sum += sorted[static_cast<size_t>(i)];
  out.mean = sum / static_cast<double>(n - idx);
  out.beyond = n - 1 - idx;
  out.enough = out.beyond >= kTailMinBeyond;
  return out;
}

ClosedLoopResult RunClosedLoop(double seconds, int workers, int64_t first_seq,
                               const ServeFn& serve) {
  std::atomic<int64_t> next_seq{first_seq};
  std::vector<std::vector<Timed>> per_worker(static_cast<size_t>(workers));
  for (auto& v : per_worker) {
    v.reserve(static_cast<size_t>(seconds * kReservedQps / workers));
  }
  const int64_t start_ns = NowNs();
  const int64_t end_ns = start_ns + static_cast<int64_t>(seconds * 1e9);
  std::vector<std::thread> threads;
  for (int w = 0; w < workers; ++w) {
    threads.emplace_back([&, w] {
      while (NowNs() < end_ns) {
        const int64_t seq = next_seq.fetch_add(1);
        const int64_t start = NowNs();
        const int64_t done = serve(w, seq);
        per_worker[static_cast<size_t>(w)].push_back(
            {seq, ElapsedMs(start, done)});
      }
    });
  }
  for (std::thread& t : threads) t.join();
  ClosedLoopResult out;
  out.timed.reserve(static_cast<size_t>(seconds * kReservedQps));
  for (auto& v : per_worker) {
    out.timed.insert(out.timed.end(), v.begin(), v.end());
  }
  std::sort(out.timed.begin(), out.timed.end(),
            [](const Timed& a, const Timed& b) { return a.seq < b.seq; });
  out.throughput_qps = static_cast<double>(out.timed.size()) /
                       (static_cast<double>(NowNs() - start_ns) / 1e9);
  return out;
}

OpenLoopResult RunOpenLoop(double rate_qps, double seconds, int workers,
                           int64_t first_seq, const ServeFn& serve) {
  struct Due {
    int64_t seq;
    int64_t due_ns;
  };
  std::mutex mu;
  std::condition_variable cv;
  std::deque<Due> queue;   // guarded by mu
  bool generator_done = false;  // guarded by mu

  std::vector<std::vector<Timed>> per_worker(static_cast<size_t>(workers));
  std::vector<std::thread> threads;
  for (int w = 0; w < workers; ++w) {
    threads.emplace_back([&, w] {
      for (;;) {
        Due due{};
        {
          std::unique_lock<std::mutex> lock(mu);
          cv.wait(lock, [&] { return !queue.empty() || generator_done; });
          if (queue.empty()) return;
          due = queue.front();
          queue.pop_front();
        }
        const int64_t done = serve(w, due.seq);
        per_worker[static_cast<size_t>(w)].push_back(
            {due.seq, ElapsedMs(due.due_ns, done)});
      }
    });
  }

  OpenLoopResult out;
  const int64_t start_ns = NowNs();
  const int64_t count = static_cast<int64_t>(rate_qps * seconds);
  double lag_sum_ms = 0.0;
  for (int64_t i = 0; i < count; ++i) {
    const int64_t due_ns =
        start_ns + static_cast<int64_t>(static_cast<double>(i) * 1e9 /
                                        rate_qps);
    const int64_t now_ns = NowNs();
    if (due_ns > now_ns) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(due_ns - now_ns));
    }
    lag_sum_ms += std::max(0.0, ElapsedMs(due_ns, NowNs()));
    {
      std::lock_guard<std::mutex> lock(mu);
      queue.push_back({first_seq + i, due_ns});
    }
    cv.notify_one();
  }
  {
    std::lock_guard<std::mutex> lock(mu);
    generator_done = true;
  }
  cv.notify_all();
  for (std::thread& t : threads) t.join();

  out.mean_lag_ms = count > 0 ? lag_sum_ms / static_cast<double>(count) : 0.0;
  for (auto& v : per_worker) {
    out.timed.insert(out.timed.end(), v.begin(), v.end());
  }
  std::sort(out.timed.begin(), out.timed.end(),
            [](const Timed& a, const Timed& b) { return a.seq < b.seq; });
  return out;
}

LayerCounters LayerCounters::operator-(const LayerCounters& before) const {
  LayerCounters d = *this;
  d.store_appends -= before.store_appends;
  d.store_append_bytes -= before.store_append_bytes;
  d.store_vacuums -= before.store_vacuums;
  d.cache_insertions -= before.cache_insertions;
  d.cache_evictions -= before.cache_evictions;
  d.cluster_queries -= before.cluster_queries;
  d.cluster_queries_local -= before.cluster_queries_local;
  d.cluster_shards -= before.cluster_shards;
  d.cluster_redispatches -= before.cluster_redispatches;
  return d;
}

LayerCounters SnapshotCounters(const std::vector<galois::Database*>& dbs) {
  LayerCounters c;
  for (const galois::Database* db : dbs) {
    if (db->store() != nullptr) {
      const galois::store::StoreStats s = db->store()->stats();
      c.store_appends += s.appends;
      c.store_append_bytes += s.append_bytes;
      c.store_vacuums += s.vacuums;
    }
    if (db->materialisation_cache() != nullptr) {
      const galois::core::MaterialisationCacheStats s =
          db->materialisation_cache()->stats();
      c.cache_insertions += s.insertions;
      c.cache_evictions += s.evictions;
    }
    if (db->cluster() != nullptr) {
      const galois::cluster::ClusterStats s = db->cluster()->stats();
      c.cluster_queries += s.queries;
      c.cluster_queries_local += s.queries_local;
      c.cluster_shards += s.shards_dispatched;
      c.cluster_redispatches += s.redispatches;
    }
  }
  return c;
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss: KiB
}

}  // namespace perfbench
