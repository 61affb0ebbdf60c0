#ifndef GALOIS_PERFBENCH_STREAM_H_
#define GALOIS_PERFBENCH_STREAM_H_

// Seeded request streams. The system under test only ever receives the
// SQL texts generated here; the same seed gives the same sequence.

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common/rng.h"
#include "knowledge/workload.h"

namespace perfbench {

/// A seed not used while the benchmark was tuned; a claimed gain should
/// also hold on it.
inline constexpr uint64_t kHeldOutSeed = 9001;

/// An unbounded, lazily generated sequence of SQL texts. Elements are
/// generated strictly in sequence order under a lock, so element i is a
/// pure function of the seed however many callers read concurrently.
class Stream {
 public:
  using Generator = std::function<std::string(galois::Rng* rng)>;

  Stream(uint64_t seed, Generator generator);

  /// Distinct-SQL id of element `seq`.
  int IdAt(int64_t seq);
  /// Text of a distinct-SQL id (stable reference).
  const std::string& Text(int id) const;
  size_t DistinctCount() const;

 private:
  mutable std::mutex mu_;
  galois::Rng rng_;
  Generator generator_;
  std::deque<std::string> texts_;    // guarded by mu_; stable references
  std::map<std::string, int> ids_;   // guarded by mu_
  std::vector<int> sequence_;        // guarded by mu_
};

/// cold_llm: the 46 workload queries, each pass in a fresh seeded order.
Stream::Generator ShuffledPasses(std::vector<std::string> pool);

/// Narrower-predicate variants of the workload: single-table and join
/// filters on columns that an unfiltered query of the workload already
/// materialises (e.g. `population > X` under MAX(population)), so a
/// materialisation cache filled by the 46 queries serves each one by
/// predicate subsumption. `per_family` constants per family are drawn
/// from `rng`, stratified over a plausible numeric range or over the
/// ground-truth column's values.
std::vector<std::string> NarrowerVariants(
    const galois::knowledge::SpiderLikeWorkload& workload, int per_family,
    galois::Rng* rng);

/// served_mixed: a skewed mix of cache misses and hits.
///  * kFreshShare of requests filter with a random LIKE pattern, which
///    no cached entry can serve — they miss every cache: LLM round trips
///    plus store journal appends.
///  * kRedrawShare of requests are workload templates with an integer
///    constant, re-drawn (large thresholds scaled up to 4x either way,
///    years moved up to 40, small counts redrawn) — mostly served by
///    subsumption from entries the workload filled.
///  * The rest are Zipf(1)-ranked draws from `hot_pool` (fixed ranking
///    by position), with a seeded LIMIT appended to half of the
///    non-aggregate ones — exact or subsumption hits.
inline constexpr double kFreshShare = 0.03;
inline constexpr double kRedrawShare = 0.25;
Stream::Generator MixedStream(std::vector<std::string> templates,
                              std::vector<std::string> hot_pool,
                              uint64_t seed);

}  // namespace perfbench

#endif  // GALOIS_PERFBENCH_STREAM_H_
