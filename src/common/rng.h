#ifndef GALOIS_COMMON_RNG_H_
#define GALOIS_COMMON_RNG_H_

#include <cstdint>
#include <string_view>
#include <vector>

namespace galois {

/// Deterministic pseudo-random number generator (SplitMix64 core).
///
/// Every stochastic component in the project (simulated LLM noise, workload
/// generation) consumes an explicit Rng so that runs are reproducible given
/// a seed. We do not use std::mt19937 so the stream is stable across
/// standard-library implementations.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed ^ 0x9E3779B97F4A7C15ULL) {}

  /// Next raw 64-bit value.
  uint64_t Next();

  /// Uniform double in [0, 1).
  double NextDouble();

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  int64_t NextInt(int64_t lo, int64_t hi);

  /// Bernoulli draw with probability `p` of true.
  bool NextBool(double p);

  /// Fisher-Yates shuffle.
  template <typename T>
  void Shuffle(std::vector<T>* v) {
    if (v->empty()) return;
    for (size_t i = v->size() - 1; i > 0; --i) {
      size_t j = static_cast<size_t>(NextInt(0, static_cast<int64_t>(i)));
      std::swap((*v)[i], (*v)[j]);
    }
  }

  /// Stable 64-bit FNV-1a hash of a string (used for per-key noise that
  /// does not depend on evaluation order).
  static uint64_t HashString(std::string_view s);

 private:
  uint64_t state_;
};

}  // namespace galois

#endif  // GALOIS_COMMON_RNG_H_
