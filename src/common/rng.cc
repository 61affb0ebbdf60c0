#include "common/rng.h"

namespace galois {

uint64_t Rng::Next() {
  // SplitMix64 step.
  state_ += 0x9E3779B97F4A7C15ULL;
  uint64_t z = state_;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

double Rng::NextDouble() {
  // 53 random bits into [0,1).
  return static_cast<double>(Next() >> 11) * (1.0 / 9007199254740992.0);
}

int64_t Rng::NextInt(int64_t lo, int64_t hi) {
  if (lo >= hi) return lo;
  uint64_t range = static_cast<uint64_t>(hi - lo) + 1;
  return lo + static_cast<int64_t>(Next() % range);
}

bool Rng::NextBool(double p) { return NextDouble() < p; }

uint64_t Rng::HashString(std::string_view s) {
  uint64_t h = 0xCBF29CE484222325ULL;
  for (char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001B3ULL;
  }
  return h;
}

}  // namespace galois
