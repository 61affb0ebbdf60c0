#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <unordered_map>

namespace perfbench {

int64_t NowNs() {
  static const Clock::time_point epoch = Clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              epoch)
      .count();
}

std::vector<Interval> Merge(std::vector<Interval> intervals) {
  std::sort(intervals.begin(), intervals.end());
  std::vector<Interval> out;
  for (const Interval& iv : intervals) {
    if (iv.second <= iv.first) continue;
    if (out.empty() || iv.first > out.back().second) {
      out.push_back(iv);
    } else {
      out.back().second = std::max(out.back().second, iv.second);
    }
  }
  return out;
}

int64_t UnionLength(std::vector<Interval> intervals) {
  int64_t total = 0;
  for (const Interval& iv : Merge(std::move(intervals))) {
    total += iv.second - iv.first;
  }
  return total;
}

int64_t CoveredLength(const Interval& window,
                      const std::vector<Interval>& intervals) {
  std::vector<Interval> clipped;
  for (const Interval& iv : intervals) {
    const int64_t lo = std::max(iv.first, window.first);
    const int64_t hi = std::min(iv.second, window.second);
    if (hi > lo) clipped.emplace_back(lo, hi);
  }
  return UnionLength(std::move(clipped));
}

void Tracer::Record(Span span) {
  if (!enabled()) return;
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(span));
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

void Tracer::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.clear();
}

bool Tracer::WriteJsonLines(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const Span& s : spans()) {
    std::fprintf(f,
                 "{\"name\":\"%s\",\"start_ns\":%lld,\"end_ns\":%lld,"
                 "\"id\":%llu,\"parent\":%llu,\"query\":%llu}\n",
                 s.name.c_str(), static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns),
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.query));
  }
  return std::fclose(f) == 0;
}

std::vector<std::pair<std::string, LayerTime>> SelfTimeByName(
    const std::vector<Span>& spans) {
  std::unordered_map<uint64_t, std::vector<Interval>> children;
  for (const Span& s : spans) {
    if (s.parent != 0) children[s.parent].emplace_back(s.start_ns, s.end_ns);
  }
  std::map<std::string, LayerTime> by_name;
  for (const Span& s : spans) {
    int64_t self = s.end_ns - s.start_ns;
    auto it = children.find(s.id);
    if (it != children.end()) {
      self -= CoveredLength({s.start_ns, s.end_ns}, it->second);
    }
    LayerTime& layer = by_name[s.name];
    ++layer.count;
    layer.self_ms += static_cast<double>(self) / 1e6;
  }
  return {by_name.begin(), by_name.end()};
}

}  // namespace perfbench
