#ifndef GALOIS_CORE_QUERY_COUNTERS_H_
#define GALOIS_CORE_QUERY_COUNTERS_H_

#include <cstdint>

namespace galois::core {

/// The per-query materialisation-cache and key-scan prefetch counters,
/// declared once and inherited (as a public base) by every layer that
/// reports them: core::QueryOutput (and through it galois::QueryResult),
/// eval::QueryOutcome, net::PartialQueryResponse and net::ServerStats.
/// Layers move them with one assignment (`counters() = other`) or
/// aggregate them with `+=`; the wire codecs and text renderings walk
/// kFields, so a counter's name, JSON key and key order exist only here.
struct QueryCounters {
  /// Materialisation-cache traffic: LLM tables looked up, and tables
  /// served without any LLM round trip. All 0 when no cache is attached.
  /// Hits split by kind: exact hits matched the (base key, predicate
  /// descriptor) pair byte-for-byte; subsumption hits were served from an
  /// entry cached under a weaker filter, with the residual conjuncts
  /// re-applied in memory (still zero LLM round trips). Store hits were
  /// served by entries the cache warm-started from the persistent store —
  /// tables this *process* never paid for (prompt-level store hits are in
  /// CostMeter::store_hits).
  int64_t table_cache_lookups = 0;
  int64_t table_cache_hits = 0;
  int64_t table_cache_exact_hits = 0;
  int64_t table_cache_subsumption_hits = 0;
  int64_t table_cache_store_hits = 0;

  /// Speculative key-scan paging (ExecutionOptions::prefetch_pages):
  /// pages whose round trip was issued before the previous page's answer
  /// had been consumed, and the subset bought past the page that
  /// terminated the scan (paid for, parked in the prompt cache). Both 0
  /// when prefetch is off.
  int64_t scan_pages_prefetched = 0;
  int64_t scan_pages_overfetched = 0;

  /// The field visitor: every counter's name (also its JSON key and its
  /// stats-line label) and member, in declaration order.
  struct Field {
    const char* name;
    int64_t QueryCounters::*member;
  };
  static constexpr Field kFields[] = {
      {"table_cache_lookups", &QueryCounters::table_cache_lookups},
      {"table_cache_hits", &QueryCounters::table_cache_hits},
      {"table_cache_exact_hits", &QueryCounters::table_cache_exact_hits},
      {"table_cache_subsumption_hits",
       &QueryCounters::table_cache_subsumption_hits},
      {"table_cache_store_hits", &QueryCounters::table_cache_store_hits},
      {"scan_pages_prefetched", &QueryCounters::scan_pages_prefetched},
      {"scan_pages_overfetched", &QueryCounters::scan_pages_overfetched},
  };

  /// This object's counters as a plain QueryCounters, for assigning the
  /// base of a derived result in one statement.
  QueryCounters& counters() { return *this; }
  const QueryCounters& counters() const { return *this; }

  QueryCounters& operator+=(const QueryCounters& other) {
    for (const Field& f : kFields) this->*f.member += other.*f.member;
    return *this;
  }

  bool operator==(const QueryCounters& other) const {
    for (const Field& f : kFields) {
      if (this->*f.member != other.*f.member) return false;
    }
    return true;
  }
};

}  // namespace galois::core

#endif  // GALOIS_CORE_QUERY_COUNTERS_H_
