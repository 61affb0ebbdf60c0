#include "stream.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <set>

namespace perfbench {
namespace {

using galois::Rng;

/// `v` rounded to `digits` significant digits.
int64_t RoundSignificant(double v, int digits) {
  if (v < 1.0) return 0;
  const double scale =
      std::pow(10.0, std::floor(std::log10(v)) - (digits - 1));
  return static_cast<int64_t>(std::llround(v / scale) * scale);
}

/// A constant drawn for one placeholder of a variant family.
struct Draw {
  // Numeric threshold in [lo, hi] (2 significant digits), or, when
  // `table` is set, a ground-truth value of table.column.
  double lo = 0;
  double hi = 0;
  const char* table = nullptr;
  const char* column = nullptr;
};

struct Family {
  const char* sql;  // one "{}" placeholder
  Draw draw;
};

// Each family narrows a column that an *unfiltered* workload query
// materialises (noted per line), which is what makes it a subsumption
// hit after the 46 queries ran once.
const Family kFamilies[] = {
    // MAX(population) FROM country
    {"SELECT name FROM country WHERE population > {}", {1e6, 3e8}},
    {"SELECT name, population FROM country WHERE population > {}",
     {1e6, 3e8}},
    {"SELECT COUNT(*) FROM country WHERE population > {}", {1e6, 3e8}},
    // AVG(capacity) FROM stadium
    {"SELECT name FROM stadium WHERE capacity > {}", {20000, 100000}},
    // MIN(foundedYear) FROM airline
    {"SELECT name FROM airline WHERE foundedYear < {}", {1920, 2000}},
    // MAX(speakers) FROM language
    {"SELECT name FROM language WHERE speakers > {}", {1e6, 1e9}},
    // AVG(elevation) FROM airport
    {"SELECT code FROM airport WHERE elevation > {}", {10, 1500}},
    // continent, COUNT(*) FROM country GROUP BY continent
    {"SELECT name FROM country WHERE continent = {}",
     {0, 0, "country", "continent"}},
    {"SELECT ci.name, co.continent FROM city ci, country co "
     "WHERE ci.country = co.name AND co.continent = {}",
     {0, 0, "country", "continent"}},
    // genre, COUNT(*) FROM singer GROUP BY genre
    {"SELECT name FROM singer WHERE genre = {}", {0, 0, "singer", "genre"}},
    // year, COUNT(*) FROM concert GROUP BY year
    {"SELECT name FROM concert WHERE year = {}", {0, 0, "concert", "year"}},
    {"SELECT s.name, c.name FROM singer s, concert c "
     "WHERE c.singer = s.name AND c.year = {}",
     {0, 0, "concert", "year"}},
    // COUNT(DISTINCT country) FROM city
    {"SELECT name FROM city WHERE country = {}", {0, 0, "city", "country"}},
};

/// LIKE filters with a random contains-pattern. The cache may re-check
/// only plain comparisons on cached cells, so a LIKE conjunct is served
/// only by an entry with the identical pattern, and with 26^3 patterns
/// per column a draw almost never repeats: the request misses every
/// cache (filter-check prompts the prompt cache has never seen).
const char* const kFreshFamilies[] = {
    "SELECT name FROM language WHERE family LIKE {}",
    "SELECT name FROM stadium WHERE city LIKE {}",
    "SELECT name FROM airline WHERE country LIKE {}",
    "SELECT name FROM singer WHERE country LIKE {}",
    "SELECT name FROM country WHERE capital LIKE {}",
};

/// Distinct ground-truth values of table.column rendered as SQL literals
/// (strings quoted; values containing a quote skipped), sorted.
std::vector<std::string> CategoricalLiterals(
    const galois::knowledge::SpiderLikeWorkload& workload, const char* table,
    const char* column) {
  std::set<std::string> out;
  auto instance = workload.catalog().GetInstance(table);
  if (!instance.ok()) return {};
  const galois::Relation& rel = *instance.value();
  const auto col = rel.schema().Find(column);
  if (!col.has_value()) return {};
  for (const galois::Value& v : rel.ColumnValues(*col)) {
    if (v.type() == galois::DataType::kString) {
      if (v.string_value().find('\'') != std::string::npos) continue;
      out.insert("'" + v.string_value() + "'");
    } else if (v.type() == galois::DataType::kInt64) {
      out.insert(std::to_string(v.int_value()));
    }
  }
  return {out.begin(), out.end()};
}

/// `sql` with its first "{}" replaced by `literal`.
std::string Substitute(const std::string& sql, const std::string& literal) {
  std::string out = sql;
  const size_t pos = out.find("{}");
  if (pos != std::string::npos) out.replace(pos, 2, literal);
  return out;
}

/// Byte ranges of the integer constants compared against in `sql`
/// (digit runs whose previous non-space character is <, > or =).
std::vector<std::pair<size_t, size_t>> IntegerConstants(
    const std::string& sql) {
  std::vector<std::pair<size_t, size_t>> out;
  bool quoted = false;
  for (size_t i = 0; i < sql.size(); ++i) {
    const char c = sql[i];
    if (c == '\'') quoted = !quoted;
    if (quoted || !std::isdigit(static_cast<unsigned char>(c))) continue;
    size_t prev = i;
    while (prev > 0 && sql[prev - 1] == ' ') --prev;
    const bool after_op =
        prev > 0 && (sql[prev - 1] == '<' || sql[prev - 1] == '>' ||
                     sql[prev - 1] == '=');
    size_t end = i;
    while (end < sql.size() &&
           std::isdigit(static_cast<unsigned char>(sql[end]))) {
      ++end;
    }
    if (after_op) out.emplace_back(i, end - i);
    i = end;
  }
  return out;
}

/// A fresh value for an integer constant, by what it looks like.
int64_t RedrawConstant(int64_t v, Rng* rng) {
  if (v >= 1000 && v <= 2100) {  // a year
    return std::min<int64_t>(2024, v + rng->NextInt(-40, 40));
  }
  if (v < 1000) return rng->NextInt(0, std::max<int64_t>(5, 2 * v));
  const double factor = std::exp((rng->NextDouble() * 2.0 - 1.0) *
                                 std::log(4.0));
  return RoundSignificant(static_cast<double>(v) * factor, 3);
}

bool IsAggregateOrGrouped(const std::string& sql) {
  for (const char* word :
       {"COUNT(", "AVG(", "SUM(", "MIN(", "MAX(", "GROUP BY"}) {
    if (sql.find(word) != std::string::npos) return true;
  }
  return false;
}

}  // namespace

Stream::Stream(uint64_t seed, Generator generator)
    : rng_(seed), generator_(std::move(generator)) {
  sequence_.reserve(1 << 22);  // see kReservedQps in stats.cc
}

int Stream::IdAt(int64_t seq) {
  std::lock_guard<std::mutex> lock(mu_);
  while (static_cast<int64_t>(sequence_.size()) <= seq) {
    std::string sql = generator_(&rng_);
    auto [it, inserted] =
        ids_.try_emplace(sql, static_cast<int>(texts_.size()));
    if (inserted) texts_.push_back(std::move(sql));
    sequence_.push_back(it->second);
  }
  return sequence_[static_cast<size_t>(seq)];
}

const std::string& Stream::Text(int id) const {
  std::lock_guard<std::mutex> lock(mu_);
  return texts_[static_cast<size_t>(id)];
}

size_t Stream::DistinctCount() const {
  std::lock_guard<std::mutex> lock(mu_);
  return texts_.size();
}

Stream::Generator ShuffledPasses(std::vector<std::string> pool) {
  std::vector<std::string> order;
  size_t next = 0;
  return [pool = std::move(pool), order, next](Rng* rng) mutable {
    if (next == order.size()) {
      order = pool;
      rng->Shuffle(&order);
      next = 0;
    }
    return order[next++];
  };
}

std::vector<std::string> NarrowerVariants(
    const galois::knowledge::SpiderLikeWorkload& workload, int per_family,
    Rng* rng) {
  std::vector<std::string> out;
  for (const Family& family : kFamilies) {
    std::vector<std::string> domain;
    if (family.draw.table != nullptr) {
      domain = CategoricalLiterals(workload, family.draw.table,
                                   family.draw.column);
      if (domain.empty()) continue;
    }
    // Stratified: draw i falls in the i-th of `per_family` equal slices
    // of the range (or of the sorted domain), so every seed covers the
    // same spread of selectivities and only the exact constants move.
    for (int i = 0; i < per_family; ++i) {
      const double u = (i + rng->NextDouble()) / per_family;
      std::string literal;
      if (family.draw.table != nullptr) {
        literal = domain[std::min(
            domain.size() - 1,
            static_cast<size_t>(u * static_cast<double>(domain.size())))];
      } else {
        literal = std::to_string(RoundSignificant(
            family.draw.lo + u * (family.draw.hi - family.draw.lo), 2));
      }
      out.push_back(Substitute(family.sql, literal));
    }
  }
  return out;
}

Stream::Generator MixedStream(std::vector<std::string> templates,
                              std::vector<std::string> hot_pool,
                              uint64_t seed) {
  // Fresh families and the templates with an integer constant are each
  // walked round-robin in a seeded order, so any stretch of the stream
  // covers them evenly.
  std::vector<const char*> fresh(std::begin(kFreshFamilies),
                                 std::end(kFreshFamilies));
  std::vector<std::string> redraw;
  for (const std::string& sql : templates) {
    if (!IntegerConstants(sql).empty()) redraw.push_back(sql);
  }
  Rng setup(seed ^ 0x5EEDF00DULL);
  setup.Shuffle(&fresh);
  setup.Shuffle(&redraw);
  // Rank i has Zipf weight 1 / (i + 1). The ranking is fixed rather than
  // seeded: which templates are popular decides the mix of cheap and
  // expensive hits, and a seeded ranking moved the median latency by 20%
  // from seed to seed. Seeds still change every drawn constant, pattern
  // and LIMIT, and the order of draws.
  Rng ranking(0x5EEDF00DULL);
  ranking.Shuffle(&hot_pool);
  std::vector<double> cdf;
  double total = 0.0;
  for (size_t i = 0; i < hot_pool.size(); ++i) {
    total += 1.0 / static_cast<double>(i + 1);
    cdf.push_back(total);
  }
  for (double& c : cdf) c /= total;
  size_t fresh_next = 0;
  size_t redraw_next = 0;

  return [fresh, redraw, fresh_next, redraw_next, cdf,
          hot_pool = std::move(hot_pool)](Rng* rng) mutable -> std::string {
    const double kind = rng->NextDouble();
    if (kind < kFreshShare) {
      const char* family = fresh[fresh_next++ % fresh.size()];
      std::string pattern = "'%";
      for (int i = 0; i < 3; ++i) {
        pattern += static_cast<char>('a' + rng->NextInt(0, 25));
      }
      return Substitute(family, pattern + "%'");
    }
    if (kind < kFreshShare + kRedrawShare &&
        !redraw.empty()) {
      std::string sql = redraw[redraw_next++ % redraw.size()];
      auto constants = IntegerConstants(sql);
      // Replace back to front so earlier byte offsets stay valid.
      for (auto it = constants.rbegin(); it != constants.rend(); ++it) {
        const int64_t old_value =
            std::stoll(sql.substr(it->first, it->second));
        sql.replace(it->first, it->second,
                    std::to_string(RedrawConstant(old_value, rng)));
      }
      return sql;
    }
    const size_t rank = static_cast<size_t>(
        std::lower_bound(cdf.begin(), cdf.end(), rng->NextDouble()) -
        cdf.begin());
    std::string sql = hot_pool[std::min(rank, hot_pool.size() - 1)];
    if (!IsAggregateOrGrouped(sql) && rng->NextBool(0.5)) {
      sql += " LIMIT " + std::to_string(rng->NextInt(1, 10));
    }
    return sql;
  };
}

}  // namespace perfbench
