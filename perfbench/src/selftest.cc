// perfbench_selftest — checks of the benchmark's own machinery, run by
// run.py before every measurement (exit code 0 = all passed):
//  * the tail percentile is fixed, the tail mean covers it and every
//    sample above it, and a run with fewer than 10 samples beyond it is
//    flagged;
//  * the open loop times requests from their due time, so a stall is
//    charged to the requests queued behind it, and reports generator lag;
//  * layer counters are taken as deltas over a window, not cumulative
//    totals (equal windows give equal deltas on a real two-tier cluster);
//  * the LLM-boundary decorator is transparent: completions, CostMeter
//    values and by_model slices are identical with and without it, and
//    it does wait out the scaled latency.

#include <chrono>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "api/database.h"
#include "knowledge/workload.h"
#include "latency_llm.h"
#include "llm/prompt_templates.h"
#include "llm/simulated_llm.h"
#include "net/galois_server.h"
#include "stats.h"
#include "trace.h"
#include "workloads.h"

namespace {

using namespace perfbench;
namespace llm = galois::llm;

int g_failures = 0;

void Expect(bool ok, const std::string& what) {
  if (!ok) {
    ++g_failures;
    std::fprintf(stderr, "FAIL: %s\n", what.c_str());
  }
}

std::vector<double> OneTo(int n) {
  std::vector<double> v;
  for (int i = 1; i <= n; ++i) v.push_back(i);
  return v;
}

void TestTailRule() {
  const struct {
    int n;
    double percentile;
    double value;
    int64_t beyond;
    bool enough;
  } cases[] = {
      {1000, 99.0, 990, 10, true},      {999, 99.0, 990, 9, false},
      {1500, 99.0, 1485, 15, true},     {500, 99.0, 495, 5, false},
      {10000, 99.9, 9990, 10, true},    {9999, 99.9, 9990, 9, false},
      {9000, 99.9, 8991, 9, false},     {200000, 99.9, 199800, 200, true},
      {1, 99.9, 1, 0, false},
  };
  for (const auto& c : cases) {
    const TailLatency t = Tail(OneTo(c.n), c.percentile);
    const std::string label = "tail rule n=" + std::to_string(c.n) + " p" +
                              std::to_string(c.percentile);
    // The percentile is the requested one whatever the sample count.
    Expect(t.percentile == c.percentile, label + " percentile is fixed");
    Expect(t.value == c.value, label + " value");
    Expect(t.mean == (c.value + c.n) / 2.0, label + " mean");
    Expect(t.beyond == c.beyond, label + " beyond");
    Expect(t.enough == c.enough, label + " flags fewer than 10 beyond");
  }
  Expect(Quantile(OneTo(1000), 0.5) == 500, "median nearest rank");
}

void TestOpenLoopDueTime() {
  // 20 requests due 10 ms apart on one connection; the first one stalls
  // 200 ms. Timed from the due time, every request queued behind the
  // stall is charged for it, while the generator keeps its schedule.
  const OpenLoopResult r =
      RunOpenLoop(100.0, 0.2, 1, 0, [](int, int64_t seq) {
        if (seq == 0) {
          std::this_thread::sleep_for(std::chrono::milliseconds(200));
        }
        return NowNs();
      });
  Expect(r.timed.size() == 20, "open loop served every due request");
  if (r.timed.size() == 20) {
    Expect(r.timed[0].latency_ms >= 200.0, "stalled request latency");
    Expect(r.timed[5].latency_ms >= 140.0,
           "queued request is charged the stall (timed from its due time)");
    Expect(r.timed[19].latency_ms >= 5.0, "last queued request charged");
  }
  // Had the generator waited for the stalled connection, the mean lag
  // would be about 100 ms.
  Expect(r.mean_lag_ms >= 0.0 && r.mean_lag_ms < 50.0,
         "generator lag reported and not blocked by the stall");
}

galois::DatabaseOptions BaseOptions(
    const galois::knowledge::SpiderLikeWorkload& w, llm::LanguageModel* model) {
  galois::DatabaseOptions options;
  options.workload = &w;
  galois::BackendSpec backend;
  backend.name = model->name();
  backend.external = model;
  options.backends.push_back(backend);
  options.execution = SessionOptions();
  return options;
}

void TestCounterDeltas(const galois::knowledge::SpiderLikeWorkload& w) {
  llm::SimulatedLlm node_sim(&w.kb(), llm::ModelProfile::ChatGpt(),
                             &w.catalog(), 7);
  auto node_db = galois::Database::Open(BaseOptions(w, &node_sim));
  Expect(node_db.ok(), "node database opens");
  if (!node_db.ok()) return;
  galois::net::GaloisServer server(node_db.value().get(),
                                   galois::net::ServerOptions());
  Expect(server.Start().ok(), "node server starts");
  llm::SimulatedLlm front_sim(&w.kb(), llm::ModelProfile::ChatGpt(),
                              &w.catalog(), 7);
  galois::DatabaseOptions front = BaseOptions(w, &front_sim);
  galois::cluster::NodeSpec spec;
  spec.port = server.port();
  front.cluster.nodes.push_back(spec);
  auto front_db = galois::Database::Open(std::move(front));
  Expect(front_db.ok(), "coordinator opens");
  if (!front_db.ok()) return;
  const std::vector<galois::Database*> dbs = {node_db.value().get(),
                                              front_db.value().get()};
  const galois::Session session = front_db.value()->CreateSession();
  auto pass = [&] {
    for (int id = 1; id <= 6; ++id) (void)session.Query(w.queries()[id].sql);
  };
  const LayerCounters start = SnapshotCounters(dbs);
  pass();
  const LayerCounters middle = SnapshotCounters(dbs);
  pass();
  const LayerCounters end = SnapshotCounters(dbs);
  const LayerCounters first = middle - start;
  const LayerCounters second = end - middle;
  Expect(first.cluster_shards > 0, "shards counted");
  Expect(first.cluster_shards == second.cluster_shards &&
             first.cluster_queries == second.cluster_queries,
         "equal windows give equal deltas");
  Expect(end.cluster_shards - start.cluster_shards ==
             2 * first.cluster_shards,
         "cumulative total grows with the number of windows");
  server.Shutdown();
}

/// Simulated latency is a floating-point sum, and parallel batches add
/// their round trips to a query's meter in completion order, so it is
/// compared with a relative tolerance; every count is compared exactly.
bool SameLatency(double a, double b) {
  return std::fabs(a - b) <= 1e-9 * (1.0 + std::fabs(a));
}

void ExpectSameUsage(const llm::CostMeter& a, const llm::CostMeter& b,
                     const std::string& what) {
  Expect(a.num_prompts == b.num_prompts && a.prompt_tokens == b.prompt_tokens &&
             a.completion_tokens == b.completion_tokens &&
             SameLatency(a.simulated_latency_ms, b.simulated_latency_ms) &&
             a.cache_hits == b.cache_hits && a.store_hits == b.store_hits &&
             a.num_batches == b.num_batches,
         what + ": aggregate meter");
  Expect(a.by_model.size() == b.by_model.size(), what + ": slice count");
  for (const auto& [name, usage] : a.by_model) {
    auto it = b.by_model.find(name);
    const bool same =
        it != b.by_model.end() && it->second.num_prompts == usage.num_prompts &&
        it->second.prompt_tokens == usage.prompt_tokens &&
        it->second.completion_tokens == usage.completion_tokens &&
        it->second.num_batches == usage.num_batches &&
        SameLatency(it->second.simulated_latency_ms,
                    usage.simulated_latency_ms);
    Expect(same, what + ": by_model slice " + name);
  }
}

void TestDecoratorTransparent(const galois::knowledge::SpiderLikeWorkload& w) {
  Tracer tracer;
  tracer.set_enabled(true);
  const double scale = 1e-4;

  // Direct calls: one single-prompt and one batched round trip.
  const llm::ModelProfile profile = llm::ModelProfile::ChatGpt();
  llm::SimulatedLlm bare(&w.kb(), profile, &w.catalog(), 7);
  llm::SimulatedLlm inner(&w.kb(), profile, &w.catalog(), 7);
  ScaledLatencyLlm wrapped(&inner, scale, &tracer);
  llm::KeyScanIntent scan;
  scan.concept_name = "country";
  scan.key_attribute = "name";
  std::vector<llm::Prompt> batch;
  for (const char* key : {"France", "Italy", "Japan", "Brazil"}) {
    llm::AttributeGetIntent get;
    get.concept_name = "country";
    get.key = key;
    get.attribute = "capital";
    get.attribute_description = "capital city";
    batch.push_back(llm::BuildAttributePrompt(get));
  }
  llm::CostMeter bare_usage;
  llm::CostMeter wrapped_usage;
  auto a = bare.CompleteMetered(llm::BuildKeyScanPrompt(scan), &bare_usage);
  auto b =
      wrapped.CompleteMetered(llm::BuildKeyScanPrompt(scan), &wrapped_usage);
  Expect(a.ok() && b.ok() && a.value().text == b.value().text,
         "decorator: single completion identical");
  const int64_t t0 = NowNs();
  llm::CostMeter batch_delta;
  auto ab = bare.CompleteBatchMetered(batch, &bare_usage);
  auto bb = wrapped.CompleteBatchMetered(batch, &batch_delta);
  const double batch_ms = static_cast<double>(NowNs() - t0) / 1e6;
  wrapped_usage += batch_delta;
  Expect(ab.ok() && bb.ok() && ab.value().size() == bb.value().size(),
         "decorator: batch answered");
  if (ab.ok() && bb.ok()) {
    for (size_t i = 0; i < ab.value().size() && i < bb.value().size(); ++i) {
      Expect(ab.value()[i].text == bb.value()[i].text,
             "decorator: batch completion identical");
    }
  }
  ExpectSameUsage(bare_usage, wrapped_usage, "decorator per-call usage");
  ExpectSameUsage(bare.cost(), wrapped.cost(), "decorator cost()");
  Expect(batch_ms >= batch_delta.simulated_latency_ms * scale,
         "decorator waits out the scaled latency");
  Expect(wrapped.counts().round_trips == 2 && wrapped.counts().prompts == 5,
         "decorator counts round trips and prompts");
  Expect(tracer.spans().size() == 2, "decorator records one span per call");

  // Whole queries through a Database, with and without the decorator.
  llm::SimulatedLlm plain(&w.kb(), profile, &w.catalog(), 7);
  llm::SimulatedLlm under(&w.kb(), profile, &w.catalog(), 7);
  ScaledLatencyLlm decorated(&under, 0.0, &tracer);
  auto db_plain = galois::Database::Open(BaseOptions(w, &plain));
  auto db_decorated = galois::Database::Open(BaseOptions(w, &decorated));
  Expect(db_plain.ok() && db_decorated.ok(), "decorator: databases open");
  if (!db_plain.ok() || !db_decorated.ok()) return;
  const galois::Session s_plain = db_plain.value()->CreateSession();
  const galois::Session s_decorated = db_decorated.value()->CreateSession();
  for (const auto& q : w.queries()) {
    auto x = s_plain.Query(q.sql);
    auto y = s_decorated.Query(q.sql);
    const std::string label = "decorator q" + std::to_string(q.id);
    Expect(x.ok() && y.ok(), label + " ran");
    if (!x.ok() || !y.ok()) continue;
    Expect(x.value().relation.ToCsv() == y.value().relation.ToCsv(),
           label + " relation");
    ExpectSameUsage(x.value().cost, y.value().cost, label);
  }
  ExpectSameUsage(plain.cost(), decorated.cost(), "decorator stack cost()");
}

}  // namespace

int main() {
  auto world = galois::knowledge::SpiderLikeWorkload::Create();
  if (!world.ok()) {
    std::fprintf(stderr, "FAIL: workload: %s\n",
                 world.status().ToString().c_str());
    return 1;
  }
  TestTailRule();
  TestOpenLoopDueTime();
  TestCounterDeltas(world.value());
  TestDecoratorTransparent(world.value());
  if (g_failures != 0) {
    std::fprintf(stderr, "perfbench_selftest: %d check(s) failed\n",
                 g_failures);
    return 1;
  }
  std::fprintf(stderr, "perfbench_selftest: all checks passed\n");
  return 0;
}
