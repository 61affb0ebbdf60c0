#include "workloads.h"

#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdarg>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <thread>

#include "api/database.h"
#include "engine/executor.h"
#include "eval/metrics.h"
#include "knowledge/workload.h"
#include "latency_llm.h"
#include "llm/simulated_llm.h"
#include "net/galois_client.h"
#include "net/galois_server.h"
#include "net/protocol.h"
#include "planner/planner.h"
#include "sql/parser.h"
#include "stats.h"
#include "stream.h"
#include "store/result_store.h"
#include "trace.h"

namespace perfbench {
namespace {

using galois::Database;
using galois::QueryResult;
using galois::Result;
using galois::Status;
using galois::knowledge::SpiderLikeWorkload;

constexpr uint64_t kLlmSeed = 7;
// Set-up is timed from scratch in batches, once before the measured
// window and once after it, so that a slow spell of the host moves only
// some of the batches. A batch runs set-ups until their time adds up to
// kSetupBatchS (at least one); each phase runs batches until
// kSetupBudgetS has passed (at least kMinSetupBatches). setup_s is the
// median of the batch means. A cold_llm set-up takes 0.6-1 ms, so it
// gets some eighty batches of about sixty set-ups; the cache-backed
// set-ups take about half a second, one per batch. A cold_llm set-up is
// pure CPU work, and on a shared host its cost switched between about
// 0.6 and 0.9 ms in spells of a fraction of a second to seconds; a
// longer budget lets each run's median average over more such spells.
constexpr double kSetupBatchS = 0.05;
constexpr size_t kMinSetupBatches = 3;
constexpr double kSetupBudgetS = 2.0;
// Every run first serves requests untimed for kWarmUpS (a closed loop),
// so the measured window does not start on cold connections, allocator
// arenas and CPU caches; the first second of a served run was otherwise
// about a quarter slower than the rest.
constexpr double kWarmUpS = 2.0;
// Share of a served_mixed window given to the closed loop, which yields
// the gated latency and throughput; the open loop gets the rest.
constexpr double kServedClosedShare = 2.0 / 3.0;
constexpr size_t kCacheEntries = 64;
constexpr int kBackNodes = 2;
constexpr int kVariantsPerFamily = 4;

/// The ChatGPT profile with every noise source off. Subsumption serves a
/// query by re-checking filters on cached cells, which reproduces the
/// model's own filter verdicts only for a noise-free model (the repo's
/// predicate-subsumption suite uses the same profile for its byte-
/// identity proof), so the cache-backed workloads run on it.
galois::llm::ModelProfile NoiseFreeProfile() {
  galois::llm::ModelProfile p = galois::llm::ModelProfile::ChatGpt();
  p.name = "chatgpt-noise-free";
  p.coverage_floor = 1.0;
  p.coverage_gain = 0.0;
  p.unknown_rate = 0.0;
  p.fake_entity_confidence = 0.0;
  p.fact_accuracy = 1.0;
  p.numeric_fact_accuracy = 1.0;
  p.reference_style_noise = 0.0;
  p.value_format_noise = 0.0;
  p.verbosity = 0.0;
  p.paging_fatigue = 0.0;
  p.hallucinated_key_rate = 0.0;
  p.pushdown_error = 0.0;
  p.filter_check_error = 0.0;
  return p;
}

galois::llm::ModelProfile ProfileFor(const std::string& workload) {
  return workload == "cold_llm" ? galois::llm::ModelProfile::ChatGpt()
                                : NoiseFreeProfile();
}

/// Keeps the calling thread, and every thread it starts while pinned, on
/// the highest-numbered CPU it may run on, until Release().
///
/// Set-up, warm-up and the measured windows run pinned. A served request
/// hands off between four threads; on a shared VM each hand-off to
/// another vCPU is an inter-processor wake-up that cost more than the
/// work (closed-loop p50 0.55-0.60 ms spread over CPUs, 0.35-0.37 ms on
/// one) and varied with the host's load. On one CPU a hand-off is a
/// plain context switch. Overlapped LLM waits still overlap (a sleeping
/// thread needs no CPU); gains from running relational work on several
/// CPUs at once do not show. The output check runs unpinned, after
/// every pinned thread has ended.
class OneCpu {
 public:
  OneCpu() {
    CPU_ZERO(&saved_);
    if (sched_getaffinity(0, sizeof(saved_), &saved_) != 0) return;
    for (int c = CPU_SETSIZE - 1; c >= 0; --c) {
      if (!CPU_ISSET(c, &saved_)) continue;
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(c, &one);
      if (sched_setaffinity(0, sizeof(one), &one) == 0) cpu_ = c;
      return;
    }
  }
  ~OneCpu() { Release(); }
  OneCpu(const OneCpu&) = delete;
  OneCpu& operator=(const OneCpu&) = delete;

  /// The CPU, or -1 when the affinity could not be set.
  int cpu() const { return cpu_; }

  void Release() {
    if (cpu_ >= 0) sched_setaffinity(0, sizeof(saved_), &saved_);
    cpu_ = -1;
  }

 private:
  cpu_set_t saved_;
  int cpu_ = -1;
};

/// One Database with its model stack and, when served, its daemon.
/// Members are declared so destruction runs server, Database, decorator,
/// transport.
struct Node {
  std::string store_path;
  std::unique_ptr<galois::llm::SimulatedLlm> sim;
  std::unique_ptr<ScaledLatencyLlm> llm;
  std::unique_ptr<Database> db;
  std::unique_ptr<galois::net::GaloisServer> server;
};

struct NodeConfig {
  bool caches = false;
  std::string store_path;
  std::vector<int> cluster_ports;
  bool serve = false;
};

Result<std::unique_ptr<Node>> OpenNode(const SpiderLikeWorkload& world,
                                       const galois::llm::ModelProfile& profile,
                                       Tracer* tracer,
                                       const NodeConfig& config) {
  auto node = std::make_unique<Node>();
  node->store_path = config.store_path;
  node->sim = std::make_unique<galois::llm::SimulatedLlm>(
      &world.kb(), profile, &world.catalog(), kLlmSeed);
  node->llm =
      std::make_unique<ScaledLatencyLlm>(node->sim.get(), kTimeScale, tracer);
  galois::DatabaseOptions options;
  options.workload = &world;
  options.llm_seed = kLlmSeed;
  galois::BackendSpec backend;
  backend.name = profile.name;
  backend.external = node->llm.get();
  backend.prompt_cache = config.caches;
  options.backends.push_back(backend);
  options.execution = SessionOptions();
  options.enable_materialisation_cache = config.caches;
  options.materialisation_cache_entries = kCacheEntries;
  options.store.path = config.store_path;
  for (int port : config.cluster_ports) {
    galois::cluster::NodeSpec spec;
    spec.port = port;
    options.cluster.nodes.push_back(spec);
  }
  GALOIS_ASSIGN_OR_RETURN(node->db, Database::Open(std::move(options)));
  if (config.serve) {
    node->server = std::make_unique<galois::net::GaloisServer>(
        node->db.get(), galois::net::ServerOptions());
    GALOIS_RETURN_IF_ERROR(node->server->Start());
  }
  return node;
}

/// Everything one workload runs against. Declaration order makes the
/// clients disconnect first, then the front door drains, then the back
/// nodes, then the world goes.
struct System {
  std::unique_ptr<SpiderLikeWorkload> world;
  std::vector<std::unique_ptr<Node>> back;
  std::unique_ptr<Node> front;
  std::optional<galois::Session> session;
  std::vector<galois::net::GaloisClient> clients;

  bool served() const { return !clients.empty(); }

  Result<QueryResult> Query(int worker, const std::string& sql) {
    if (served()) return clients[static_cast<size_t>(worker)].Query(sql);
    return session->Query(sql);
  }

  std::vector<const Node*> nodes() const {
    std::vector<const Node*> out;
    for (const auto& node : back) out.push_back(node.get());
    out.push_back(front.get());
    return out;
  }

  std::vector<Database*> databases() const {
    std::vector<Database*> out;
    for (const Node* node : nodes()) out.push_back(node->db.get());
    return out;
  }

  RoundTripCounts round_trips() const {
    RoundTripCounts total;
    for (const Node* node : nodes()) {
      const RoundTripCounts c = node->llm->counts();
      total.round_trips += c.round_trips;
      total.prompts += c.prompts;
    }
    return total;
  }

  /// Admission queue depth and rejections summed over every daemon.
  void ServerLoad(int64_t* queued, int64_t* rejected) const {
    *queued = 0;
    *rejected = 0;
    for (const Node* node : nodes()) {
      if (node->server == nullptr) continue;
      const galois::net::ServerStats s = node->server->stats();
      *queued += s.queued;
      *rejected += s.queries_rejected;
    }
  }
};

Status RunFill(System* system, const std::vector<std::string>& queries) {
  for (const std::string& sql : queries) {
    auto r = system->Query(0, sql);
    if (!r.ok()) return r.status();
  }
  return Status::OK();
}

std::vector<std::string> BaseQueries(const SpiderLikeWorkload& world) {
  std::vector<std::string> out;
  for (const auto& q : world.queries()) out.push_back(q.sql);
  return out;
}

/// Builds the workload's system from scratch. Everything here counts in
/// setup_s: the world, the model stacks and Databases, the daemons and
/// connections, and for the cache-backed workloads the cache fill.
Result<std::unique_ptr<System>> SetUp(const RunOptions& options,
                                      Tracer* tracer,
                                      const std::string& store_root) {
  auto system = std::make_unique<System>();
  GALOIS_ASSIGN_OR_RETURN(SpiderLikeWorkload world,
                          SpiderLikeWorkload::Create());
  system->world = std::make_unique<SpiderLikeWorkload>(std::move(world));
  const SpiderLikeWorkload& w = *system->world;
  const galois::llm::ModelProfile profile = ProfileFor(options.workload);

  if (options.workload != "served_mixed") {
    NodeConfig config;
    config.caches = options.workload == "warm_tail";
    GALOIS_ASSIGN_OR_RETURN(system->front,
                            OpenNode(w, profile, tracer, config));
    system->session = system->front->db->CreateSession();
    if (config.caches) {
      GALOIS_RETURN_IF_ERROR(RunFill(system.get(), BaseQueries(w)));
    }
    return system;
  }

  std::error_code ec;
  std::filesystem::create_directories(store_root, ec);
  if (ec) return Status::IoError("cannot create " + store_root);
  std::vector<int> ports;
  for (int i = 0; i < kBackNodes; ++i) {
    NodeConfig config;
    config.caches = true;
    config.serve = true;
    config.store_path = store_root + "/node" + std::to_string(i);
    std::unique_ptr<Node> node;
    GALOIS_ASSIGN_OR_RETURN(node, OpenNode(w, profile, tracer, config));
    ports.push_back(node->server->port());
    system->back.push_back(std::move(node));
  }
  NodeConfig front;
  front.serve = true;
  front.cluster_ports = ports;
  GALOIS_ASSIGN_OR_RETURN(system->front,
                          OpenNode(w, profile, tracer, front));
  for (int c = 0; c < kServedClients; ++c) {
    galois::net::ClientOptions client;
    client.port = system->front->server->port();
    GALOIS_ASSIGN_OR_RETURN(galois::net::GaloisClient connected,
                            galois::net::GaloisClient::Connect(client));
    system->clients.push_back(std::move(connected));
  }
  GALOIS_RETURN_IF_ERROR(RunFill(system.get(), BaseQueries(w)));
  return system;
}


/// What one request returned, as far as the metrics need it.
struct Sample {
  int64_t seq = 0;
  int id = 0;
  uint64_t span = 0;
  bool ok = false;
  int64_t start_ns = 0;
  int64_t done_ns = 0;
  int64_t prompts = 0;
  int64_t tokens = 0;
  int64_t prompt_cache_hits = 0;
  int64_t table_lookups = 0;
  int64_t table_hits = 0;
  int64_t table_subsumption_hits = 0;
  int64_t pages_prefetched = 0;
  int64_t pages_overfetched = 0;
  double server_wall_ms = 0.0;
  int64_t response_bytes = 0;
};

/// Sums over the requests of a window (kept instead of per-request
/// samples, so the harness's memory does not grow with throughput).
struct Totals {
  int64_t requests = 0;
  int64_t errors = 0;
  int64_t llm_misses = 0;  // requests that paid at least one prompt
  int64_t prompts = 0;
  int64_t tokens = 0;
  int64_t prompt_cache_hits = 0;
  int64_t table_lookups = 0;
  int64_t table_hits = 0;
  int64_t table_subsumption_hits = 0;
  int64_t pages_prefetched = 0;
  int64_t pages_overfetched = 0;
  int64_t response_bytes = 0;
  double net_overhead_ms = 0.0;  // client latency minus server wall time
  std::map<int, int64_t> per_id;

  void Add(const Sample& s) {
    ++requests;
    errors += s.ok ? 0 : 1;
    llm_misses += s.prompts > 0 ? 1 : 0;
    prompts += s.prompts;
    tokens += s.tokens;
    prompt_cache_hits += s.prompt_cache_hits;
    table_lookups += s.table_lookups;
    table_hits += s.table_hits;
    table_subsumption_hits += s.table_subsumption_hits;
    pages_prefetched += s.pages_prefetched;
    pages_overfetched += s.pages_overfetched;
    response_bytes += s.response_bytes;
    net_overhead_ms +=
        static_cast<double>(s.done_ns - s.start_ns) / 1e6 - s.server_wall_ms;
    ++per_id[s.id];
  }

  void Merge(const Totals& o) {
    requests += o.requests;
    errors += o.errors;
    llm_misses += o.llm_misses;
    prompts += o.prompts;
    tokens += o.tokens;
    prompt_cache_hits += o.prompt_cache_hits;
    table_lookups += o.table_lookups;
    table_hits += o.table_hits;
    table_subsumption_hits += o.table_subsumption_hits;
    pages_prefetched += o.pages_prefetched;
    pages_overfetched += o.pages_overfetched;
    response_bytes += o.response_bytes;
    net_overhead_ms += o.net_overhead_ms;
    for (const auto& [id, n] : o.per_id) per_id[id] += n;
  }
};

/// Per-worker output-check state: the first relation each distinct SQL
/// returned on this worker; later answers are compared byte for byte
/// against it, and it is compared against the reference after the run.
struct WorkerState {
  std::map<int, std::string> first_csv;
  std::map<int, int64_t> response_bytes;  // encoded size, first answer
  std::map<int, int64_t> count;
  std::map<int, int64_t> mismatches;
  // The current window only.
  Totals totals;
  std::vector<Sample> traced;  // per request, when tracing
};

/// One measured window: the samples of every phase plus the layer
/// counters and spans taken around it.
struct Window {
  Totals totals;                   // every phase
  std::vector<Sample> samples;     // traced windows only, by seq
  std::vector<double> latency_ms;  // closed-loop phase, ascending
  double throughput_qps = 0.0;     // closed-loop phase
  std::vector<double> open_latency_ms;  // open-loop phase, ascending
  double generator_lag_ms = 0.0;        // open-loop phase (0 when none)
  LayerCounters counters;          // delta over the window
  RoundTripCounts round_trips;     // delta over the window
  int64_t rejected = 0;            // delta over the window
  double queued_mean = 0.0;        // sampled admission queue depth
  std::vector<Span> spans;
};

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

std::vector<double> SortedLatencies(const std::vector<Timed>& timed) {
  std::vector<double> out;
  out.reserve(timed.size());
  for (const Timed& t : timed) out.push_back(t.latency_ms);
  std::sort(out.begin(), out.end());
  return out;
}

/// peak_rss_mb is read when the run completes this many requests, not at
/// its end: the prompt caches and the harness's per-SQL records grow with
/// the distinct SQL texts served, so an end-of-run figure would grow with
/// throughput. Each count is reached in a third or less of a 30 s run.
int64_t RssMarkRequests(const std::string& workload) {
  if (workload == "cold_llm") return 500;
  if (workload == "warm_tail") return 20000;
  return 10000;
}

class Runner {
 public:
  Runner(System* system, Stream* stream, Tracer* tracer,
         int64_t rss_mark_requests)
      : rss_mark_requests_(rss_mark_requests),
        system_(system),
        stream_(stream),
        tracer_(tracer),
        workers_(system->served() ? kServedClients : 1),
        states_(static_cast<size_t>(workers_)) {}

  /// Serves the stream untimed in a closed loop for `seconds`. Its
  /// requests are output-checked like any other; their sums are returned
  /// so that failures still count.
  Totals WarmUp(double seconds) {
    tracer_->set_enabled(false);
    for (WorkerState& s : states_) s.totals = Totals();
    const ServeFn serve = [this](int worker, int64_t seq) {
      return Serve(worker, seq);
    };
    next_seq_ += static_cast<int64_t>(
        RunClosedLoop(seconds, workers_, next_seq_, serve).timed.size());
    Totals totals;
    for (const WorkerState& s : states_) totals.Merge(s.totals);
    return totals;
  }

  /// Runs the workload's phases for `seconds` in total: one closed loop
  /// in process, or a closed loop then an open loop when served.
  Window Measure(double seconds, bool traced) {
    tracer_->Clear();
    tracer_->set_enabled(traced);
    for (WorkerState& s : states_) {
      s.totals = Totals();
      s.traced.clear();
    }
    Window window;
    const LayerCounters before = SnapshotCounters(system_->databases());
    const RoundTripCounts rt_before = system_->round_trips();
    int64_t queued = 0;
    int64_t rejected_before = 0;
    system_->ServerLoad(&queued, &rejected_before);

    // The admission queue is sampled for the traced metrics only: the
    // sampler's wake-ups would otherwise perturb the gated timings.
    std::atomic<bool> sampling{traced && system_->served()};
    int64_t queued_sum = 0;
    int64_t queued_samples = 0;
    std::thread sampler([&] {
      while (sampling.load()) {
        int64_t depth = 0;
        int64_t unused = 0;
        system_->ServerLoad(&depth, &unused);
        queued_sum += depth;
        ++queued_samples;
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
      }
    });

    const ServeFn serve = [this](int worker, int64_t seq) {
      return Serve(worker, seq);
    };
    if (!system_->served()) {
      ClosedLoopResult closed = RunClosedLoop(seconds, 1, next_seq_, serve);
      next_seq_ += static_cast<int64_t>(closed.timed.size());
      window.latency_ms = SortedLatencies(closed.timed);
      window.throughput_qps = closed.throughput_qps;
    } else {
      const double closed_s = seconds * kServedClosedShare;
      ClosedLoopResult closed =
          RunClosedLoop(closed_s, workers_, next_seq_, serve);
      next_seq_ += static_cast<int64_t>(closed.timed.size());
      window.latency_ms = SortedLatencies(closed.timed);
      window.throughput_qps = closed.throughput_qps;
      OpenLoopResult open =
          RunOpenLoop(kOfferedQps, seconds - closed_s, workers_, next_seq_,
                      serve);
      next_seq_ += static_cast<int64_t>(open.timed.size());
      window.open_latency_ms = SortedLatencies(open.timed);
      window.generator_lag_ms = open.mean_lag_ms;
    }
    sampling.store(false);
    sampler.join();

    window.counters = SnapshotCounters(system_->databases()) - before;
    const RoundTripCounts rt_after = system_->round_trips();
    window.round_trips.round_trips =
        rt_after.round_trips - rt_before.round_trips;
    window.round_trips.prompts = rt_after.prompts - rt_before.prompts;
    int64_t rejected_after = 0;
    system_->ServerLoad(&queued, &rejected_after);
    window.rejected = rejected_after - rejected_before;
    window.queued_mean =
        Ratio(static_cast<double>(queued_sum),
              static_cast<double>(queued_samples));
    for (const WorkerState& s : states_) {
      window.totals.Merge(s.totals);
      window.samples.insert(window.samples.end(), s.traced.begin(),
                            s.traced.end());
    }
    std::sort(window.samples.begin(), window.samples.end(),
              [](const Sample& a, const Sample& b) { return a.seq < b.seq; });
    window.spans = tracer_->spans();
    tracer_->set_enabled(false);
    return window;
  }

  const std::vector<WorkerState>& states() const { return states_; }

  /// Peak RSS (MiB) when the rss_mark_requests-th request of the run
  /// completed; 0 when the run served fewer.
  double rss_mark_mb() const { return rss_mark_mb_; }

 private:
  int64_t Serve(int worker, int64_t seq) {
    const int id = stream_->IdAt(seq);
    const std::string& sql = stream_->Text(id);
    Sample s;
    s.seq = seq;
    s.id = id;
    s.span = tracer_->NextId();
    // Round trips are attributable to a query only while it is the sole
    // one in flight.
    if (workers_ == 1) tracer_->set_current_query(s.span);
    s.start_ns = NowNs();
    Result<QueryResult> r = system_->Query(worker, sql);
    s.done_ns = NowNs();
    tracer_->set_current_query(0);
    tracer_->Record(Span{"query", s.start_ns, s.done_ns, s.span, 0, s.span});

    WorkerState& state = states_[static_cast<size_t>(worker)];
    ++state.count[id];
    s.ok = r.ok();
    if (r.ok()) {
      const QueryResult& q = r.value();
      s.prompts = q.cost.num_prompts;
      s.tokens = q.cost.prompt_tokens + q.cost.completion_tokens;
      s.prompt_cache_hits = q.cost.cache_hits;
      s.table_lookups = q.table_cache_lookups;
      s.table_hits = q.table_cache_hits;
      s.table_subsumption_hits = q.table_cache_subsumption_hits;
      s.pages_prefetched = q.scan_pages_prefetched;
      s.pages_overfetched = q.scan_pages_overfetched;
      s.server_wall_ms = q.wall_ms;
      if (tracer_->enabled() && system_->served()) {
        // Encoded once per distinct SQL: the relation dominates the size
        // and repeats byte for byte.
        auto [bytes, fresh] = state.response_bytes.try_emplace(id, 0);
        if (fresh) {
          bytes->second = static_cast<int64_t>(
              galois::net::QueryResultToJson(q).Dump().size());
        }
        s.response_bytes = bytes->second;
      }
      std::string csv = q.relation.ToCsv();
      auto [it, inserted] = state.first_csv.try_emplace(id, csv);
      if (!inserted && it->second != csv) ++state.mismatches[id];
    } else {
      std::fprintf(stderr, "query failed: %s: %s\n", sql.c_str(),
                   r.status().ToString().c_str());
    }
    state.totals.Add(s);
    if (tracer_->enabled()) state.traced.push_back(s);
    if (completed_.fetch_add(1) + 1 == rss_mark_requests_) {
      rss_mark_mb_ = PeakRssMb();
    }
    return s.done_ns;
  }

  const int64_t rss_mark_requests_;
  std::atomic<int64_t> completed_{0};
  double rss_mark_mb_ = 0.0;  // written once, read after the workers join
  System* system_;
  Stream* stream_;
  Tracer* tracer_;
  const int workers_;
  std::vector<WorkerState> states_;
  int64_t next_seq_ = 0;
};

std::map<int, int64_t> Occurrences(const std::vector<WorkerState>& states) {
  std::map<int, int64_t> out;
  for (const WorkerState& state : states) {
    for (const auto& [id, n] : state.count) out[id] += n;
  }
  return out;
}

/// Output check and cell accuracy over every distinct SQL the run
/// executed. The reference is the plain sequential, uncached in-process
/// facade over a zero-latency model with the same profile and seed; the
/// distinct texts are spread over a few threads, each with its own
/// Session on the one reference Database.
struct CheckResult {
  int64_t failed = 0;
  double cells_matched = 0.0;
  double cells_total = 0.0;
  std::vector<std::string> problems;
};

CheckResult CheckOutputs(const std::string& workload,
                         const std::vector<WorkerState>& states,
                         const Stream& stream) {
  CheckResult out;
  auto world = SpiderLikeWorkload::Create();
  if (!world.ok()) {
    out.failed = 1;
    out.problems.push_back("reference world: " + world.status().ToString());
    return out;
  }
  const SpiderLikeWorkload& w = world.value();
  galois::llm::SimulatedLlm model(&w.kb(), ProfileFor(workload),
                                  &w.catalog(), kLlmSeed);
  galois::DatabaseOptions db_options;
  db_options.workload = &w;
  galois::BackendSpec backend;
  backend.name = model.name();
  backend.external = &model;
  db_options.backends.push_back(backend);
  auto db = Database::Open(std::move(db_options));
  if (!db.ok()) {
    out.failed = 1;
    out.problems.push_back("reference db: " + db.status().ToString());
    return out;
  }

  struct Reference {
    int id = 0;
    int64_t n = 0;
    bool ok = false;
    std::string csv;
    galois::eval::CellMatchResult cells;
  };
  std::vector<Reference> refs;
  for (const auto& [id, n] : Occurrences(states)) {
    Reference r;
    r.id = id;
    r.n = n;
    refs.push_back(r);
  }
  std::atomic<size_t> next{0};
  std::vector<std::thread> threads;
  const unsigned parallel =
      std::max(1u, std::min(4u, std::thread::hardware_concurrency()));
  for (unsigned t = 0; t < parallel; ++t) {
    threads.emplace_back([&] {
      const galois::Session session = db.value()->CreateSession();
      for (size_t i = next.fetch_add(1); i < refs.size();
           i = next.fetch_add(1)) {
        Reference& r = refs[i];
        const std::string& sql = stream.Text(r.id);
        auto reference = session.Query(sql);
        if (!reference.ok()) continue;
        r.ok = true;
        r.csv = reference.value().relation.ToCsv();
        auto truth = galois::engine::ExecuteSql(sql, w.catalog());
        if (truth.ok()) {
          r.cells = galois::eval::MatchCells(truth.value(),
                                             reference.value().relation);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();

  for (const Reference& r : refs) {
    const std::string& sql = stream.Text(r.id);
    if (!r.ok) {
      out.failed += r.n;
      out.problems.push_back("reference failed: " + sql);
      continue;
    }
    for (const WorkerState& state : states) {
      auto first = state.first_csv.find(r.id);
      if (first == state.first_csv.end()) continue;
      if (first->second != r.csv) {
        out.failed += state.count.at(r.id);
        out.problems.push_back("output differs from the reference: " + sql);
      } else if (state.mismatches.count(r.id) != 0) {
        out.failed += state.mismatches.at(r.id);
        out.problems.push_back("output differs between repeats: " + sql);
      }
    }
    const double n = static_cast<double>(r.n);
    out.cells_matched += static_cast<double>(r.cells.matched_cells) * n;
    out.cells_total += static_cast<double>(r.cells.total_cells) * n;
  }
  return out;
}

/// Mean time per call of the parser, the planner (logical plan plus the
/// physical binding pass) and the relational engine on the executed SQL
/// texts, weighted by how often each ran in the traced window (the
/// kMaxProbed most frequent texts). Each call is recorded as a span.
struct ProbeTimes {
  double parse_us = 0.0;
  double plan_us = 0.0;
  double exec_ms = 0.0;
};

ProbeTimes ProbeLayers(const Window& window, const Stream& stream,
                       Tracer* tracer) {
  constexpr int kRepeats = 3;
  constexpr size_t kMaxProbed = 200;
  ProbeTimes out;
  auto world = SpiderLikeWorkload::Create();
  if (!world.ok()) return out;
  const galois::catalog::Catalog& catalog = world.value().catalog();
  const galois::core::ExecutionOptions session = SessionOptions();
  galois::planner::BindingOptions binding;
  binding.llm_filter_checks = session.llm_filter_checks;
  binding.auto_pushdown_min_rows = session.auto_pushdown_min_rows;

  std::vector<std::pair<int64_t, int>> occurrences;  // (count, id)
  for (const auto& [id, n] : window.totals.per_id) {
    occurrences.emplace_back(n, id);
  }
  std::sort(occurrences.begin(), occurrences.end(),
            [](const auto& a, const auto& b) {
              return a.first != b.first ? a.first > b.first
                                        : a.second < b.second;
            });
  if (occurrences.size() > kMaxProbed) occurrences.resize(kMaxProbed);
  auto timed = [tracer](const char* name, const auto& call) {
    const int64_t t0 = NowNs();
    call();
    const int64_t t1 = NowNs();
    tracer->Record(Span{name, t0, t1, tracer->NextId(), 0, 0});
    return static_cast<double>(t1 - t0);
  };
  tracer->set_enabled(true);
  double weight = 0.0;
  for (const auto& [n, id] : occurrences) {
    const std::string& sql = stream.Text(id);
    const double w = static_cast<double>(n) / kRepeats;
    for (int r = 0; r < kRepeats; ++r) {
      std::optional<galois::sql::SelectStatement> stmt;
      out.parse_us += w * timed("sql.parse", [&] {
                        auto parsed = galois::sql::ParseSelect(sql);
                        if (parsed.ok()) stmt = std::move(parsed).value();
                      }) / 1e3;
      if (!stmt.has_value()) continue;
      out.plan_us += w * timed("planner.plan", [&] {
                       auto plan =
                           galois::planner::BuildLogicalPlan(*stmt, catalog);
                       if (plan.ok()) {
                         (void)galois::planner::BindPhysicalAnnotations(
                             plan.value().get(), catalog, binding);
                       }
                     }) / 1e3;
      out.exec_ms += w * timed("engine.exec", [&] {
                       (void)galois::engine::ExecuteSql(sql, catalog);
                     }) / 1e6;
    }
    weight += static_cast<double>(n);
  }
  tracer->set_enabled(false);
  out.parse_us = Ratio(out.parse_us, weight);
  out.plan_us = Ratio(out.plan_us, weight);
  out.exec_ms = Ratio(out.exec_ms, weight);
  return out;
}

/// LLM-wait versus CPU split of the traced window. A query's CPU time is
/// its span minus the part covered by round trips: its own (child spans)
/// when it was the only query in flight; otherwise, for a query that paid
/// at least one prompt, any round trip in flight meanwhile (spans cannot
/// be attributed across the daemon hop from outside the system).
struct SpanBreakdown {
  double wait_ms = 0.0;  // per query
  double wait_share = 0.0;
  double inflight_mean = 0.0;
  double cpu_ms = 0.0;  // per query
};

SpanBreakdown BreakDown(const Window& window) {
  SpanBreakdown out;
  std::vector<Interval> round_trips;
  std::map<uint64_t, std::vector<Interval>> children;
  double round_trip_ns = 0.0;
  for (const Span& s : window.spans) {
    if (s.name != "llm.round_trip") continue;
    round_trips.emplace_back(s.start_ns, s.end_ns);
    round_trip_ns += static_cast<double>(s.end_ns - s.start_ns);
    if (s.parent != 0) children[s.parent].emplace_back(s.start_ns, s.end_ns);
  }
  round_trips = Merge(std::move(round_trips));
  std::vector<Interval> queries;
  double total_ns = 0.0;
  double waited_ns = 0.0;
  for (const Sample& s : window.samples) {
    const Interval q{s.start_ns, s.done_ns};
    queries.push_back(q);
    total_ns += static_cast<double>(q.second - q.first);
    auto own = children.find(s.span);
    if (own != children.end()) {
      waited_ns += static_cast<double>(CoveredLength(q, own->second));
    } else if (s.prompts > 0) {
      waited_ns += static_cast<double>(CoveredLength(q, round_trips));
    }
  }
  queries = Merge(std::move(queries));
  double busy_ns = 0.0;
  double busy_waiting_ns = 0.0;
  for (const Interval& q : queries) {
    busy_ns += static_cast<double>(q.second - q.first);
    busy_waiting_ns += static_cast<double>(CoveredLength(q, round_trips));
  }
  const double n = static_cast<double>(window.samples.size());
  out.wait_ms = Ratio(waited_ns, n) / 1e6;
  out.cpu_ms = Ratio(total_ns - waited_ns, n) / 1e6;
  out.wait_share = Ratio(busy_waiting_ns, busy_ns);
  out.inflight_mean = Ratio(round_trip_ns, busy_ns);
  return out;
}

std::string Format(const char* format, ...)
    __attribute__((format(printf, 1, 2)));
std::string Format(const char* format, ...) {
  char buf[512];
  va_list args;
  va_start(args, format);
  std::vsnprintf(buf, sizeof(buf), format, args);
  va_end(args);
  return buf;
}

std::unique_ptr<Stream> MakeStream(const RunOptions& options,
                                   const SpiderLikeWorkload& world) {
  if (options.workload == "cold_llm") {
    return std::make_unique<Stream>(options.seed,
                                    ShuffledPasses(BaseQueries(world)));
  }
  galois::Rng variant_rng(options.seed ^ 0xA11CE5ULL);
  std::vector<std::string> pool = BaseQueries(world);
  for (std::string& v :
       NarrowerVariants(world, kVariantsPerFamily, &variant_rng)) {
    pool.push_back(std::move(v));
  }
  if (options.workload == "warm_tail") {
    return std::make_unique<Stream>(options.seed, ShuffledPasses(pool));
  }
  return std::make_unique<Stream>(
      options.seed,
      MixedStream(BaseQueries(world), std::move(pool), options.seed));
}

}  // namespace

bool IsWorkload(const std::string& name) {
  return name == "cold_llm" || name == "warm_tail" || name == "served_mixed";
}

galois::core::ExecutionOptions SessionOptions() {
  galois::core::ExecutionOptions options;
  options.batch_prompts = true;
  options.max_batch_size = 8;
  options.parallel_batches = 4;
  options.pipeline_phases = true;
  options.prefetch_pages = 2;
  return options;
}

std::string ModelProfileName(const std::string& workload) {
  return ProfileFor(workload).name;
}

RunReport RunWorkload(const RunOptions& options) {
  RunReport report;
  Tracer tracer;
  const std::string run_dir = options.work_dir + "/" + options.workload +
                              "-" + std::to_string(::getpid());
  std::error_code ec;
  std::filesystem::remove_all(run_dir, ec);
  std::filesystem::create_directories(run_dir, ec);
  OneCpu pin;
  report.notes.push_back(
      pin.cpu() >= 0
          ? Format("context: set-up, warm-up and measured windows pinned "
                   "to cpu %d",
                   pin.cpu())
          : "context: WARNING: could not pin to one CPU; timings are not "
            "comparable with pinned runs");

  // One phase of timed set-ups; the last system built is left in
  // `system`.
  std::unique_ptr<System> system;
  std::vector<double> setup_s;  // mean set-up time per batch
  int setups = 0;
  const auto time_set_ups = [&]() -> Status {
    const size_t first_batch = setup_s.size();
    double phase_s = 0.0;
    while (setup_s.size() - first_batch < kMinSetupBatches ||
           phase_s < kSetupBudgetS) {
      double batch_s = 0.0;
      int batch_setups = 0;
      while (batch_setups == 0 || batch_s < kSetupBatchS) {
        system.reset();
        const int64_t t0 = NowNs();
        auto built = SetUp(options, &tracer,
                           run_dir + "/setup" + std::to_string(setups));
        batch_s += static_cast<double>(NowNs() - t0) / 1e9;
        ++batch_setups;
        ++setups;
        if (!built.ok()) return built.status();
        system = std::move(built).value();
      }
      setup_s.push_back(batch_s / batch_setups);
      phase_s += batch_s;
    }
    return Status::OK();
  };
  if (Status s = time_set_ups(); !s.ok()) {
    report.correct = false;
    report.notes.push_back("set-up failed: " + s.ToString());
    std::filesystem::remove_all(run_dir, ec);
    return report;
  }

  const std::unique_ptr<Stream> stream = MakeStream(options, *system->world);
  Runner runner(system.get(), stream.get(), &tracer,
                RssMarkRequests(options.workload));
  const Totals warm_up = runner.WarmUp(kWarmUpS);
  Window untraced;
  Window traced;
  if (options.trace) {
    untraced = runner.Measure(options.seconds / 2, false);
    traced = runner.Measure(options.seconds / 2, true);
  } else {
    untraced = runner.Measure(options.seconds, false);
  }
  double peak_rss_mb = runner.rss_mark_mb();
  if (peak_rss_mb == 0.0) {
    peak_rss_mb = PeakRssMb();
    report.notes.push_back(Format(
        "peak_rss_mb: WARNING: the run served fewer than %lld requests; "
        "reporting the end-of-run peak instead",
        static_cast<long long>(RssMarkRequests(options.workload))));
  } else {
    report.notes.push_back(Format(
        "peak_rss_mb: peak RSS when request %lld completed",
        static_cast<long long>(RssMarkRequests(options.workload))));
  }

  // Store shape at the end of the run, then close everything.
  std::vector<std::string> store_paths;
  double live_bytes = 0.0;
  double file_bytes = 0.0;
  for (const auto& node : system->back) {
    if (node->db->store() == nullptr) continue;
    store_paths.push_back(node->store_path);
    const galois::store::StoreStats s = node->db->store()->stats();
    live_bytes += static_cast<double>(s.live_bytes);
    file_bytes += static_cast<double>(s.file_bytes);
  }
  const bool served = system->served();
  system.reset();
  // The second phase of timed set-ups.
  if (Status s = time_set_ups(); !s.ok()) {
    report.correct = false;
    report.notes.push_back("set-up failed: " + s.ToString());
  }
  system.reset();
  pin.Release();
  std::sort(setup_s.begin(), setup_s.end());

  // Recovery time of the journals the run wrote.
  double recovery_ms = 0.0;
  if (options.trace) {
    for (const std::string& path : store_paths) {
      galois::store::StoreOptions store_options;
      store_options.path = path;
      auto reopened = galois::store::ResultStore::Open(store_options);
      if (reopened.ok()) {
        recovery_ms +=
            static_cast<double>(reopened.value()->stats().recovery_micros) /
            1e3;
      }
    }
    recovery_ms = Ratio(recovery_ms, static_cast<double>(store_paths.size()));
  }
  std::filesystem::remove_all(run_dir, ec);

  // Output check against the reference, and cell accuracy.
  const CheckResult check = CheckOutputs(options.workload, runner.states(),
                                         *stream);
  Totals all = warm_up;
  all.Merge(untraced.totals);
  all.Merge(traced.totals);
  report.attempted = all.requests;
  report.failed = all.errors + check.failed;
  for (const std::string& p : check.problems) report.notes.push_back(p);

  // The load each workload is meant to put on the system.
  const double miss_share = Ratio(static_cast<double>(all.llm_misses),
                                 static_cast<double>(all.requests));
  if (options.workload == "warm_tail" &&
      (untraced.round_trips.round_trips + traced.round_trips.round_trips !=
           0 ||
       all.llm_misses != 0)) {
    report.correct = false;
    report.notes.push_back("check failed: warm_tail made LLM round trips");
  }
  if (options.workload == "served_mixed" &&
      !(miss_share > 0.0 && miss_share < 1.0)) {
    report.correct = false;
    report.notes.push_back(
        Format("check failed: served_mixed miss share %.4f not in (0, 1)",
               miss_share));
  }
  if (report.attempted == 0 || report.failed != 0) report.correct = false;

  // Stream composition, recorded with every run.
  const double lookups = static_cast<double>(all.table_lookups);
  const double hits = static_cast<double>(all.table_hits);
  const double sub_hits = static_cast<double>(all.table_subsumption_hits);
  report.notes.push_back(Format(
      "stream: %lld requests, %zu distinct SQL texts, LLM-miss share %.4f "
      "(requests that paid at least one prompt)",
      static_cast<long long>(all.requests), stream->DistinctCount(),
      miss_share));
  report.notes.push_back(Format(
      "stream: table-cache lookups served %.4f exact, %.4f by subsumption",
      Ratio(hits - sub_hits, lookups), Ratio(sub_hits, lookups)));
  report.notes.push_back(Format(
      "stream: %lld materialisations inserted, %lld evicted (capacity %zu "
      "per cache)",
      static_cast<long long>(untraced.counters.cache_insertions +
                             traced.counters.cache_insertions),
      static_cast<long long>(untraced.counters.cache_evictions +
                             traced.counters.cache_evictions),
      kCacheEntries));
  const TailLatency tail =
      Tail(untraced.latency_ms, kTailPercentile);
  report.notes.push_back(Format(
      "latency: %lld samples; latency_tail_ms is the mean from p%g "
      "(%.4f ms) up, over %lld samples beyond it",
      static_cast<long long>(tail.samples), tail.percentile, tail.value,
      static_cast<long long>(tail.beyond)));
  if (!options.trace && !tail.enough) {
    report.notes.push_back(Format(
        "latency: WARNING: fewer than %lld samples beyond p%g; the tail "
        "figure rests on too few samples",
        static_cast<long long>(kTailMinBeyond), tail.percentile));
  }
  report.notes.push_back(Format(
      "setup_s: median of %zu batch means over %d set-ups (batch means "
      "%.6f s to %.6f s)",
      setup_s.size(), setups, setup_s.front(), setup_s.back()));
  if (served) {
    const TailLatency open_tail = Tail(untraced.open_latency_ms, 99.0);
    report.notes.push_back(Format(
        "open loop: offered %.1f q/s, timed from due time: p50 %.4f ms, "
        "p%g %.4f ms over %lld samples; generator lag mean %.4f ms",
        kOfferedQps, Quantile(untraced.open_latency_ms, 0.5),
        open_tail.percentile, open_tail.value,
        static_cast<long long>(open_tail.samples),
        untraced.generator_lag_ms));
  }

  if (!options.trace) {
    report.metrics = {
        {"setup_s", Quantile(setup_s, 0.5), "s"},
        {"latency_p50_ms", Quantile(untraced.latency_ms, 0.5), "ms"},
        {"latency_tail_ms", tail.mean, "ms"},
        {"throughput_qps", untraced.throughput_qps, "1/s"},
        {"cell_accuracy", Ratio(check.cells_matched, check.cells_total),
         "ratio"},
        {"peak_rss_mb", peak_rss_mb, "MiB"},
    };
    return report;
  }

  // Per-layer metrics, from the traced window.
  const Totals& t = traced.totals;
  const double n = static_cast<double>(t.requests);
  const SpanBreakdown split = BreakDown(traced);
  const ProbeTimes probes = ProbeLayers(traced, *stream, &tracer);
  const double net_overhead_ms = served ? Ratio(t.net_overhead_ms, n) : 0.0;
  const double prompts = static_cast<double>(t.prompts);
  const double cache_hits = static_cast<double>(t.prompt_cache_hits);
  const double t_lookups = static_cast<double>(t.table_lookups);
  const double t_hits = static_cast<double>(t.table_hits);
  const double p50_untraced = Quantile(untraced.latency_ms, 0.5);
  const double p50_traced = Quantile(traced.latency_ms, 0.5);
  const LayerCounters& c = traced.counters;
  const double round_trips =
      static_cast<double>(traced.round_trips.round_trips);
  report.metrics = {
      {"prompts_per_query", Ratio(prompts, n), "count"},
      {"round_trips_per_query", Ratio(round_trips, n), "count"},
      {"tokens_per_query", Ratio(static_cast<double>(t.tokens), n), "count"},
      {"error_rate",
       Ratio(static_cast<double>(report.failed),
             static_cast<double>(report.attempted)),
       "ratio"},
      {"llm.round_trips", round_trips, "count"},
      {"llm.prompts_per_round_trip",
       Ratio(static_cast<double>(traced.round_trips.prompts), round_trips),
       "count"},
      {"llm.wait_ms", split.wait_ms, "ms"},
      {"llm.wait_share", split.wait_share, "ratio"},
      {"llm.inflight_mean", split.inflight_mean, "count"},
      {"llm.prompt_cache_hit_ratio", Ratio(cache_hits, cache_hits + prompts),
       "ratio"},
      {"core.cpu_ms", split.cpu_ms, "ms"},
      {"core.table_cache_hit_ratio", Ratio(t_hits, t_lookups), "ratio"},
      {"core.subsumption_hit_share",
       Ratio(static_cast<double>(t.table_subsumption_hits), t_hits), "ratio"},
      {"core.table_cache_evictions", static_cast<double>(c.cache_evictions),
       "count"},
      {"core.scan_overfetch_ratio",
       Ratio(static_cast<double>(t.pages_overfetched),
             static_cast<double>(t.pages_prefetched)),
       "ratio"},
      {"sql.parse_us", probes.parse_us, "us"},
      {"planner.plan_us", probes.plan_us, "us"},
      {"engine.exec_ms", probes.exec_ms, "ms"},
      {"store.appends_per_query",
       Ratio(static_cast<double>(c.store_appends), n), "count"},
      {"store.append_bytes_per_query",
       Ratio(static_cast<double>(c.store_append_bytes), n), "bytes"},
      {"store.vacuums", static_cast<double>(c.store_vacuums), "count"},
      {"store.live_bytes_ratio", Ratio(live_bytes, file_bytes), "ratio"},
      {"store.recovery_ms", recovery_ms, "ms"},
      {"net.overhead_ms", net_overhead_ms, "ms"},
      {"net.response_bytes", Ratio(static_cast<double>(t.response_bytes), n),
       "bytes"},
      {"net.queued_mean", traced.queued_mean, "count"},
      {"net.rejected", static_cast<double>(traced.rejected), "count"},
      {"cluster.shards_per_query",
       Ratio(static_cast<double>(c.cluster_shards),
             static_cast<double>(c.cluster_queries)),
       "count"},
      {"cluster.redispatches", static_cast<double>(c.cluster_redispatches),
       "count"},
      {"cluster.local_share",
       Ratio(static_cast<double>(c.cluster_queries_local),
             static_cast<double>(c.cluster_queries + c.cluster_queries_local)),
       "ratio"},
      {"bench.generator_lag_ms", traced.generator_lag_ms, "ms"},
      {"bench.trace_overhead_pct",
       100.0 * Ratio(p50_traced - p50_untraced, p50_untraced), "%"},
  };

  // Per-layer self time and span counts of the traced window.
  for (const auto& [name, layer] : SelfTimeByName(tracer.spans())) {
    report.notes.push_back(Format(
        "span %-15s count %8lld  self %10.3f ms total, %.4f ms per query",
        name.c_str(), static_cast<long long>(layer.count), layer.self_ms,
        Ratio(layer.self_ms, n)));
  }
  std::filesystem::create_directories(options.work_dir + "/traces", ec);
  const std::string trace_path = options.work_dir + "/traces/" +
                                 options.workload + "-seed" +
                                 std::to_string(options.seed) + ".jsonl";
  if (tracer.WriteJsonLines(trace_path)) {
    report.notes.push_back("spans written to " + trace_path);
  }
  return report;
}

}  // namespace perfbench
