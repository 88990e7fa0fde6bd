// The whole-stack benchmark binary: one workload per process.
//
//   perfbench --workload <log-leased|log-failover|multihop|fuzz-soak>
//             --seed <n> --seconds <s> --trace <0|1> [--trace-out <file>]
//
// It drives the library only through public calls (log::ReplicatedLog,
// mac::Network::run, verify::*, harness::*, fuzz::run_soak), checks every
// output, and reads per-layer counts from the public stats structs after
// each call. Each workload repeats its unit of work ("rep") until --seconds
// have passed. Throughput comes from the fastest time of each piece of work
// over the reps (see fastest()), set-up time from the median rep.
// Virtual-tick figures come from the first rep; every later rep must
// reproduce them exactly (the simulator is deterministic).
//
// Output: a human-readable table, then one machine line per metric
//   @metric <name> <unit> <value>
// and a closing
//   @result <attempted> <failed>
// which perfbench/run.py turns into the benchmark's JSON result line.
//
// --trace 1 alternates traced and untraced reps. The traced reps record
// spans around the calls into each layer (trace.hpp), write them as Chrome
// trace-event JSON to --trace-out, and the run prints per-span self time
// and the tracing overhead (traced vs untraced rep wall). Without tracing
// the same reps run with the recorder off.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "fuzz/fuzzer.hpp"
#include "fuzz/scenario.hpp"
#include "harness/experiment.hpp"
#include "log/kv_state_machine.hpp"
#include "log/replicated_log.hpp"
#include "log/workload.hpp"
#include "mac/engine.hpp"
#include "mac/schedulers.hpp"
#include "net/graph.hpp"
#include "net/topologies.hpp"
#include "trace.hpp"
#include "util/hash.hpp"
#include "util/parse.hpp"
#include "util/rng.hpp"
#include "verify/checker.hpp"

namespace {

using namespace amac;
using perfbench::Span;
using perfbench::Tracer;
using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

/// Nearest-rank percentile, the rule bench_log_service uses for ticks.
template <typename T>
T percentile(std::vector<T> v, double p) {
  if (v.empty()) return T{};
  std::sort(v.begin(), v.end());
  return v[static_cast<std::size_t>(p * static_cast<double>(v.size() - 1))];
}

/// The fastest of a set of repetitions of bit-identical work. Every rep of
/// a workload does the same simulated work (checked by the rep signature),
/// so rep-to-rep variation is the machine's alone, and interference only
/// ever adds time: the fastest rep is the steadiest estimate of what the
/// code costs. (On the shared 4-core VM the benchmark was built on, the
/// median rep drifted by +-12% between runs a minute apart; the fastest
/// rep by +-2%.)
double fastest(const std::vector<double>& v) {
  return v.empty() ? 0 : *std::min_element(v.begin(), v.end());
}

template <typename T>
double mean(const std::vector<T>& v) {
  if (v.empty()) return 0;
  double sum = 0;
  for (const T& x : v) sum += static_cast<double>(x);
  return sum / static_cast<double>(v.size());
}

double ratio(double num, double den) { return den == 0 ? 0 : num / den; }

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t salt) {
  return util::hash_combine(seed, salt);
}

/// Every figure one run reports; perfbench/run.py picks the ones
/// BENCHMARK.json lists for the requested --trace mode.
class Report {
 public:
  void set(const std::string& name, double value, const std::string& unit) {
    if (metrics_.find(name) == metrics_.end()) order_.push_back(name);
    metrics_[name] = {value, unit};
  }
  void fail(std::size_t failed_ops, const std::string& why) {
    failed_ += failed_ops;
    problems_.push_back(why);
  }
  void attempt(std::size_t ops) { attempted_ += ops; }

  void print(const std::string& workload) const {
    std::printf("\n%-34s %18s  %s\n", ("[" + workload + "]").c_str(), "value",
                "unit");
    for (const std::string& name : order_) {
      const auto& [value, unit] = metrics_.at(name);
      std::printf("%-34s %18.6g  %s\n", name.c_str(), value, unit.c_str());
    }
    for (const std::string& p : problems_) std::printf("FAIL %s\n", p.c_str());
    for (const std::string& name : order_) {
      const auto& [value, unit] = metrics_.at(name);
      std::printf("@metric %s %s %.17g\n", name.c_str(), unit.c_str(), value);
    }
    std::printf("@result %zu %zu\n", attempted_, failed_);
  }

  [[nodiscard]] bool ok() const { return problems_.empty(); }
  [[nodiscard]] std::size_t attempted() const { return attempted_; }
  [[nodiscard]] std::size_t failed() const { return failed_; }

 private:
  std::map<std::string, std::pair<double, std::string>> metrics_;
  std::vector<std::string> order_;
  std::vector<std::string> problems_;
  std::size_t attempted_ = 0;
  std::size_t failed_ = 0;
};

/// Runs reps until `seconds` have passed (and at least `min_reps` ran).
/// With tracing on, even reps are traced and odd reps are not, so the two
/// halves give the tracing overhead on identical work.
struct RepLoop {
  double seconds;
  std::size_t min_reps;
  Tracer& tracer;
  bool trace;

  std::vector<double> traced_wall;
  std::vector<double> untraced_wall;

  template <typename F>
  void run(F&& rep) {
    const auto start = Clock::now();
    std::size_t k = 0;
    while (k < min_reps || seconds_between(start, Clock::now()) < seconds) {
      const bool traced = trace && k % 2 == 0;
      tracer.set_enabled(traced);
      tracer.set_request(k);
      const auto t0 = Clock::now();
      rep(k);
      const double wall = seconds_between(t0, Clock::now());
      (traced ? traced_wall : untraced_wall).push_back(wall);
      ++k;
    }
    tracer.set_enabled(false);
  }
};

struct EngineTotals {
  std::uint64_t events = 0;  ///< events queued (wheel + overflow pushes)
  std::uint64_t overflow = 0;
  std::uint64_t deliveries = 0;
  std::uint64_t acks = 0;
  std::uint64_t broadcasts = 0;
  std::uint64_t bytes = 0;
  std::size_t peak_events = 0;

  void add(const mac::EngineStats& s) {
    broadcasts += s.broadcasts;
    events += s.wheel_pushes + s.overflow_pushes;
    overflow += s.overflow_pushes;
    deliveries += s.deliveries;
    acks += s.acks;
    bytes += s.payload_bytes;
    peak_events = std::max(peak_events, s.peak_events);
  }

  /// The mac.* per-layer figures, per workload op, with the engine's
  /// deliveries per second over `engine_s` of engine-driving wall time.
  void report(Report& r, double ops, double engine_s) const {
    r.set("mac.events_per_op", ratio(static_cast<double>(events), ops),
          "count");
    r.set("mac.deliveries_per_op", ratio(static_cast<double>(deliveries), ops),
          "count");
    r.set("mac.bytes_per_op", ratio(static_cast<double>(bytes), ops), "B");
    r.set("mac.broadcasts_per_op", ratio(static_cast<double>(broadcasts), ops),
          "count");
    r.set("mac.acks_per_op", ratio(static_cast<double>(acks), ops), "count");
    // Useful events: deliveries handed to a live process, plus one ack per
    // broadcast (the ack event completes the broadcast whether or not the
    // instance is still live; EngineStats::acks counts only the live ones).
    r.set("mac.useful_event_share",
          ratio(static_cast<double>(deliveries + broadcasts),
                static_cast<double>(events)),
          "share");
    r.set("mac.overflow_share",
          ratio(static_cast<double>(overflow), static_cast<double>(events)),
          "share");
    r.set("mac.peak_events", static_cast<double>(peak_events), "count");
    r.set("mac.deliveries_per_s",
          ratio(static_cast<double>(deliveries), engine_s), "1/s");
  }
};

double peak_rss_mb() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

// Every workload reports every per-layer figure; a layer the workload does
// not run reports zero work.
void report_idle_log(Report& r) {
  for (const char* name :
       {"core.deliveries_per_slot.renewal", "core.deliveries_per_slot.leased",
        "core.deliveries_per_slot.recovered", "log.slots_per_op",
        "log.slots_recovered", "log.relaunches", "log.re_elections"}) {
    r.set(name, 0, "count");
  }
  for (const char* name : {"core.renewal_delivery_share",
                           "log.full_paxos_share", "log.kv_apply_share"}) {
    r.set(name, 0, "share");
  }
}

void report_idle_fuzz(Report& r) {
  r.set("fuzz.differential_time_share", 0, "share");
  r.set("fuzz.distinct_signatures", 0, "count");
}

// ---- log-leased / log-failover -------------------------------------------
//
// ReplicatedLog on a 16-node clique, SynchronousScheduler(1): every
// delivery and ack takes one tick (F_ack = 1). Batch 8, window 4, lease 64,
// a leader read every 2nd decided slot, and a seeded 1024-key stream of
// 100k client ops submitted up front (a closed backlog: the service has no
// API to take writes on a schedule). log-failover crashes the three
// highest-id nodes at fixed ticks spread over the crash-free makespan.

constexpr std::size_t kLogNodes = 16;
constexpr std::size_t kLogOps = 100000;
constexpr mac::Time kLogHorizon = mac::Time{1} << 40;
constexpr mac::Time kCrashTicks[] = {500, 1500, 2500};

log::LogConfig log_config(bool failover) {
  log::LogConfig config;
  config.batch_size = 8;
  config.window = 4;
  config.lease_slots = 64;
  config.read_every = 2;
  // High enough that recovery never gives up before the service completes:
  // a slower recovery must show as ticks, not as a failed run.
  config.max_recovery_rounds = 64;
  if (failover) {
    for (std::size_t i = 0; i < std::size(kCrashTicks); ++i) {
      config.crashes.push_back(
          {static_cast<NodeId>(kLogNodes - 1 - i), kCrashTicks[i]});
    }
  }
  return config;
}

/// Per-slot figures read back from the retired slot instances.
struct SlotLedger {
  std::uint64_t deliveries[3] = {0, 0, 0};  // renewal, leased, recovered
  std::size_t slots[3] = {0, 0, 0};
  std::vector<mac::Time> apply_tick;  ///< tick each slot's ops applied
};

/// Classifies every slot by how it decided and reconstructs apply ticks.
/// A slot's decide tick is its last live replica's decision tick (the log
/// observes all-decided after that event), and slot s applies once every
/// slot up to s has decided (the contiguous-prefix rule).
SlotLedger slot_ledger(const log::ReplicatedLog& service,
                       const log::LogConfig& config) {
  const mac::Network& net = service.network();
  const log::LogServiceStats& stats = service.stats();
  SlotLedger ledger;
  ledger.apply_tick.resize(stats.slots_total);
  mac::Time applied = 0;
  for (std::size_t s = 0; s < stats.slots_total; ++s) {
    const mac::InstanceId inst = service.slot_instance(s);
    const mac::InstanceStats& is = net.instance_stats(inst);
    // CommitFlood broadcasts at most once per node; any wPAXOS slot needs
    // far more. Relaunched slots and slow-path slots launched while the
    // lease was broken both count as "recovered".
    int kind = 2;
    if (stats.relaunched_at[s] == 0) {
      if (s % config.lease_slots == 0) {
        kind = 0;
      } else if (is.broadcasts <= net.node_count()) {
        kind = 1;
      }
    }
    ledger.deliveries[kind] += is.deliveries;
    ++ledger.slots[kind];
    mac::Time decided = 0;
    for (NodeId u = 0; u < net.node_count(); ++u) {
      const mac::Decision& d = net.decision(u, inst);
      if (d.decided) decided = std::max(decided, d.time);
    }
    applied = std::max(applied, decided);
    ledger.apply_tick[s] = applied;
  }
  return ledger;
}

void run_log(bool failover, std::uint64_t seed, RepLoop& loop, Tracer& tracer,
             Report& report) {
  const log::LogConfig config = log_config(failover);
  const log::Workload workload(derive_seed(seed, 0x106), kLogOps);

  std::vector<double> setup_s, build_s, drive_s, kv_s, check_s;
  std::uint64_t first_signature = 0;
  EngineTotals engine;

  loop.run([&](std::size_t rep) {
    Span rep_span(tracer, "rep", "bench");
    const auto t0 = Clock::now();
    std::optional<net::Graph> graph;
    {
      Span s(tracer, "net.make_clique", "net");
      graph.emplace(net::make_clique(kLogNodes));
    }
    const auto t1 = Clock::now();
    mac::SynchronousScheduler scheduler(1);
    std::optional<log::ReplicatedLog> service;
    {
      Span s(tracer, "log.construct", "log");
      service.emplace(*graph, scheduler, workload, config);
    }
    const auto t2 = Clock::now();
    {
      Span s(tracer, "log.drive", "log");
      service->drive(kLogHorizon);
    }
    const auto t3 = Clock::now();
    const log::LogServiceStats& stats = service->stats();

    std::vector<mac::InstanceId> slots(stats.slots_total);
    for (std::size_t i = 0; i < slots.size(); ++i) {
      slots[i] = service->slot_instance(i);
    }
    verify::LogPrefixVerdict prefix;
    {
      Span s(tracer, "verify.check_log_prefix", "verify");
      prefix = verify::check_log_prefix(service->network(), slots);
    }
    const auto t4 = Clock::now();
    // The applied stream replayed into a fresh state machine, timed from
    // outside: the KV apply cost drive() pays inline.
    log::KvStateMachine replay;
    {
      Span s(tracer, "log.kv_replay", "log");
      for (std::size_t i = 0; i < stats.ops_applied; ++i) {
        replay.apply(i, workload.op(i));
      }
    }
    const auto t5 = Clock::now();

    setup_s.push_back(seconds_between(t0, t2));
    build_s.push_back(seconds_between(t0, t1));
    drive_s.push_back(seconds_between(t2, t3));
    check_s.push_back(seconds_between(t3, t4));
    kv_s.push_back(seconds_between(t4, t5));

    // Correctness of this rep.
    std::vector<std::string> why;
    if (!stats.complete || stats.ops_applied != workload.size()) {
      why.push_back("service incomplete: " + std::to_string(stats.ops_applied) +
                    " of " + std::to_string(workload.size()) + " ops applied");
    }
    if (stats.oracle_failures != 0) {
      why.push_back(std::to_string(stats.oracle_failures) +
                    " per-slot oracle failures");
    }
    if (stats.reads_issued == 0 || stats.reads_served != stats.reads_issued) {
      why.push_back(std::to_string(stats.reads_served) + " of " +
                    std::to_string(stats.reads_issued) + " reads served");
    }
    if (!prefix.consistent || prefix.common_prefix != stats.slots_total) {
      why.push_back("check_log_prefix: " + prefix.detail + " (common prefix " +
                    std::to_string(prefix.common_prefix) + ")");
    }
    if (replay.digest() != service->state_machine().digest()) {
      why.push_back("KV replay digest differs from the service's");
    }

    // Everything virtual-time in this rep, folded: later reps must match.
    util::Hasher h;
    for (const mac::Time t : stats.decide_latency) h.mix_u64(t);
    for (const mac::Time t : stats.read_latency) h.mix_u64(t);
    h.mix_u64(stats.end_time);
    h.mix_u64(service->state_machine().digest());
    h.mix_u64(service->network().stats().deliveries);
    h.mix_u64(service->network().stats().wheel_pushes);
    const std::uint64_t signature = h.digest();
    if (rep == 0) {
      first_signature = signature;
    } else if (signature != first_signature) {
      why.push_back("rep " + std::to_string(rep) +
                    " is not tick-identical to rep 0");
    }

    report.attempt(workload.size() + stats.reads_issued);
    if (!why.empty()) {
      std::string all;
      for (const std::string& w : why) all += (all.empty() ? "" : "; ") + w;
      report.fail(workload.size() + stats.reads_issued, all);
    }
    if (rep != 0) return;

    // Tick metrics and per-layer counts, from the first rep.
    Span s(tracer, "bench.ledger", "bench");
    const SlotLedger ledger = slot_ledger(*service, config);
    const double ops = static_cast<double>(stats.ops_applied);
    report.set("makespan_ticks", static_cast<double>(stats.end_time), "ticks");
    report.set("latency_p50_ticks",
               static_cast<double>(percentile(stats.decide_latency, 0.50)),
               "ticks");
    report.set("latency_p99_ticks",
               static_cast<double>(percentile(stats.decide_latency, 0.99)),
               "ticks");
    report.set("latency_max_ticks",
               static_cast<double>(*std::max_element(
                   stats.decide_latency.begin(), stats.decide_latency.end())),
               "ticks");
    // The same figures under their service-specific names.
    report.set("decide_p50_ticks",
               static_cast<double>(percentile(stats.decide_latency, 0.50)),
               "ticks");
    report.set("decide_p99_ticks",
               static_cast<double>(percentile(stats.decide_latency, 0.99)),
               "ticks");
    report.set("read_p50_ticks",
               static_cast<double>(percentile(stats.read_latency, 0.50)),
               "ticks");
    report.set("read_p99_ticks",
               static_cast<double>(percentile(stats.read_latency, 0.99)),
               "ticks");
    if (failover) {
      // From each crash tick to the first op applied strictly after it.
      mac::Time worst = 0;
      for (const mac::CrashPlan& c : config.crashes) {
        const auto it = std::upper_bound(ledger.apply_tick.begin(),
                                         ledger.apply_tick.end(), c.when);
        if (it != ledger.apply_tick.end()) {
          worst = std::max(worst, *it - c.when);
        }
      }
      report.set("failover_ticks_max", static_cast<double>(worst), "ticks");
    }
    engine.add(service->network().stats());
    const char* kinds[3] = {"renewal", "leased", "recovered"};
    std::uint64_t slot_deliveries = 0;
    for (int k = 0; k < 3; ++k) {
      slot_deliveries += ledger.deliveries[k];
      report.set(std::string("core.deliveries_per_slot.") + kinds[k],
                 ratio(static_cast<double>(ledger.deliveries[k]),
                       static_cast<double>(ledger.slots[k])),
                 "count");
    }
    report.set("core.renewal_delivery_share",
               ratio(static_cast<double>(ledger.deliveries[0]),
                     static_cast<double>(slot_deliveries)),
               "share");
    if (ledger.slots[1] != stats.slots_leased) {
      report.fail(0, "slot ledger counted " + std::to_string(ledger.slots[1]) +
                         " leased slots, the service " +
                         std::to_string(stats.slots_leased));
    }
    // Slot instances are retired when they decide, so no process is left
    // to read protocol counters from: the log workloads report none.
    report.set("core.wpaxos.proposals", 0, "count");
    report.set("core.wpaxos.change_events", 0, "count");
    report.set("log.slots_per_op",
               ratio(static_cast<double>(stats.slots_total), ops), "count");
    report.set("log.full_paxos_share",
               ratio(static_cast<double>(stats.slots_full_paxos),
                     static_cast<double>(stats.slots_total)),
               "share");
    report.set("log.slots_recovered", static_cast<double>(stats.slots_recovered),
               "count");
    report.set("log.relaunches", static_cast<double>(stats.relaunches),
               "count");
    report.set("log.re_elections", static_cast<double>(stats.re_elections),
               "count");
  });

  const double ops = static_cast<double>(workload.size());
  engine.report(report, ops, fastest(drive_s));
  report.set("ops_per_s", ops / fastest(drive_s), "op/s");
  report.set("setup_s", median(setup_s), "s");
  report.set("net.build_s", median(build_s), "s");
  report.set("log.drive_s", fastest(drive_s), "s");
  report.set("log.kv_apply_s", fastest(kv_s), "s");
  report.set("log.kv_apply_share", fastest(kv_s) / fastest(drive_s), "share");
  report.set("verify.check_log_prefix_s", fastest(check_s), "s");
  report.set("verify.time_share",
             fastest(check_s) / (fastest(drive_s) + fastest(check_s)),
             "share");
  report_idle_fuzz(report);
}

// ---- multihop --------------------------------------------------------------
//
// One-shot wPAXOS on a 32x32 grid (n = 1024, D = 62) under
// UniformRandomScheduler with F_ack = 4. A fixed list of layouts gives each
// scenario multivalued inputs and permuted ids (the eventual leader, the max
// id, lands anywhere on the grid); --seed seeds every scenario's scheduler,
// i.e. the per-receiver delays. Reps cycle the list. The layouts are fixed
// because the leader's position alone moves a run's cost by up to 1.5x, and
// a few random layouts per run would make the figures depend on the seed.

constexpr std::size_t kGridSide = 32;
constexpr mac::Time kMultihopFack = 4;
constexpr std::size_t kMultihopScenarios = 4;
constexpr mac::Time kMultihopHorizon = 10'000'000;
// Network::run resumes where it stopped, so each run goes in slices of this
// many ticks (about 40 ms of wall time each). Every slice's fastest time
// over the reps is kept: one slow spell of the machine rarely covers the
// same slice in every rep.
constexpr mac::Time kMultihopSliceTicks = 25;

void run_multihop(std::uint64_t seed, RepLoop& loop, Tracer& tracer,
                  Report& report) {
  struct Scenario {
    std::uint64_t scheduler_seed;
    std::vector<mac::Value> inputs;
    std::vector<std::uint64_t> ids;
  };
  std::vector<Scenario> scenarios;
  const std::size_t n = kGridSide * kGridSide;
  loop.min_reps = std::max(loop.min_reps, kMultihopScenarios);  // one pass
  for (std::size_t i = 0; i < kMultihopScenarios; ++i) {
    Scenario sc;
    sc.scheduler_seed = derive_seed(seed, 0x3u + i);
    util::Rng rng(derive_seed(0x4D48, i));
    sc.inputs = harness::inputs_multivalued(n, static_cast<mac::Value>(n), rng);
    sc.ids = harness::permuted_ids(n, rng);
    scenarios.push_back(std::move(sc));
  }

  std::vector<double> setup_s, build_s;
  // Per scenario, the fastest time of each run slice and of the post-run
  // calls (oracle + protocol stats).
  std::vector<std::vector<double>> best_slice(kMultihopScenarios);
  std::vector<double> best_after(kMultihopScenarios, 1e300);
  std::vector<double> check_s;
  std::vector<std::uint64_t> first_signature(kMultihopScenarios, 0);
  std::vector<mac::Time> decide_ticks;  // every node, every scenario (pass 1)
  std::vector<double> end_ticks;
  EngineTotals engine;
  std::uint64_t proposals = 0, change_events = 0;
  std::uint32_t diameter = 0;

  loop.run([&](std::size_t rep) {
    Span rep_span(tracer, "rep", "bench");
    const std::size_t j = rep % kMultihopScenarios;
    const Scenario& sc = scenarios[j];
    const auto t0 = Clock::now();
    std::optional<net::Graph> graph;
    {
      Span s(tracer, "net.build", "net");
      graph.emplace(net::make_grid(kGridSide, kGridSide));
      diameter = graph->diameter();
    }
    const auto t1 = Clock::now();
    mac::UniformRandomScheduler scheduler(kMultihopFack, sc.scheduler_seed);
    std::optional<mac::Network> net;
    {
      Span s(tracer, "harness.construct", "harness");
      net.emplace(*graph, harness::wpaxos_factory(sc.inputs, sc.ids),
                  scheduler);
    }
    const auto t2 = Clock::now();
    mac::RunResult result;
    {
      Span s(tracer, "mac.run", "mac");
      auto slice_start = t2;
      for (std::size_t k = 0;; ++k) {
        const mac::Time until = std::min<mac::Time>(
            (k + 1) * kMultihopSliceTicks, kMultihopHorizon);
        result = net->run(mac::StopWhen::kAllDecided, until);
        const auto now = Clock::now();
        if (best_slice[j].size() <= k) best_slice[j].push_back(1e300);
        best_slice[j][k] =
            std::min(best_slice[j][k], seconds_between(slice_start, now));
        slice_start = now;
        if (result.condition_met || until == kMultihopHorizon) break;
      }
    }
    const auto t3 = Clock::now();
    verify::ConsensusVerdict verdict;
    {
      Span s(tracer, "verify.check_consensus", "verify");
      verdict = verify::check_consensus(*net, sc.inputs);
    }
    const auto t4 = Clock::now();
    mac::ProtocolStats protocol;
    {
      Span s(tracer, "harness.collect_protocol_stats", "harness");
      protocol = harness::collect_protocol_stats(*net);
    }
    const auto t5 = Clock::now();

    build_s.push_back(seconds_between(t0, t1));
    setup_s.push_back(seconds_between(t0, t2));
    best_after[j] = std::min(best_after[j], seconds_between(t3, t5));
    check_s.push_back(seconds_between(t3, t4));

    report.attempt(1);
    std::string why;
    if (!result.condition_met) why = "horizon hit before every node decided; ";
    if (!verdict.ok()) why += "verdict " + verdict.summary() + "; ";
    util::Hasher h;
    for (NodeId u = 0; u < n; ++u) {
      h.mix_u64(net->decision(u).time);
      h.mix_i64(net->decision(u).value);
    }
    h.mix_u64(result.end_time);
    h.mix_u64(net->stats().deliveries);
    h.mix_u64(protocol.proposals);
    const std::uint64_t signature = h.digest();
    if (rep < kMultihopScenarios) {
      first_signature[j] = signature;
      for (NodeId u = 0; u < n; ++u) {
        decide_ticks.push_back(net->decision(u).time);
      }
      end_ticks.push_back(static_cast<double>(result.end_time));
      engine.add(net->stats());
      proposals += protocol.proposals;
      change_events += protocol.change_events;
    } else if (signature != first_signature[j]) {
      why += "not tick-identical to its first run; ";
    }
    if (!why.empty()) {
      report.fail(1, "multihop scenario " + std::to_string(j) + ": " + why);
    }
  });

  double engine_s = 0, op_total = 0;
  for (std::size_t j = 0; j < kMultihopScenarios; ++j) {
    for (const double t : best_slice[j]) engine_s += t;
    op_total += best_after[j];
  }
  op_total += engine_s;
  const double runs = static_cast<double>(kMultihopScenarios);
  const double makespan = mean(end_ticks);
  report.set("ops_per_s", runs / op_total, "op/s");
  report.set("runs_per_s", runs / op_total, "op/s");
  report.set("makespan_ticks", makespan, "ticks");
  report.set("latency_p50_ticks",
             static_cast<double>(percentile(decide_ticks, 0.50)), "ticks");
  report.set("latency_p99_ticks",
             static_cast<double>(percentile(decide_ticks, 0.99)), "ticks");
  report.set("latency_max_ticks",
             *std::max_element(end_ticks.begin(), end_ticks.end()), "ticks");
  report.set("decide_ticks_per_dfack",
             makespan / static_cast<double>(diameter * kMultihopFack), "ratio");
  report.set("setup_s", median(setup_s), "s");
  engine.report(report, runs, engine_s);
  report_idle_log(report);
  report.set("core.wpaxos.proposals", static_cast<double>(proposals) / runs,
             "count");
  report.set("core.wpaxos.change_events",
             static_cast<double>(change_events) / runs, "count");
  report.set("net.build_s", median(build_s), "s");
  report.set("mac.run_s", engine_s / runs, "s");
  report.set("verify.check_consensus_s", fastest(check_s), "s");
  report.set("verify.time_share",
             fastest(check_s) / (engine_s / runs + fastest(check_s)), "share");
  report_idle_fuzz(report);
}

// ---- fuzz-soak -------------------------------------------------------------
//
// fuzz::run_soak, one thread, over the fixed seed range 1..2000: all six
// algorithms across topologies, schedulers and crash plans, every 7th
// scenario replayed on the frozen reference engine, and the log-service
// family off. Mutation stays off: the mutation engine has no switch that
// keeps the log-service family out, so mutants would run the log anyway.
// The range is fixed, not drawn from --seed, because one scenario in a few
// hundred costs 100x the median: 2000-scenario windows at different offsets
// differ by up to 1.7x in scenarios/s.

constexpr std::size_t kSoakScenarios = 2000;
constexpr std::size_t kSoakSetupScenarios = 64;

void run_fuzz(RepLoop& loop, Tracer& tracer, Report& report) {
  fuzz::SoakOptions options;
  options.seed_base = 1;
  options.count = kSoakScenarios;
  options.jobs = 1;
  options.differential_every = 7;
  options.mutate_ratio = 0;
  options.log_every = 0;

  std::vector<double> setup_s, soak_s;
  std::vector<double> scenario_us;            // every scenario, every rep
  // Each scenario's fastest time over the reps. One scenario is short
  // (median ~60 us), so the sum of these mends the machine's slow spells,
  // which can cover a whole rep but rarely the same scenario in every rep.
  std::vector<double> best_s(kSoakScenarios, 1e300);
  double differential_s = 0, scenario_total_s = 0;
  std::vector<mac::Time> end_ticks;          // first rep, decided scenarios
  EngineTotals engine;
  std::uint64_t proposals = 0, change_events = 0;
  std::uint64_t first_digest = 0;
  std::size_t distinct = 0;

  loop.run([&](std::size_t rep) {
    Span rep_span(tracer, "rep", "bench");
    // Set-up: materialize the range's first scenarios (graph, scheduler,
    // process factory) — the per-scenario build the soak repeats inside.
    const auto t0 = Clock::now();
    {
      Span s(tracer, "fuzz.build_scenarios", "harness");
      for (std::size_t i = 0; i < kSoakSetupScenarios; ++i) {
        (void)fuzz::build_scenario(
            fuzz::generate_scenario(options.seed_base + i));
      }
    }
    const auto t1 = Clock::now();
    auto last = Clock::now();
    fuzz::SoakOptions o = options;
    o.on_scenario = [&](std::size_t index, const fuzz::Scenario&,
                        const fuzz::RunReport& r) {
      const auto now = Clock::now();
      const double s = seconds_between(last, now);
      tracer.add(r.differential_ran ? "fuzz.scenario+differential"
                                    : "fuzz.scenario",
                 "fuzz", last, now);
      last = now;
      scenario_us.push_back(s * 1e6);
      if (index < best_s.size()) best_s[index] = std::min(best_s[index], s);
      scenario_total_s += s;
      if (r.differential_ran) differential_s += s;
      if (rep == 0) {
        engine.add(r.stats);
        proposals += r.protocol.proposals;
        change_events += r.protocol.change_events;
        if (r.condition_met) end_ticks.push_back(r.end_time);
      }
    };
    fuzz::SoakResult result;
    const auto t2 = Clock::now();
    {
      Span s(tracer, "fuzz.run_soak", "fuzz");
      last = Clock::now();
      result = fuzz::run_soak(o);
    }
    const auto t3 = Clock::now();
    setup_s.push_back(seconds_between(t0, t1));
    soak_s.push_back(seconds_between(t2, t3));

    report.attempt(result.runs);
    if (result.runs != options.count) {
      report.fail(options.count - std::min(result.runs, options.count),
                  "soak ran " + std::to_string(result.runs) + " of " +
                      std::to_string(options.count) + " scenarios");
    }
    if (!result.failures.empty()) {
      report.fail(result.failures.size(),
                  std::to_string(result.failures.size()) +
                      " soak violations, first: " +
                      fuzz::format_spec(result.failures.front().scenario));
    }
    if (rep == 0) {
      first_digest = result.corpus_digest;
      distinct = result.coverage.distinct;
    } else if (result.corpus_digest != first_digest) {
      report.fail(result.runs, "soak corpus digest differs from rep 0");
    }
  });

  const double scenarios = static_cast<double>(kSoakScenarios);
  const double makespan = mean(end_ticks);
  double best_total = 0;
  for (const double s : best_s) best_total += s;
  report.set("ops_per_s", scenarios / best_total, "op/s");
  report.set("scenarios_per_s", scenarios / best_total, "op/s");
  report.set("fuzz.soak_s", fastest(soak_s), "s");
  report.set("makespan_ticks", makespan, "ticks");
  report.set("latency_p50_ticks",
             static_cast<double>(percentile(end_ticks, 0.50)), "ticks");
  report.set("latency_p99_ticks",
             static_cast<double>(percentile(end_ticks, 0.99)), "ticks");
  report.set("latency_max_ticks",
             static_cast<double>(
                 *std::max_element(end_ticks.begin(), end_ticks.end())),
             "ticks");
  report.set("setup_s", median(setup_s), "s");
  engine.report(report, scenarios, best_total);
  report_idle_log(report);
  report.set("core.wpaxos.proposals", static_cast<double>(proposals) / scenarios,
             "count");
  report.set("core.wpaxos.change_events",
             static_cast<double>(change_events) / scenarios, "count");
  report.set("net.build_s", median(setup_s), "s");
  report.set("verify.time_share", 0, "share");
  report.set("fuzz.scenario_p50_us", percentile(scenario_us, 0.50), "us");
  report.set("fuzz.scenario_p99_us", percentile(scenario_us, 0.99), "us");
  report.set("fuzz.differential_time_share",
             ratio(differential_s, scenario_total_s), "share");
  report.set("fuzz.distinct_signatures", static_cast<double>(distinct),
             "count");
}

// ---- main ------------------------------------------------------------------

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload "
               "<log-leased|log-failover|multihop|fuzz-soak>\n"
               "                 --seed <n> --seconds <s> --trace <0|1> "
               "[--trace-out <file>]\n");
  return 2;
}

void print_trace_summary(const Tracer& tracer, const RepLoop& loop) {
  std::printf("\n%-32s %-8s %8s %12s %12s\n", "span", "layer", "count",
              "total_s", "self_s");
  for (const Tracer::SelfTime& s : tracer.self_times()) {
    std::printf("%-32s %-8s %8zu %12.6f %12.6f\n", s.name.c_str(),
                s.layer.c_str(), s.count, s.total_s, s.self_s);
  }
  const double traced = median(loop.traced_wall);
  const double untraced = median(loop.untraced_wall);
  std::printf(
      "tracing overhead: median rep %.6f s traced vs %.6f s untraced "
      "(%+.2f%%, %zu vs %zu reps)\n",
      traced, untraced, untraced > 0 ? 100.0 * (traced / untraced - 1) : 0.0,
      loop.traced_wall.size(), loop.untraced_wall.size());
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::optional<std::uint64_t> seed;
  std::optional<std::uint64_t> seconds;
  std::optional<std::uint64_t> trace;
  std::string trace_out;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (i + 1 >= argc) return usage();
    const char* value = argv[++i];
    if (arg == "--workload") {
      workload = value;
    } else if (arg == "--seed") {
      seed = util::parse_u64(value);
    } else if (arg == "--seconds") {
      seconds = util::parse_u64(value);
    } else if (arg == "--trace") {
      trace = util::parse_u64(value);
    } else if (arg == "--trace-out") {
      trace_out = value;
    } else {
      return usage();
    }
  }
  if (!seed || !seconds || *seconds == 0 || !trace || *trace > 1) {
    return usage();
  }

  Tracer tracer;
  RepLoop loop{static_cast<double>(*seconds), 3, tracer, *trace == 1, {}, {}};
  Report report;
  if (workload == "log-leased" || workload == "log-failover") {
    run_log(workload == "log-failover", *seed, loop, tracer, report);
  } else if (workload == "multihop") {
    run_multihop(*seed, loop, tracer, report);
  } else if (workload == "fuzz-soak") {
    run_fuzz(loop, tracer, report);
  } else {
    return usage();
  }
  report.set("peak_rss_mb", peak_rss_mb(), "MB");
  report.set("failed_share",
             ratio(static_cast<double>(report.failed()),
                   static_cast<double>(report.attempted())),
             "share");
  report.set("reps", static_cast<double>(loop.traced_wall.size() +
                                         loop.untraced_wall.size()),
             "count");

  if (*trace == 1) {
    print_trace_summary(tracer, loop);
    if (!trace_out.empty()) {
      if (tracer.write_chrome_json(trace_out)) {
        std::printf("trace: %zu spans written to %s\n",
                    tracer.records().size(), trace_out.c_str());
      } else {
        report.fail(0, "cannot write trace file " + trace_out);
      }
    }
  }
  report.print(workload);
  return report.ok() ? 0 : 1;
}
