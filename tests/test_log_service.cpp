// The replicated log (src/log): slotted consensus instances + deterministic
// state machine = one linearized op stream, however the slots were batched,
// leased, pipelined, recovered, or re-elected.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>

#include "log/replicated_log.hpp"
#include "mac/schedulers.hpp"
#include "net/topologies.hpp"
#include "verify/checker.hpp"

namespace amac::log {

/// Builds the relay-everywhere service (every CommitFlood follower
/// re-floods), the reference the pruned flood is A/B'd against.
struct ReplicatedLogTestPeer {
  static std::unique_ptr<ReplicatedLog> relay_everywhere(
      const net::Graph& graph, mac::Scheduler& scheduler,
      const Workload& workload, LogConfig config) {
    return std::unique_ptr<ReplicatedLog>(new ReplicatedLog(
        graph, scheduler, workload, std::move(config),
        /*prune_relays=*/false));
  }
};

namespace {

constexpr std::uint64_t kSeed = 0xFEED5EED;

/// Nearest-rank percentile over a copy (the bench uses the same rule).
mac::Time percentile(std::vector<mac::Time> v, double p) {
  EXPECT_FALSE(v.empty());
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(p * static_cast<double>(v.size()));
  return v[std::min(rank, v.size() - 1)];
}

LogServiceStats drive_service(const net::Graph& graph,
                              const Workload& workload,
                              const LogConfig& config, KvStateMachine* kv,
                              mac::Time horizon = mac::Time{1} << 32) {
  mac::SynchronousScheduler sched(1);
  ReplicatedLog service(graph, sched, workload, config);
  LogServiceStats stats = service.drive(horizon);
  if (kv != nullptr) *kv = service.state_machine();
  return stats;
}

TEST(LogWorkload, IsDeterministicAndSeedSensitive) {
  const Workload a(kSeed, 100);
  const Workload b(kSeed, 100);
  const Workload c(kSeed + 1, 100);
  bool any_diff = false;
  for (std::size_t i = 0; i < 100; ++i) {
    EXPECT_EQ(a.op(i).key, b.op(i).key);
    EXPECT_EQ(a.op(i).value, b.op(i).value);
    any_diff |= a.op(i).key != c.op(i).key || a.op(i).value != c.op(i).value;
    EXPECT_LT(a.op(i).key, 1024u);  // default key space
  }
  EXPECT_TRUE(any_diff);
}

TEST(LogKvStateMachine, DigestPinsOpsAndOrder) {
  const Workload w(kSeed, 4);
  KvStateMachine in_order;
  for (std::size_t i = 0; i < 4; ++i) in_order.apply(i, w.op(i));

  KvStateMachine same;
  for (std::size_t i = 0; i < 4; ++i) same.apply(i, w.op(i));
  EXPECT_EQ(in_order.digest(), same.digest());
  EXPECT_EQ(in_order.applied(), 4u);

  // A different stream (same length) folds to a different digest.
  const Workload other(kSeed + 9, 4);
  KvStateMachine different;
  for (std::size_t i = 0; i < 4; ++i) different.apply(i, other.op(i));
  EXPECT_NE(in_order.digest(), different.digest());

  // Reads hit the table the ops built.
  EXPECT_EQ(in_order.get(w.op(3).key), w.op(3).value);
}

TEST(LogService, BatchedAndNaiveLinearizeIdentically) {
  const net::Graph graph = net::make_clique(8);
  const Workload workload(kSeed, 256);

  LogConfig batched;
  batched.batch_size = 8;
  batched.window = 4;
  batched.lease_slots = 8;
  KvStateMachine batched_kv;
  const auto bs = drive_service(graph, workload, batched, &batched_kv);
  EXPECT_TRUE(bs.complete);
  EXPECT_EQ(bs.oracle_failures, 0u);
  EXPECT_EQ(bs.ops_applied, 256u);
  EXPECT_EQ(bs.slots_total, 32u);
  EXPECT_EQ(bs.slots_full_paxos, 4u);   // slots 0, 8, 16, 24
  EXPECT_EQ(bs.slots_leased, 28u);
  EXPECT_EQ(bs.slots_recovered, 0u);

  LogConfig naive;
  naive.batch_size = 1;
  naive.window = 4;
  naive.lease_slots = 1;
  KvStateMachine naive_kv;
  const auto ns = drive_service(graph, workload, naive, &naive_kv);
  EXPECT_TRUE(ns.complete);
  EXPECT_EQ(ns.oracle_failures, 0u);
  EXPECT_EQ(ns.slots_total, 256u);
  EXPECT_EQ(ns.slots_leased, 0u);

  // THE service-level pin: identical client stream => identical state
  // machine, no matter how the log was slotted.
  EXPECT_EQ(batched_kv.digest(), naive_kv.digest());
  EXPECT_EQ(batched_kv.applied(), naive_kv.applied());

  // And the lease amortization is visible in virtual time too, not just
  // wall clock: fewer, cheaper slots must finish the same stream sooner.
  EXPECT_LT(bs.end_time, ns.end_time);
}

TEST(LogService, LeaseAmortizesBroadcastsPerOp) {
  const net::Graph graph = net::make_clique(8);
  const Workload workload(kSeed, 256);

  LogConfig leased;
  leased.batch_size = 1;  // isolate the lease: same slot count...
  leased.lease_slots = 64;
  const auto ls = drive_service(graph, workload, leased, nullptr);

  LogConfig unleased;
  unleased.batch_size = 1;  // ...vs full wPAXOS for every slot
  unleased.lease_slots = 1;
  const auto us = drive_service(graph, workload, unleased, nullptr);

  ASSERT_TRUE(ls.complete);
  ASSERT_TRUE(us.complete);
  // CommitFlood is one dissemination wave (on a clique, the leader's one
  // broadcast); wPAXOS's proposer/acceptor exchange is a multiple of that.
  EXPECT_LT(ls.broadcasts, us.broadcasts / 2);
  EXPECT_LT(ls.payload_bytes, us.payload_bytes);
}

TEST(LogService, PipeliningKeepsWindowSlotsInFlight) {
  const net::Graph graph = net::make_clique(6);
  const Workload workload(kSeed, 64);

  LogConfig wide;
  wide.batch_size = 4;
  wide.window = 4;
  wide.lease_slots = 4;
  const auto ws = drive_service(graph, workload, wide, nullptr);

  LogConfig serial = wide;
  serial.window = 1;
  const auto ss = drive_service(graph, workload, serial, nullptr);

  ASSERT_TRUE(ws.complete);
  ASSERT_TRUE(ss.complete);
  EXPECT_LT(ws.end_time, ss.end_time);  // overlap must buy virtual time
}

TEST(LogService, RecoversWhenLeaseHolderCrashes) {
  const std::size_t n = 8;
  const net::Graph graph = net::make_clique(n);
  const Workload workload(kSeed, 64);

  LogConfig config;
  config.batch_size = 4;
  config.window = 2;
  config.lease_slots = 16;
  // Node n-1 holds the lease (max-id Omega winner under identity ids).
  // Crash it early: every leased slot launched after the crash has no
  // originator, stalls the queue, and must be recovered onto the full
  // wPAXOS slow path.
  config.crashes.push_back(mac::CrashPlan{static_cast<NodeId>(n - 1), 3});
  KvStateMachine crashed_kv;
  const auto cs = drive_service(graph, workload, config, &crashed_kv);

  EXPECT_TRUE(cs.complete);
  EXPECT_EQ(cs.oracle_failures, 0u);
  EXPECT_EQ(cs.ops_applied, 64u);
  EXPECT_GT(cs.slots_recovered, 0u);

  // The crash changes the path every slot takes, not the decided log: a
  // crash-free naive service over the same stream applies the same ops.
  LogConfig clean;
  clean.batch_size = 1;
  clean.lease_slots = 1;
  KvStateMachine clean_kv;
  const auto qs = drive_service(graph, workload, clean, &clean_kv);
  ASSERT_TRUE(qs.complete);
  EXPECT_EQ(crashed_kv.digest(), clean_kv.digest());
}

TEST(LogService, ReElectsLeaderAfterCrashAndResumesFastPath) {
  const std::size_t n = 8;
  const net::Graph graph = net::make_clique(n);
  const Workload workload(kSeed, 64);

  LogConfig config;
  config.batch_size = 2;  // 32 slots, renewals at 0, 8, 16, 24
  config.window = 2;
  config.lease_slots = 8;
  config.crashes.push_back(mac::CrashPlan{static_cast<NodeId>(n - 1), 3});
  KvStateMachine crashed_kv;
  const auto cs = drive_service(graph, workload, config, &crashed_kv);

  EXPECT_TRUE(cs.complete);
  EXPECT_EQ(cs.oracle_failures, 0u);
  EXPECT_GT(cs.slots_recovered, 0u);

  // The renewal slot after the crash elects a LIVE node (the max-id
  // survivor, n-2, under identity ids) and the lease heals.
  EXPECT_GE(cs.re_elections, 1u);
  EXPECT_NE(cs.leader, static_cast<NodeId>(n - 1));
  EXPECT_EQ(cs.leader, static_cast<NodeId>(n - 2));
  EXPECT_TRUE(cs.lease_ok);

  // The fast path RESUMES under the new lease: most of the ~28 non-renewal
  // slots ride CommitFlood again. A terminal lease break would cap
  // slots_leased at the couple of pre-crash window launches.
  EXPECT_GE(cs.slots_leased, 10u);

  // Same decided log as a crash-free run, slot paths notwithstanding.
  LogConfig clean;
  clean.batch_size = 1;
  clean.lease_slots = 1;
  KvStateMachine clean_kv;
  const auto qs = drive_service(graph, workload, clean, &clean_kv);
  ASSERT_TRUE(qs.complete);
  EXPECT_EQ(crashed_kv.digest(), clean_kv.digest());
}

TEST(LogService, RecoveredSlotLatencyIncludesTheStall) {
  const std::size_t n = 8;
  const net::Graph graph = net::make_clique(n);
  const Workload workload(kSeed, 64);

  LogConfig config;
  config.batch_size = 4;
  config.window = 2;
  config.lease_slots = 16;
  LogConfig crashed = config;
  crashed.crashes.push_back(mac::CrashPlan{static_cast<NodeId>(n - 1), 3});

  const auto cs = drive_service(graph, workload, crashed, nullptr);
  const auto ns = drive_service(graph, workload, config, nullptr);
  ASSERT_TRUE(cs.complete);
  ASSERT_TRUE(ns.complete);
  ASSERT_GT(cs.slots_recovered, 0u);

  // Recovered slots carry a relaunch diagnostic, and their decide latency
  // is measured from the FIRST launch — so the crash run's p99 must
  // exceed the clean run's (the old code reset launched_at at relaunch,
  // hiding the entire stall from the latency distribution).
  bool any_relaunched = false;
  for (std::size_t slot = 0; slot < cs.slots_total; ++slot) {
    if (cs.relaunched_at[slot] == 0) continue;
    any_relaunched = true;
    EXPECT_GT(cs.decide_latency[slot],
              ns.decide_latency[slot]);  // stall included, same slot clean
  }
  EXPECT_TRUE(any_relaunched);
  EXPECT_GT(percentile(cs.decide_latency, 0.99),
            percentile(ns.decide_latency, 0.99));
}

TEST(LogService, MultiRoundRecoveryCountsEachSlotOnce) {
  // Crash a MAJORITY so even relaunched wPAXOS slots stall: recovery then
  // revisits the same in-flight slots every round. Each slot must be
  // counted in slots_recovered exactly once, and an already-full-paxos
  // slot is only relaunched when provably stalled (no traffic since the
  // previous round's look) — so relaunches stays well under
  // rounds * inflight.
  const std::size_t n = 4;
  const net::Graph graph = net::make_clique(n);
  const Workload workload(kSeed, 8);

  LogConfig config;
  config.batch_size = 4;  // 2 slots, both in the initial window
  config.window = 2;
  config.lease_slots = 16;
  config.max_recovery_rounds = 4;
  config.crashes.push_back(mac::CrashPlan{static_cast<NodeId>(n - 1), 0});
  config.crashes.push_back(mac::CrashPlan{static_cast<NodeId>(n - 2), 0});
  const auto stats = drive_service(graph, workload, config, nullptr);

  EXPECT_FALSE(stats.complete);  // no live majority: nothing can decide
  EXPECT_EQ(stats.slots_recovered, 2u);  // once per slot, NOT once per round
  EXPECT_GT(stats.relaunches, stats.slots_recovered);  // later rounds retried
  EXPECT_LT(stats.relaunches,
            config.max_recovery_rounds * 2u + 2u);  // but skipped live ones
}

TEST(LogService, AllNodesCrashedSettlesWithoutDecisions) {
  // Every node crashes before a delivery lands: the in-flight slots settle
  // (no undecided live node) with nothing decided. They are not decided
  // slots — no oracle verdict, nothing applied — so the run ends
  // incomplete, by quiescence rather than horizon, with zero failures.
  const std::size_t n = 3;
  const net::Graph graph = net::make_clique(n);
  const Workload workload(kSeed, 8);
  LogConfig config;
  config.batch_size = 2;  // 4 slots, 2 in flight
  config.window = 2;
  config.lease_slots = 1;  // a leased leader would decide in on_start
  for (NodeId u = 0; u < n; ++u) config.crashes.push_back(mac::CrashPlan{u, 0});
  const auto stats = drive_service(graph, workload, config, nullptr);
  EXPECT_FALSE(stats.complete);
  EXPECT_FALSE(stats.horizon_exhausted);
  EXPECT_EQ(stats.slots_decided, 0u);
  EXPECT_EQ(stats.ops_applied, 0u);
  EXPECT_EQ(stats.oracle_failures, 0u);
}

TEST(LogService, QuiescenceExactlyAtHorizonStillRecovers) {
  const std::size_t n = 8;
  const net::Graph graph = net::make_clique(n);
  const Workload workload(kSeed, 64);

  LogConfig config;
  config.batch_size = 4;
  config.window = 2;
  config.lease_slots = 16;
  config.crashes.push_back(mac::CrashPlan{static_cast<NodeId>(n - 1), 3});

  // Probe: with recovery disabled, the crashed-leader run drains its event
  // queue and stops at the stall's quiescence tick.
  LogConfig probe = config;
  probe.max_recovery_rounds = 0;
  const auto ps = drive_service(graph, workload, probe, nullptr);
  ASSERT_FALSE(ps.complete);
  ASSERT_EQ(ps.slots_recovered, 0u);
  const mac::Time stall_tick = ps.end_time;

  // Now set the horizon EXACTLY at that tick: the queue (not the budget)
  // is the binding constraint, so recovery must still fire — the old
  // `now >= horizon` check conflated the two and skipped it.
  const auto bs = drive_service(graph, workload, config, nullptr,
                                /*horizon=*/stall_tick);
  EXPECT_GT(bs.slots_recovered, 0u);
  // The relaunched instances' events then land beyond the budget, which
  // IS horizon exhaustion — reported as such, not as a silent give-up.
  EXPECT_FALSE(bs.complete);
  EXPECT_TRUE(bs.horizon_exhausted);

  // One tick of headroom short of the stall is genuine exhaustion: events
  // were still pending, and recovery must NOT fire.
  const auto es = drive_service(graph, workload, config, nullptr,
                                /*horizon=*/stall_tick - 1);
  EXPECT_EQ(es.slots_recovered, 0u);
  EXPECT_TRUE(es.horizon_exhausted);
}

TEST(LogService, LeaderReadsHonorTheReadIndexBound) {
  const net::Graph graph = net::make_clique(6);
  const Workload workload(kSeed, 64);

  LogConfig config;
  config.batch_size = 4;  // 16 slots
  config.window = 1;      // serial: decide order == slot order, so the
  config.lease_slots = 4;  // read stream below is exactly one per slot
  config.read_every = 1;
  mac::SynchronousScheduler sched(1);
  ReplicatedLog service(graph, sched, workload, config);
  const auto& stats = service.drive(mac::Time{1} << 32);

  ASSERT_TRUE(stats.complete);
  EXPECT_EQ(stats.reads_issued, 16u);
  EXPECT_EQ(stats.reads_served, 16u);
  EXPECT_EQ(stats.read_latency.size(), 16u);

  // Serial decides make the read stream deterministic: read i is issued at
  // slot i's decide, keyed by the slot's last written key, bound to slot
  // i — so its served value must equal the last write to that key within
  // the first (i+1) batches. Replay the prefix to check freshness exactly.
  const auto& reads = service.reads();
  ASSERT_EQ(reads.size(), 16u);
  KvStateMachine replay;
  std::size_t applied = 0;
  for (std::size_t i = 0; i < 16; ++i) {
    const auto [first, last] = service.batch_range(i);
    for (std::size_t j = first; j < last; ++j) replay.apply(j, workload.op(j));
    applied = last;
    const ReadRecord& r = reads[i];
    EXPECT_TRUE(r.served);
    EXPECT_EQ(r.bound, i + 1);
    EXPECT_EQ(r.key, workload.op(applied - 1).key);
    EXPECT_EQ(r.value, replay.get(r.key));
    EXPECT_GE(r.served_at, r.issued_at);
  }

  // Post-drive reads serve immediately from the final applied prefix.
  const std::size_t id = service.submit_read(workload.op(0).key);
  EXPECT_TRUE(service.reads()[id].served);
  EXPECT_EQ(service.reads()[id].value,
            service.state_machine().get(workload.op(0).key));
  EXPECT_EQ(service.reads()[id].bound, 16u);
}

TEST(LogService, HorizonExhaustionReportsIncomplete) {
  const net::Graph graph = net::make_clique(8);
  const Workload workload(kSeed, 512);
  LogConfig naive;
  naive.batch_size = 1;
  naive.lease_slots = 1;
  const auto stats =
      drive_service(graph, workload, naive, nullptr, /*horizon=*/20);
  EXPECT_FALSE(stats.complete);
  EXPECT_LT(stats.ops_applied, 512u);
  EXPECT_LE(stats.end_time, 21u);
}

/// A star whose hub is node n-1, the initial lease holder.
net::Graph star_with_hub_last(std::size_t n) {
  net::Graph g(n);
  for (NodeId u = 0; u + 1 < n; ++u) g.add_edge(u, static_cast<NodeId>(n - 1));
  return g;
}

/// Instance ids of every slot, for per-slot reads and check_log_prefix.
std::vector<mac::InstanceId> slot_instances(const ReplicatedLog& service) {
  std::vector<mac::InstanceId> ids(service.stats().slots_total);
  for (std::size_t s = 0; s < ids.size(); ++s) ids[s] = service.slot_instance(s);
  return ids;
}

TEST(LogRelayPruning, MultihopFloodStillReachesEveryNode) {
  struct Case {
    std::string name;
    net::Graph graph;
    std::size_t leased_broadcasts;  ///< per leased slot, 0 = not pinned
  };
  std::vector<Case> cases;
  cases.push_back({"line", net::make_line(9), 0});
  // Hub leader: its broadcast covers everyone, nobody relays.
  cases.push_back({"star-hub-leader", star_with_hub_last(9), 1});
  // Leaf leader (make_star's hub is node 0): only the hub relays.
  cases.push_back({"star-leaf-leader", net::make_star(9), 2});
  cases.push_back({"tree", net::make_binary_tree(15), 0});
  cases.push_back({"grid", net::make_grid(4, 4), 0});

  const Workload workload(kSeed, 256);
  LogConfig config;
  config.batch_size = 4;  // 64 slots: renewals at 0, 16, 32, 48
  config.window = 4;
  config.lease_slots = 16;
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    mac::SynchronousScheduler sched(1);
    ReplicatedLog pruned(c.graph, sched, workload, config);
    const LogServiceStats& ps = pruned.drive(mac::Time{1} << 32);
    ASSERT_TRUE(ps.complete);
    EXPECT_EQ(ps.oracle_failures, 0u);
    EXPECT_EQ(ps.slots_recovered, 0u);
    EXPECT_EQ(ps.slots_leased, 60u);

    // Every node decides every leased slot, without recovery's help.
    const mac::Network& net = pruned.network();
    for (std::size_t s = 0; s < ps.slots_total; ++s) {
      if (s % config.lease_slots == 0) continue;
      const mac::InstanceId inst = pruned.slot_instance(s);
      for (NodeId u = 0; u < c.graph.node_count(); ++u) {
        EXPECT_TRUE(net.decision(u, inst).decided) << "slot " << s << " node " << u;
      }
      if (c.leased_broadcasts != 0) {
        EXPECT_EQ(net.instance_stats(inst).broadcasts, c.leased_broadcasts)
            << "slot " << s;
      }
    }

    // Uniform delays: a relay copy never beats the copy it duplicates, so
    // the pruned service is tick-for-tick the relay-everywhere one.
    mac::SynchronousScheduler ref_sched(1);
    const auto everywhere = ReplicatedLogTestPeer::relay_everywhere(
        c.graph, ref_sched, workload, config);
    const LogServiceStats& es = everywhere->drive(mac::Time{1} << 32);
    ASSERT_TRUE(es.complete);
    EXPECT_EQ(pruned.state_machine().digest(),
              everywhere->state_machine().digest());
    EXPECT_EQ(ps.decide_latency, es.decide_latency);
    EXPECT_LE(ps.end_time, es.end_time);
    EXPECT_LE(ps.broadcasts, es.broadcasts);
    if (c.leased_broadcasts != 0) {
      EXPECT_LT(ps.broadcasts, es.broadcasts);
    }
  }
}

TEST(LogRelayPruning, LeaderCrashMidBroadcastRecoversOnClique) {
  // Random per-receiver delays make a crash land mid-broadcast: some
  // followers got the leader's value, the rest never will, and on a clique
  // nobody relays. The stalled slot must be recovered by carrying the
  // decided value into a forced wPAXOS relaunch.
  const std::size_t n = 8;
  const NodeId leader = static_cast<NodeId>(n - 1);
  const net::Graph graph = net::make_clique(n);
  const Workload workload(kSeed, 128);
  LogConfig config;
  config.batch_size = 2;  // 64 slots
  config.window = 4;
  config.lease_slots = 16;

  KvStateMachine clean_kv;
  {
    LogConfig clean = config;
    ASSERT_TRUE(drive_service(graph, workload, clean, &clean_kv).complete);
  }

  std::size_t partial_runs = 0;
  for (mac::Time crash_at = 1; crash_at <= 40; ++crash_at) {
    SCOPED_TRACE("crash_at=" + std::to_string(crash_at));
    LogConfig crashed = config;
    crashed.crashes.push_back(mac::CrashPlan{leader, crash_at});
    mac::UniformRandomScheduler sched(4, kSeed + crash_at);
    ReplicatedLog service(graph, sched, workload, crashed);
    const LogServiceStats& st = service.drive(mac::Time{1} << 32);
    ASSERT_TRUE(st.complete);
    EXPECT_EQ(st.oracle_failures, 0u);
    const verify::LogPrefixVerdict prefix =
        verify::check_log_prefix(service.network(), slot_instances(service));
    EXPECT_TRUE(prefix.consistent) << prefix.detail;
    EXPECT_EQ(prefix.common_prefix, st.slots_total);
    EXPECT_EQ(service.state_machine().digest(), clean_kv.digest());

    // A partial leased broadcast: the leader decided a leased value (only
    // CommitFlood slots carry values below the renewal encoding, and every
    // forced-wPAXOS slot launches after the leader is dead) while some but
    // not all followers did.
    const mac::Network& net = service.network();
    for (mac::InstanceId i = 0; i < net.instance_count(); ++i) {
      const mac::Decision& d = net.decision(leader, i);
      if (!d.decided ||
          d.value >= (mac::Value{1} << ReplicatedLog::kLeaderBits)) {
        continue;
      }
      std::size_t followers = 0;
      for (NodeId u = 0; u < leader; ++u) followers += net.decision(u, i).decided;
      if (followers > 0 && followers < n - 1) {
        EXPECT_GT(st.slots_recovered, 0u);
        ++partial_runs;
        break;
      }
    }
  }
  EXPECT_GT(partial_runs, 0u);  // the sweep did hit a mid-broadcast crash
}

TEST(LogRelayPruning, CliqueCountsAreExact) {
  // The log-leased shape (16-clique, batch 8, window 4, lease 64, one-tick
  // rounds) at 8192 ops: 1024 slots, 16 of them renewals. Counts are
  // deterministic, so they are gated exactly — one extra event per op, or
  // one relay per slot, fails here.
  const std::size_t n = 16;
  const net::Graph graph = net::make_clique(n);
  const Workload workload(kSeed, 8192);
  LogConfig config;
  config.batch_size = 8;
  config.window = 4;
  config.lease_slots = 64;
  mac::SynchronousScheduler sched(1);
  ReplicatedLog service(graph, sched, workload, config);
  const LogServiceStats& st = service.drive(mac::Time{1} << 32);
  ASSERT_TRUE(st.complete);
  ASSERT_EQ(st.slots_leased, 1008u);
  ASSERT_EQ(st.slots_full_paxos, 16u);

  const mac::Network& net = service.network();
  for (std::size_t s = 0; s < st.slots_total; ++s) {
    if (s % config.lease_slots == 0) continue;
    const mac::InstanceStats& is = net.instance_stats(service.slot_instance(s));
    EXPECT_EQ(is.broadcasts, 1u) << "slot " << s;
    EXPECT_EQ(is.deliveries, n - 1) << "slot " << s;
  }

  const mac::EngineStats& es = net.stats();
  const std::uint64_t events = es.wheel_pushes + es.overflow_pushes;
  // Every queued event is a broadcast's delivery or its ack: n per
  // broadcast on a clique, no relay copies and no crash events.
  EXPECT_EQ(events, es.broadcasts * n);
  // 1008 leased slots x 1 broadcast + 16 renewals x 112 wPAXOS broadcasts
  // (relay-everywhere leased slots cost 16 broadcasts each: 17920 total).
  EXPECT_EQ(es.broadcasts, 1008u + 16u * 112u);
  EXPECT_EQ(es.deliveries, es.broadcasts * (n - 1));
  EXPECT_EQ(events, 44800u);
  EXPECT_EQ(st.end_time, 280u);
}

TEST(LogService, BatchRangeCoversStreamWithRaggedTail) {
  const net::Graph graph = net::make_clique(4);
  const Workload workload(kSeed, 10);  // 10 ops, batch 4 => 4+4+2
  LogConfig config;
  config.batch_size = 4;
  mac::SynchronousScheduler sched(1);
  ReplicatedLog service(graph, sched, workload, config);
  EXPECT_EQ(service.batch_range(0), (std::pair<std::size_t, std::size_t>{0, 4}));
  EXPECT_EQ(service.batch_range(2), (std::pair<std::size_t, std::size_t>{8, 10}));
  const auto stats = service.drive(mac::Time{1} << 32);
  EXPECT_TRUE(stats.complete);
  EXPECT_EQ(stats.ops_applied, 10u);
  EXPECT_EQ(stats.slots_total, 3u);
}

}  // namespace
}  // namespace amac::log
