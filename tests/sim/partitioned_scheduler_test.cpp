// PartitionedScheduler unit tests plus differential checks of the
// partitioned kernel against the sequential one: the window protocol is
// supposed to be invisible — same events, same statistics, same metrics —
// so every test here compares a partitioned run against its sequential
// twin or pins the declared configuration errors.
#include "sim/partitioned_scheduler.h"

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "../support/pair_network.h"
#include "../support/test_nodes.h"
#include "core/mot_network.h"
#include "mesh/mesh_network.h"
#include "mesh/mesh_topology.h"
#include "noc/network.h"
#include "noc/partition.h"
#include "noc/sink.h"
#include "noc/source.h"
#include "stats/metrics.h"
#include "stats/recorder.h"
#include "traffic/benchmark.h"
#include "traffic/driver.h"
#include "util/error.h"

namespace specnoc {
namespace {

using namespace specnoc::literals;
using specnoc::noc::PartitionStrategy;

TEST(PartitionedSchedulerTest, WindowsCoverAllLanesAndSumEvents) {
  sim::Scheduler lane0;
  sim::PartitionedScheduler ps(lane0, 3, 100);
  EXPECT_EQ(ps.lanes(), 3u);
  EXPECT_EQ(ps.lookahead(), 100);

  int ran = 0;
  ps.lane(0).schedule_at(10, [&] { ++ran; });
  ps.lane(1).schedule_at(40, [&] { ++ran; });
  ps.lane(2).schedule_at(250, [&] { ++ran; });
  ps.run();
  EXPECT_EQ(ran, 3);
  EXPECT_EQ(ps.executed(), 3u);
  EXPECT_EQ(ps.pending(), 0u);
  // Window 1 starts at the global minimum (10) and spans the lookahead, so
  // it covers both the t=10 and t=40 events; the t=250 event needs its own.
  EXPECT_EQ(ps.windows(), 2u);
}

TEST(PartitionedSchedulerTest, RunUntilAdvancesEveryLaneClock) {
  sim::Scheduler lane0;
  sim::PartitionedScheduler ps(lane0, 2, 50);
  ps.lane(1).schedule_at(30, [] {});
  ps.run_until(500);
  EXPECT_EQ(ps.lane(0).now(), 500);
  EXPECT_EQ(ps.lane(1).now(), 500);
  EXPECT_EQ(ps.now(), 500);
}

/// What the mail handler saw of one piece of mail.
struct AppliedMail {
  std::uint32_t key = 0;
  int tag = 0;
  std::uint32_t worker = 0;
};

void post_tagged(sim::PartitionedScheduler& ps, std::vector<AppliedMail>& log,
                 std::uint32_t producer, std::uint32_t key, int tag) {
  sim::Mail mail;
  mail.target = &log;
  mail.time = ps.lane(producer).now();
  mail.key = key;
  std::memcpy(mail.payload.data(), &tag, sizeof(tag));
  ps.post(producer, 2, mail);
}

TEST(PartitionedSchedulerTest, MailAppliesInKeyOrderOnTheConsumerWorker) {
  for (const std::uint32_t workers : {1u, 2u, 3u}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    sim::Scheduler lane0;
    sim::PartitionedScheduler ps(lane0, 3, 100);
    ps.set_threads(workers);
    std::vector<AppliedMail> log;
    ps.set_mail_handler([](const sim::Mail& mail) {
      AppliedMail applied;
      applied.key = mail.key;
      std::memcpy(&applied.tag, mail.payload.data(), sizeof(applied.tag));
      applied.worker = sim::current_worker();
      static_cast<std::vector<AppliedMail>*>(mail.target)->push_back(applied);
    });
    // Two producer lanes post to consumer lane 2 in reverse key order;
    // lane 1 posts key 2 twice.
    ps.lane(0).schedule_at(10, [&] {
      post_tagged(ps, log, 0, 9, 1);
      post_tagged(ps, log, 0, 4, 2);
    });
    ps.lane(1).schedule_at(20, [&] {
      post_tagged(ps, log, 1, 7, 3);
      post_tagged(ps, log, 1, 2, 4);
      post_tagged(ps, log, 1, 2, 5);
    });
    ps.run();
    // Lane 2 closes the last contiguous lane block, so the last worker
    // owns it at every worker count.
    const std::uint32_t owner = workers - 1;
    ASSERT_EQ(log.size(), 5u);
    const std::uint32_t keys[] = {2, 2, 4, 7, 9};
    const int tags[] = {4, 5, 2, 3, 1};
    for (std::size_t i = 0; i < log.size(); ++i) {
      EXPECT_EQ(log[i].key, keys[i]) << i;
      EXPECT_EQ(log[i].tag, tags[i]) << i;
      EXPECT_EQ(log[i].worker, owner) << i;
    }
  }
}

TEST(PartitionedSchedulerTest, MailPostedBeforeARunIsAppliedFirst) {
  // Posted from outside any window (routed for one worker), the mail must
  // still become an event before the run's first window is chosen.
  sim::Scheduler lane0;
  sim::PartitionedScheduler ps(lane0, 3, 100);
  ps.set_threads(2);
  ps.set_mail_handler([](const sim::Mail& mail) {
    static_cast<sim::PartitionedScheduler*>(mail.target)
        ->lane(2)
        .schedule_at(mail.time, [] {});
  });
  sim::Mail mail;
  mail.target = &ps;
  mail.time = 50;
  ps.post(0, 2, mail);
  ps.run();
  EXPECT_EQ(ps.executed(), 1u);
  EXPECT_EQ(ps.windows(), 1u);
}

TEST(PartitionedSchedulerTest, ThreadCountClampsToAtLeastOne) {
  sim::Scheduler lane0;
  sim::PartitionedScheduler ps(lane0, 2, 50);
  ps.set_threads(0);
  EXPECT_EQ(ps.threads(), 1u);
  ps.set_threads(8);
  EXPECT_EQ(ps.threads(), 8u);
}

/// Which OS thread and worker index executed each lane's events.
struct LaneExecutors {
  std::vector<std::thread::id> thread;
  std::vector<std::uint32_t> worker;
};

LaneExecutors run_one_event_per_lane(std::uint32_t lanes,
                                     std::uint32_t threads) {
  sim::Scheduler lane0;
  sim::PartitionedScheduler ps(lane0, lanes, 100);
  ps.set_threads(threads);
  LaneExecutors seen;
  seen.thread.resize(lanes);
  seen.worker.resize(lanes, ~0u);
  for (std::uint32_t lane = 0; lane < lanes; ++lane) {
    // Spread over several windows, so every window re-runs the same block.
    ps.lane(lane).schedule_at(10 + 150 * lane, [&seen, lane] {
      seen.thread[lane] = std::this_thread::get_id();
      seen.worker[lane] = sim::current_worker();
    });
  }
  ps.run();
  EXPECT_EQ(ps.executed(), lanes);
  EXPECT_EQ(ps.windows(), lanes);
  return seen;
}

TEST(PartitionedSchedulerTest, OneWorkerRunsEveryLaneOnTheCallingThread) {
  sim::set_current_worker(3);  // the worker loop resets it to worker 0
  const LaneExecutors seen = run_one_event_per_lane(4, 1);
  for (std::uint32_t lane = 0; lane < 4; ++lane) {
    EXPECT_EQ(seen.thread[lane], std::this_thread::get_id()) << lane;
    EXPECT_EQ(seen.worker[lane], 0u) << lane;
  }
  EXPECT_EQ(sim::current_worker(), 0u);
}

TEST(PartitionedSchedulerTest, WorkersRunContiguousLaneBlocks) {
  // Two workers over four lanes: worker 0 (the calling thread) owns lanes
  // 0-1, worker 1 (one spawned thread) owns lanes 2-3.
  const LaneExecutors seen = run_one_event_per_lane(4, 2);
  EXPECT_EQ(seen.thread[0], std::this_thread::get_id());
  EXPECT_EQ(seen.thread[1], std::this_thread::get_id());
  EXPECT_NE(seen.thread[2], std::this_thread::get_id());
  EXPECT_EQ(seen.thread[3], seen.thread[2]);
  EXPECT_EQ(seen.worker, (std::vector<std::uint32_t>{0, 0, 1, 1}));
}

TEST(PartitionedNetworkTest, SingleLaneEnableIsANoOp) {
  noc::Network net;
  net.enable_partitions(1, 0);  // degenerate: must not throw, no partitions
  EXPECT_FALSE(net.partitioned());
  EXPECT_EQ(net.partitions(), 1u);
}

TEST(PartitionedNetworkTest, ZeroLookaheadIsAConfigError) {
  noc::Network net;
  EXPECT_THROW(net.enable_partitions(2, 0), ConfigError);
}

TEST(PartitionedNetworkTest, MoreLanesThanChannelsStoreIsAConfigError) {
  // A channel keeps its halves' lanes in 13 bits.
  noc::Network net;
  EXPECT_THROW(net.enable_partitions(noc::Channel::kMaxLanes + 1, 50),
               ConfigError);
  EXPECT_FALSE(net.partitioned());
}

TEST(PartitionedNetworkTest, CrossChannelDeliversEndToEnd) {
  noc::Network net;
  net.enable_partitions(2, 50);
  const auto pair = testing::build_pair(
      net, {.delay_fwd = 60, .delay_ack = 60, .length = 0},
      noc::ChannelClass::kOther, 0, 7, 20, 1);
  ASSERT_TRUE(net.partitioned());
  ASSERT_TRUE(pair.channel.cross_partition());

  const noc::Message& msg =
      net.packets().create_message(0, noc::DestSet::single(7), 0, true);
  const noc::Packet& pkt =
      net.packets().create_packet(msg, noc::DestSet::single(7), 3);
  pair.source.enqueue_packet(pkt);
  net.run();
  EXPECT_EQ(pair.sink.flits_consumed(), 3u);
}

TEST(PartitionedNetworkTest, MotZeroWireDelayFallsBackToSequential) {
  core::NetworkConfig cfg;
  cfg.sim_threads = 4;
  cfg.layout.wire_delay_ps_per_um = 0.0;  // lookahead would be zero
  core::MotNetwork net(core::Architecture::kOptHybridSpeculative, cfg);
  EXPECT_FALSE(net.net().partitioned());
  EXPECT_EQ(net.net().partitions(), 1u);
}

TEST(PartitionedNetworkTest, MotPartitionStrategiesMapTreesToLanes) {
  core::NetworkConfig cfg;
  cfg.sim_threads = 2;
  core::MotNetwork tree(core::Architecture::kBaseline, cfg);
  EXPECT_EQ(tree.net().partitions(), 8u);  // auto = per-tree on MoT

  cfg.partition = PartitionStrategy::kQuadrant;
  core::MotNetwork quad(core::Architecture::kBaseline, cfg);
  EXPECT_EQ(quad.net().partitions(), 4u);

  cfg.partition = PartitionStrategy::kNone;
  core::MotNetwork none(core::Architecture::kBaseline, cfg);
  EXPECT_FALSE(none.net().partitioned());
}

TEST(PartitionedNetworkTest, MismatchedStrategiesAreConfigErrors) {
  core::NetworkConfig mot_cfg;
  mot_cfg.sim_threads = 2;
  mot_cfg.partition = PartitionStrategy::kRows;
  EXPECT_THROW(
      core::MotNetwork(core::Architecture::kBaseline, mot_cfg), ConfigError);

  mesh::MeshConfig mesh_cfg;
  mesh_cfg.sim_threads = 2;
  mesh_cfg.partition = PartitionStrategy::kTree;
  EXPECT_THROW(mesh::MeshNetwork{mesh_cfg}, ConfigError);
  mesh_cfg.partition = PartitionStrategy::kQuadrant;
  EXPECT_THROW(mesh::MeshNetwork{mesh_cfg}, ConfigError);
}

TEST(PartitionedNetworkTest, StrategyParsingReportsValidNames) {
  for (const PartitionStrategy s :
       {PartitionStrategy::kAuto, PartitionStrategy::kNone,
        PartitionStrategy::kTree, PartitionStrategy::kQuadrant,
        PartitionStrategy::kRows}) {
    EXPECT_EQ(noc::partition_strategy_from_string(noc::to_string(s)), s);
  }
  try {
    noc::partition_strategy_from_string("bogus");
    FAIL() << "expected ConfigError";
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("valid strategies"),
              std::string::npos);
    EXPECT_NE(std::string(e.what()).find("bogus"), std::string::npos);
  }
}

// ---------------------------------------------------------------------------
// Differential fuzz: a partitioned run must equal its sequential twin in
// every simulation-visible statistic, metrics snapshot included.

struct RunResult {
  std::uint64_t executed = 0;
  std::uint64_t generated = 0;
  std::uint64_t injected = 0;
  std::uint64_t ejected = 0;
  std::uint64_t completed = 0;
  std::uint64_t pending = 0;
  TimePs max_latency = 0;
  double mean_latency = 0.0;
  stats::MetricsSnapshot metrics;
};

/// Drives `net` to `horizon` in one run_until call or, when
/// `second_workers` is set, in two: half the horizon at the network's
/// worker count, the rest at `second_workers`.
template <typename Net>
RunResult drive(Net& net, traffic::BenchmarkId bench, std::uint64_t seed,
                TimePs horizon, unsigned second_workers = 0) {
  stats::TrafficRecorder rec(net.net().packets());
  net.net().hooks().traffic = &rec;
  stats::MetricsRegistry registry;
  net.net().hooks().metrics = &registry;
  auto pattern = traffic::make_benchmark(bench, net.endpoints());
  traffic::DriverConfig dcfg;
  dcfg.mode = traffic::InjectionMode::kBacklogged;
  dcfg.seed = seed;
  traffic::TrafficDriver driver(net, *pattern, dcfg);
  driver.set_measured(true);
  rec.open_window(0);
  driver.start();
  if (second_workers != 0) {
    net.net().run_until(horizon / 2);
    net.net().set_worker_threads(second_workers);
  }
  net.net().run_until(horizon);
  rec.close_window(net.net().now());
  if (sim::PartitionedScheduler* ps = net.net().partitioned_scheduler()) {
    stats::PdesMetrics pdes;
    pdes.lanes = ps->lanes();
    pdes.lookahead_ps = ps->lookahead();
    pdes.windows = ps->windows();
    pdes.lane_events = ps->per_lane_executed();
    pdes.lane_idle_windows = ps->per_lane_idle_windows();
    registry.record_pdes(std::move(pdes));
  }

  RunResult r;
  r.executed = net.net().executed();
  r.generated = driver.messages_generated();
  r.injected = rec.window_flits_injected();
  r.ejected = rec.window_flits_ejected();
  r.completed = rec.completed_measured();
  r.pending = rec.pending_measured();
  r.max_latency = rec.max_latency_ps();
  r.mean_latency = rec.mean_latency_ps();
  r.metrics = registry.snapshot();
  return r;
}

void expect_equal_runs(const RunResult& seq, const RunResult& par) {
  EXPECT_EQ(seq.executed, par.executed);
  EXPECT_EQ(seq.generated, par.generated);
  EXPECT_EQ(seq.injected, par.injected);
  EXPECT_EQ(seq.ejected, par.ejected);
  EXPECT_EQ(seq.completed, par.completed);
  EXPECT_EQ(seq.pending, par.pending);
  EXPECT_EQ(seq.max_latency, par.max_latency);
  EXPECT_EQ(seq.mean_latency, par.mean_latency);
  // Sites and channel classes must match entry-for-entry; the pdes section
  // is the one legitimate difference (absent on the sequential run).
  ASSERT_EQ(seq.metrics.sites.size(), par.metrics.sites.size());
  for (std::size_t i = 0; i < seq.metrics.sites.size(); ++i) {
    const auto& a = seq.metrics.sites[i];
    const auto& b = par.metrics.sites[i];
    EXPECT_EQ(a.kind, b.kind);
    EXPECT_EQ(a.level, b.level);
    EXPECT_EQ(a.counters.kills, b.counters.kills);
    EXPECT_EQ(a.counters.prealloc_hits, b.counters.prealloc_hits);
    EXPECT_EQ(a.counters.prealloc_misses, b.counters.prealloc_misses);
    EXPECT_EQ(a.counters.contended_grants, b.counters.contended_grants);
    EXPECT_EQ(a.counters.watchdog_releases, b.counters.watchdog_releases);
  }
  ASSERT_EQ(seq.metrics.channels.size(), par.metrics.channels.size());
  for (std::size_t i = 0; i < seq.metrics.channels.size(); ++i) {
    const auto& a = seq.metrics.channels[i];
    const auto& b = par.metrics.channels[i];
    EXPECT_EQ(a.klass, b.klass);
    EXPECT_EQ(a.stalls, b.stalls) << a.klass;
    EXPECT_EQ(a.stall_time_ps, b.stall_time_ps) << a.klass;
    EXPECT_EQ(a.histogram, b.histogram) << a.klass;
  }
}

struct MotCase {
  core::Architecture arch;
  traffic::BenchmarkId bench;
  PartitionStrategy strategy;
  std::uint32_t n;
  std::uint64_t seed;
};

// Configurations whose traffic produces no same-picosecond cross-partition
// ties: the partitioned kernel must reproduce the sequential kernel
// byte-for-byte (the golden 8x8 thread matrix in kernel_determinism_test
// pins the headline instance of this property).
TEST(PartitionedDifferentialTest, MotTieFreeConfigsMatchSequential) {
  const MotCase cases[] = {
      {core::Architecture::kOptHybridSpeculative,
       traffic::BenchmarkId::kUniformRandom, PartitionStrategy::kTree, 8, 11},
      {core::Architecture::kBasicHybridSpeculative,
       traffic::BenchmarkId::kShuffle, PartitionStrategy::kTree, 4, 17},
      {core::Architecture::kBaseline, traffic::BenchmarkId::kUniformRandom,
       PartitionStrategy::kQuadrant, 8, 13},
  };
  for (const MotCase& c : cases) {
    SCOPED_TRACE(std::string(to_string(c.arch)) + "/" + to_string(c.bench) +
                 "/" + noc::to_string(c.strategy) + "/n" +
                 std::to_string(c.n) + "/s" + std::to_string(c.seed));
    core::NetworkConfig cfg;
    cfg.n = c.n;
    core::MotNetwork seq_net(c.arch, cfg);
    const RunResult seq = drive(seq_net, c.bench, c.seed, 400_ns);

    cfg.sim_threads = 4;
    cfg.partition = c.strategy;
    core::MotNetwork par_net(c.arch, cfg);
    ASSERT_TRUE(par_net.net().partitioned());
    const RunResult par = drive(par_net, c.bench, c.seed, 400_ns);
    expect_equal_runs(seq, par);
    EXPECT_FALSE(par.metrics.pdes.empty());
    EXPECT_EQ(par.metrics.pdes.lanes, par_net.net().partitions());
  }
}

/// Worker counts of one invariance run: a single run_until call at
/// `first` workers or, when `second` is set, half the horizon at `first`
/// and the rest at `second` — mail routing by consumer worker is rebuilt
/// between the two calls. 3 workers split every lane count used here into
/// uneven blocks.
struct WorkerPlan {
  unsigned first = 1;
  unsigned second = 0;
};

/// Runs the network `make()` builds under every worker plan and expects
/// each run to equal its 1-worker twin of the same shape (one call, or the
/// same two-call split) in every statistic and in the window schedule.
template <typename MakeNet>
void expect_worker_count_invariant(MakeNet make, traffic::BenchmarkId bench,
                                   std::uint64_t seed) {
  const auto run = [&](WorkerPlan plan) {
    auto net = make();
    EXPECT_TRUE(net->net().partitioned());
    net->net().set_worker_threads(plan.first);
    return drive(*net, bench, seed, 400_ns, plan.second);
  };
  const RunResult whole = run({1, 0});
  const RunResult split = run({1, 1});
  for (const WorkerPlan plan : {WorkerPlan{2, 0}, WorkerPlan{3, 0},
                                WorkerPlan{4, 0}, WorkerPlan{2, 4}}) {
    SCOPED_TRACE("workers=" + std::to_string(plan.first) +
                 (plan.second != 0 ? "->" + std::to_string(plan.second)
                                   : std::string()));
    const RunResult& reference = plan.second != 0 ? split : whole;
    const RunResult result = run(plan);
    expect_equal_runs(reference, result);
    EXPECT_EQ(reference.metrics.pdes.windows, result.metrics.pdes.windows);
    EXPECT_EQ(reference.metrics.pdes.lane_events,
              result.metrics.pdes.lane_events);
    EXPECT_EQ(reference.metrics.pdes.lane_idle_windows,
              result.metrics.pdes.lane_idle_windows);
  }
}

// The determinism contract proper: a partitioned run is a pure function of
// (topology, partition strategy) — the worker-thread count never changes
// any statistic, metrics snapshot included. Exercised on tie-heavy
// multicast workloads, where cross-partition ties make the canonical merge
// order deliberately diverge from the historical sequential interleaving
// (DESIGN.md §9) but must stay byte-identical across worker counts.
TEST(PartitionedDifferentialTest, MotWorkerCountNeverChangesResults) {
  const MotCase cases[] = {
      {core::Architecture::kBaseline, traffic::BenchmarkId::kMulticast5,
       PartitionStrategy::kQuadrant, 8, 13},
      {core::Architecture::kOptNonSpeculative,
       traffic::BenchmarkId::kHotspot, PartitionStrategy::kQuadrant, 16, 19},
      {core::Architecture::kOptAllSpeculative,
       traffic::BenchmarkId::kMulticast10, PartitionStrategy::kTree, 8, 23},
      {core::Architecture::kOptHybridSpeculative,
       traffic::BenchmarkId::kMulticastStatic, PartitionStrategy::kTree, 8,
       29},
  };
  for (const MotCase& c : cases) {
    SCOPED_TRACE(std::string(to_string(c.arch)) + "/" + to_string(c.bench) +
                 "/" + noc::to_string(c.strategy) + "/n" +
                 std::to_string(c.n) + "/s" + std::to_string(c.seed));
    core::NetworkConfig cfg;
    cfg.n = c.n;
    cfg.partition = c.strategy;
    cfg.sim_threads = 2;
    expect_worker_count_invariant(
        [&] { return std::make_unique<core::MotNetwork>(c.arch, cfg); },
        c.bench, c.seed);
  }
}

TEST(PartitionedDifferentialTest, MeshRowBandsAreWorkerCountInvariant) {
  for (const auto mode :
       {mesh::MulticastMode::kTree, mesh::MulticastMode::kSerial}) {
    SCOPED_TRACE(static_cast<int>(mode));
    mesh::MeshConfig cfg;
    cfg.multicast = mode;
    cfg.speculative_routers = mesh::MeshNetwork::checkerboard_speculation(
        mesh::MeshTopology(cfg.cols, cfg.rows));
    cfg.sim_threads = 2;  // auto = row bands
    expect_worker_count_invariant(
        [&] {
          auto net = std::make_unique<mesh::MeshNetwork>(cfg);
          EXPECT_EQ(net->net().partitions(), cfg.rows);
          return net;
        },
        traffic::BenchmarkId::kMulticast5, 29);
  }
}

}  // namespace
}  // namespace specnoc
