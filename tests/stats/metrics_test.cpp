#include "stats/metrics.h"

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "core/mot_network.h"
#include "core/registry.h"
#include "noc/channel.h"
#include "noc/node.h"
#include "sim/partitioned_scheduler.h"
#include "stats/experiment.h"
#include "stats/serialization.h"
#include "util/intern.h"
#include "util/json.h"

namespace specnoc::stats {
namespace {

using noc::DestSet;

using core::Architecture;
using noc::NodeKind;

TEST(StallBucketTest, Boundaries) {
  // Bucket b covers [100*2^b, 100*2^(b+1)) ps; bucket 0 also takes shorter
  // stalls and the last bucket is open-ended.
  EXPECT_EQ(stall_bucket(0), 0u);
  EXPECT_EQ(stall_bucket(199), 0u);
  EXPECT_EQ(stall_bucket(200), 1u);
  EXPECT_EQ(stall_bucket(399), 1u);
  EXPECT_EQ(stall_bucket(400), 2u);
  EXPECT_EQ(stall_bucket(6399), 5u);
  EXPECT_EQ(stall_bucket(6400), 6u);
  EXPECT_EQ(stall_bucket(12799), 6u);
  EXPECT_EQ(stall_bucket(12800), 7u);
  EXPECT_EQ(stall_bucket(1'000'000), 7u);
}

TEST(StallBucketTest, Labels) {
  EXPECT_EQ(stall_bucket_label(0), "<200ps");
  EXPECT_EQ(stall_bucket_label(1), "<400ps");
  EXPECT_EQ(stall_bucket_label(kNumStallBuckets - 2), "<12800ps");
  EXPECT_EQ(stall_bucket_label(kNumStallBuckets - 1), ">=12800ps");
}

/// The class a channel's name prefix implies: "src" source_if, "root->"
/// sink_if, "mid." middle, "fo" fanout, "fi" fanin, "ni" mesh_inject,
/// "r>ni" mesh_eject, "r"/"sr" mesh_hop, anything else other.
std::string class_by_name_prefix(std::string_view name) {
  const auto has_prefix = [name](std::string_view prefix) {
    return name.substr(0, prefix.size()) == prefix;
  };
  if (has_prefix("src")) return "source_if";
  if (has_prefix("root->")) return "sink_if";
  if (has_prefix("mid.")) return "middle";
  if (has_prefix("fo")) return "fanout";
  if (has_prefix("fi")) return "fanin";
  if (has_prefix("ni")) return "mesh_inject";
  if (has_prefix("r>ni")) return "mesh_eject";
  if (has_prefix("r") || has_prefix("sr")) return "mesh_hop";
  return "other";
}

TEST(ChannelClassTest, BuilderClassesAgreeWithDerivedNames) {
  // The builders pass every channel's class explicitly; it must be the
  // class its derived name's prefix implies, and every class a topology
  // has must occur.
  core::NetworkConfig cfg;
  cfg.n = 4;
  const std::pair<const char*, std::size_t> cases[] = {
      {"OptHybridSpeculative", 5}, {"MeshSpecCheckerboard", 3}};
  for (const auto& [arch, classes] : cases) {
    const auto network = core::ArchitectureRegistry::global().build(arch, cfg);
    std::set<std::string> seen;
    for (const noc::Channel* channel : network->net().channels()) {
      const std::string klass = noc::to_string(channel->klass());
      EXPECT_EQ(klass, class_by_name_prefix(channel->name()))
          << arch << " " << channel->name();
      seen.insert(klass);
    }
    EXPECT_EQ(seen.size(), classes) << arch;
    EXPECT_EQ(seen.count("other"), 0u) << arch;
  }
}

TEST(ChannelClassTest, EnumeratorsAreInNameOrder) {
  // Snapshots and telemetry epochs list classes in enumerator order and
  // promise name order; the declaration order is what keeps that true.
  const auto classes = noc::all_channel_classes();
  for (std::size_t i = 0; i < classes.size(); ++i) {
    EXPECT_EQ(static_cast<std::size_t>(classes[i]), i);
    if (i > 0) {
      EXPECT_LT(std::string(noc::to_string(classes[i - 1])),
                std::string(noc::to_string(classes[i])));
    }
  }
}

TEST(ChannelClassTest, ChannelIsClassifiedAtConstruction) {
  const noc::ChannelSpec middle_spec{{}, noc::ChannelClass::kMiddle};
  const noc::WireChannel middle(middle_spec);
  EXPECT_EQ(middle.klass(), noc::ChannelClass::kMiddle);
  const noc::ChannelSpec plain_spec{{}};
  const noc::WireChannel plain(plain_spec);
  EXPECT_EQ(plain.klass(), noc::ChannelClass::kOther);
  // Unwired channels are named by their class.
  EXPECT_EQ(middle.name(), "middle");
}

/// Congested multicast run on the 8x8 hybrid network with a registry
/// attached; returns its snapshot.
MetricsSnapshot hybrid_multicast_snapshot() {
  core::NetworkConfig cfg;
  core::MotNetwork net(Architecture::kOptHybridSpeculative, cfg);
  MetricsRegistry registry;
  net.net().hooks().metrics = &registry;
  // Dest sets confined to one half of every fanout tree: the speculative
  // level-0 broadcast sends a redundant copy toward the other half, which
  // must die at level 1. Many senders to the same two sinks also congest
  // the fanin trees, exercising stalls and contended grants.
  for (int round = 0; round < 4; ++round) {
    for (std::uint32_t s = 0; s < 8; ++s) {
      net.send_message(s, DestSet::single(0) | DestSet::single(1), false);
    }
  }
  net.scheduler().run();
  return registry.snapshot();
}

TEST(MetricsRegistryTest, CountsSpeculationEventsByKindAndLevel) {
  const MetricsSnapshot snap = hybrid_multicast_snapshot();
  ASSERT_FALSE(snap.empty());

  // The hybrid map at n=8 speculates only at level 0, so every redundant
  // copy dies at the opt non-speculative nodes of level 1.
  EXPECT_EQ(snap.kills_at_level(0), 0u);
  EXPECT_GT(snap.kills_at_level(1), 0u);
  EXPECT_EQ(snap.kills_at_level(2), 0u);
  const MetricsSite* site =
      snap.find_site(NodeKind::kFanoutOptNonSpeculative, 1);
  ASSERT_NE(site, nullptr);
  EXPECT_EQ(site->counters.kills, snap.total_kills());

  // Headers compute routes (misses); bodies ride the pre-allocation (hits).
  EXPECT_GT(snap.total_prealloc_misses(), 0u);
  EXPECT_GT(snap.total_prealloc_hits(), 0u);

  // 32 messages into two sinks: the fanin trees arbitrate under contention
  // and the tree channels backpressure.
  EXPECT_GT(snap.total_contended_grants(), 0u);
  EXPECT_GT(snap.total_stalls(), 0u);
  for (const auto& channel : snap.channels) {
    std::uint64_t bucketed = 0;
    for (const std::uint64_t count : channel.histogram) bucketed += count;
    EXPECT_EQ(bucketed, channel.stalls) << channel.klass;
  }
}

TEST(MetricsRegistryTest, SnapshotRoundTripsThroughJsonByteIdentically) {
  const MetricsSnapshot snap = hybrid_multicast_snapshot();
  const std::string first = util::json_write(to_json(snap));
  const MetricsSnapshot reparsed =
      metrics_snapshot_from_json(util::json_parse(first));
  const std::string second = util::json_write(to_json(reparsed));
  EXPECT_EQ(first, second);
  EXPECT_EQ(reparsed.total_kills(), snap.total_kills());
  EXPECT_EQ(reparsed.total_stalls(), snap.total_stalls());
}

TEST(MetricsBatchTest, CollectionChangesNoResult) {
  core::NetworkConfig cfg;
  const std::vector<SaturationSpec> specs = {
      {.arch = Architecture::kOptHybridSpeculative,
       .bench = traffic::BenchmarkId::kMulticast10,
       .seed = 0,
       .custom = {}},
      {.arch = Architecture::kBaseline,
       .bench = traffic::BenchmarkId::kUniformRandom,
       .seed = 0,
       .custom = {}},
  };

  BatchOptions plain;
  plain.jobs = 1;
  stats::ExperimentRunner without(cfg, 7);
  const auto bare = without.run_saturation_grid(specs, plain);

  BatchOptions collecting = plain;
  collecting.collect_metrics = true;
  stats::ExperimentRunner with(cfg, 7);
  const auto metered = with.run_saturation_grid(specs, collecting);

  ASSERT_EQ(bare.size(), metered.size());
  for (std::size_t i = 0; i < bare.size(); ++i) {
    ASSERT_TRUE(bare[i].run.ok);
    ASSERT_TRUE(metered[i].run.ok);
    EXPECT_FALSE(bare[i].metrics.has_value());
    ASSERT_TRUE(metered[i].metrics.has_value());
    EXPECT_FALSE(metered[i].metrics->empty());
    // The simulation outcome is identical with and without collection.
    EXPECT_EQ(util::json_write(to_json(bare[i].result)),
              util::json_write(to_json(metered[i].result)));
  }
}

TEST(MetricsBatchTest, SnapshotsIdenticalForAnyThreadCount) {
  core::NetworkConfig cfg;
  std::vector<SaturationSpec> specs;
  for (const auto arch :
       {Architecture::kBaseline, Architecture::kOptNonSpeculative,
        Architecture::kOptHybridSpeculative}) {
    specs.push_back({.arch = arch,
                     .bench = traffic::BenchmarkId::kMulticast5,
                     .seed = 0,
                     .custom = {}});
  }

  BatchOptions serial;
  serial.jobs = 1;
  serial.collect_metrics = true;
  stats::ExperimentRunner runner_serial(cfg, 11);
  const auto one = runner_serial.run_saturation_grid(specs, serial);

  BatchOptions threaded = serial;
  threaded.jobs = 4;
  stats::ExperimentRunner runner_threaded(cfg, 11);
  const auto four = runner_threaded.run_saturation_grid(specs, threaded);

  ASSERT_EQ(one.size(), four.size());
  for (std::size_t i = 0; i < one.size(); ++i) {
    ASSERT_TRUE(one[i].run.ok);
    ASSERT_TRUE(four[i].run.ok);
    EXPECT_EQ(util::json_write(to_json(one[i].result)),
              util::json_write(to_json(four[i].result)));
    ASSERT_TRUE(one[i].metrics.has_value());
    ASSERT_TRUE(four[i].metrics.has_value());
    EXPECT_EQ(util::json_write(to_json(*one[i].metrics)),
              util::json_write(to_json(*four[i].metrics)));
  }
}

/// A node that only carries a (kind, level) site, for feeding a registry
/// synthetic events.
class SiteNode final : public noc::Node {
 public:
  SiteNode(sim::Scheduler& scheduler, noc::SimHooks& hooks, NodeKind kind,
           std::int32_t level)
      : Node(scheduler, hooks, kind, 0, 0) {
    set_site({.tree = 0, .level = level, .index = 0});
  }
  void deliver(const noc::Flit&, std::uint32_t) override {}
  void on_output_ack(std::uint32_t) override {}
};

/// Synthetic hook traffic for the registry: nodes at several (kind, level)
/// sites, unlevelled ones included, and one channel of every class.
struct SyntheticNetwork {
  sim::Scheduler scheduler;
  noc::SimHooks hooks;
  std::vector<std::unique_ptr<SiteNode>> nodes;
  std::vector<std::unique_ptr<noc::WireChannel>> channels;

  SyntheticNetwork() {
    const std::pair<NodeKind, std::int32_t> sites[] = {
        {NodeKind::kSource, -1},
        {NodeKind::kFanoutOptSpeculative, 0},
        {NodeKind::kFanoutOptNonSpeculative, 1},
        {NodeKind::kFanoutOptNonSpeculative, 9},
        {NodeKind::kFanin, 2},
        {NodeKind::kMeshRouterSpec, -1},
    };
    for (const auto& [kind, level] : sites) {
      nodes.push_back(
          std::make_unique<SiteNode>(scheduler, hooks, kind, level));
    }
    for (const noc::ChannelClass klass : noc::all_channel_classes()) {
      channels.push_back(std::make_unique<noc::WireChannel>(
          util::intern(noc::ChannelSpec{{}, klass})));
    }
  }

  /// Worker `worker`'s fixed share of the event mix.
  void emit(noc::MetricsObserver& observer, std::uint32_t worker) const {
    const noc::Flit flit;
    for (std::uint32_t i = 0; i < 6000; ++i) {
      const noc::Node& node = *nodes[(i + worker) % nodes.size()];
      switch (i % 7) {
        case 0: observer.on_flit_killed(node, flit, i); break;
        case 1: observer.on_prealloc(node, true, i); break;
        case 2: observer.on_prealloc(node, false, i); break;
        case 3: observer.on_contended_grant(node, i); break;
        case 4: observer.on_watchdog_release(node, i); break;
        default: {
          const noc::Channel& channel =
              *channels[(i / 7 + worker) % channels.size()];
          const TimePs start = i;
          observer.on_channel_stall(channel, start,
                                    start + (i * 37 + worker) % 30000);
        }
      }
    }
  }
};

TEST(MetricsRegistryTest, ConcurrentWorkersMatchSingleThreadRun) {
  const SyntheticNetwork synthetic;
  constexpr std::uint32_t kWorkers = 4;

  MetricsRegistry serial;
  for (std::uint32_t w = 0; w < kWorkers; ++w) synthetic.emit(serial, w);

  MetricsRegistry concurrent;
  std::vector<std::thread> threads;
  for (std::uint32_t w = 0; w < kWorkers; ++w) {
    threads.emplace_back([&synthetic, &concurrent, w] {
      sim::set_current_worker(w);
      synthetic.emit(concurrent, w);
    });
  }
  for (std::thread& t : threads) t.join();

  const MetricsSnapshot snap = serial.snapshot();
  EXPECT_EQ(snap.sites.size(), synthetic.nodes.size());
  EXPECT_EQ(snap.channels.size(), noc::all_channel_classes().size());
  EXPECT_EQ(util::json_write(to_json(snap)),
            util::json_write(to_json(concurrent.snapshot())));
}

TEST(MetricsRegistryTest, ThreadCacheFollowsRegistryAndWorker) {
  // One thread alternating between two registries and two worker indices
  // must land every event in the registry it was sent to.
  const SyntheticNetwork synthetic;
  const noc::Node& node = *synthetic.nodes.front();
  MetricsRegistry a;
  MetricsRegistry b;
  for (int i = 0; i < 10; ++i) {
    sim::set_current_worker(static_cast<std::uint32_t>(i % 2));
    a.on_contended_grant(node, i);
    b.on_contended_grant(node, i);
    b.on_contended_grant(node, i);
  }
  sim::set_current_worker(0);
  EXPECT_EQ(a.snapshot().total_contended_grants(), 10u);
  EXPECT_EQ(b.snapshot().total_contended_grants(), 20u);
  EXPECT_EQ(a.telemetry_counters().contended_grants, 10u);
}

}  // namespace
}  // namespace specnoc::stats
