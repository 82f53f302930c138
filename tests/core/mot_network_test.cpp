#include "core/mot_network.h"

#include <map>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "stats/metrics.h"
#include "stats/serialization.h"
#include "traffic/benchmark.h"
#include "traffic/driver.h"
#include "util/json.h"
#include "util/units.h"

namespace specnoc::core {
namespace {

using noc::DestSet;
using namespace specnoc::literals;

/// Records header/flit ejections per destination.
class EjectionRecorder : public noc::TrafficObserver {
 public:
  void on_flit_ejected(const noc::Packet& packet, std::uint32_t dest,
                       noc::FlitKind kind, TimePs when) override {
    ++flits_per_dest[dest];
    if (kind == noc::FlitKind::kHeader) {
      headers.push_back({packet.id, dest, when});
    }
  }
  void on_packet_injected(const noc::Packet&, TimePs) override {
    ++injected_packets;
  }

  struct Header {
    noc::PacketId packet;
    std::uint32_t dest;
    TimePs when;
  };
  std::map<std::uint32_t, std::uint64_t> flits_per_dest;
  std::vector<Header> headers;
  int injected_packets = 0;
};

class MotNetworkTest : public ::testing::TestWithParam<Architecture> {};

TEST_P(MotNetworkTest, UnicastReachesExactlyItsDestination) {
  NetworkConfig cfg;
  MotNetwork net(GetParam(), cfg);
  EjectionRecorder rec;
  net.net().hooks().traffic = &rec;
  for (std::uint32_t src = 0; src < 8; ++src) {
    for (std::uint32_t dst = 0; dst < 8; ++dst) {
      rec.flits_per_dest.clear();
      rec.headers.clear();
      net.send_message(src, DestSet::single(dst), false);
      net.scheduler().run();
      // All 5 flits arrive at dst and nowhere else.
      ASSERT_EQ(rec.flits_per_dest.size(), 1u)
          << to_string(GetParam()) << " src=" << src << " dst=" << dst;
      EXPECT_EQ(rec.flits_per_dest[dst], 5u);
      ASSERT_EQ(rec.headers.size(), 1u);
      EXPECT_EQ(rec.headers[0].dest, dst);
    }
  }
}

TEST_P(MotNetworkTest, MulticastReachesAllDestinationsOnce) {
  NetworkConfig cfg;
  MotNetwork net(GetParam(), cfg);
  EjectionRecorder rec;
  net.net().hooks().traffic = &rec;
  const DestSet dests = DestSet::single(0) | DestSet::single(3) | DestSet::single(5) |
                         DestSet::single(6);
  net.send_message(2, dests, false);
  net.scheduler().run();
  EXPECT_EQ(rec.flits_per_dest.size(), 4u);
  for (const std::uint32_t d : {0u, 3u, 5u, 6u}) {
    EXPECT_EQ(rec.flits_per_dest[d], 5u) << to_string(GetParam());
  }
}

TEST_P(MotNetworkTest, BroadcastReachesEveryone) {
  NetworkConfig cfg;
  MotNetwork net(GetParam(), cfg);
  EjectionRecorder rec;
  net.net().hooks().traffic = &rec;
  net.send_message(7, noc::DestSet::from_word(0xFF), false);
  net.scheduler().run();
  EXPECT_EQ(rec.flits_per_dest.size(), 8u);
  for (std::uint32_t d = 0; d < 8; ++d) {
    EXPECT_EQ(rec.flits_per_dest[d], 5u);
  }
}

INSTANTIATE_TEST_SUITE_P(AllArchitectures, MotNetworkTest,
                         ::testing::ValuesIn(all_architectures()),
                         [](const auto& param_info) {
                           return std::string(to_string(param_info.param));
                         });

TEST(MotNetworkSerialTest, BaselineSerializesMulticast) {
  NetworkConfig cfg;
  MotNetwork net(Architecture::kBaseline, cfg);
  EjectionRecorder rec;
  net.net().hooks().traffic = &rec;
  const auto msg_id =
      net.send_message(0, DestSet::single(1) | DestSet::single(4) | DestSet::single(6), false);
  net.scheduler().run();
  // Three unicast packets injected for the one message.
  EXPECT_EQ(rec.injected_packets, 3);
  EXPECT_EQ(net.net().packets().message(msg_id).num_packets, 3u);
  EXPECT_EQ(rec.headers.size(), 3u);
  // Serialization: headers arrive in destination order, strictly spaced.
  EXPECT_LT(rec.headers[0].when, rec.headers[1].when);
  EXPECT_LT(rec.headers[1].when, rec.headers[2].when);
}

TEST(MotNetworkSerialTest, ParallelNetworksSendOnePacket) {
  NetworkConfig cfg;
  MotNetwork net(Architecture::kOptHybridSpeculative, cfg);
  EjectionRecorder rec;
  net.net().hooks().traffic = &rec;
  const auto msg_id =
      net.send_message(0, DestSet::single(1) | DestSet::single(4) | DestSet::single(6), false);
  net.scheduler().run();
  EXPECT_EQ(rec.injected_packets, 1);
  EXPECT_EQ(net.net().packets().message(msg_id).num_packets, 1u);
}

TEST(MotNetworkAddressTest, PaperAddressBits) {
  NetworkConfig cfg8;
  cfg8.n = 8;
  EXPECT_EQ(MotNetwork(Architecture::kBaseline, cfg8).address_bits(), 3u);
  EXPECT_EQ(
      MotNetwork(Architecture::kBasicNonSpeculative, cfg8).address_bits(),
      14u);
  EXPECT_EQ(
      MotNetwork(Architecture::kOptHybridSpeculative, cfg8).address_bits(),
      12u);
  EXPECT_EQ(MotNetwork(Architecture::kOptAllSpeculative, cfg8).address_bits(),
            8u);

  NetworkConfig cfg16;
  cfg16.n = 16;
  EXPECT_EQ(MotNetwork(Architecture::kBaseline, cfg16).address_bits(), 4u);
  EXPECT_EQ(
      MotNetwork(Architecture::kOptNonSpeculative, cfg16).address_bits(),
      30u);
  EXPECT_EQ(
      MotNetwork(Architecture::kOptHybridSpeculative, cfg16).address_bits(),
      20u);
  EXPECT_EQ(
      MotNetwork(Architecture::kOptAllSpeculative, cfg16).address_bits(),
      16u);
}

TEST(MotNetworkAreaTest, SpeculativeNodesShrinkFanoutArea) {
  NetworkConfig cfg;
  const auto basic_nonspec =
      MotNetwork(Architecture::kBasicNonSpeculative, cfg).total_node_area();
  const auto basic_hybrid =
      MotNetwork(Architecture::kBasicHybridSpeculative, cfg)
          .total_node_area();
  // Hybrid replaces 8 non-spec roots (406 um^2) with spec nodes (247).
  EXPECT_LT(basic_hybrid, basic_nonspec);
  EXPECT_NEAR(basic_nonspec - basic_hybrid, 8 * (406.0 - 247.0), 1e-6);
}

TEST(MotNetworkTimingTest, HybridUnicastHeaderFasterThanNonSpec) {
  // Zero-load header latency: the speculative root (52 ps) beats the
  // non-speculative root (299 ps).
  NetworkConfig cfg;
  auto run_one = [&](Architecture arch) {
    MotNetwork net(arch, cfg);
    EjectionRecorder rec;
    net.net().hooks().traffic = &rec;
    net.send_message(0, DestSet::single(5), false);
    net.scheduler().run();
    return rec.headers.at(0).when;
  };
  EXPECT_LT(run_one(Architecture::kBasicHybridSpeculative),
            run_one(Architecture::kBasicNonSpeculative));
  EXPECT_LT(run_one(Architecture::kOptAllSpeculative),
            run_one(Architecture::kOptHybridSpeculative));
  EXPECT_LT(run_one(Architecture::kOptHybridSpeculative),
            run_one(Architecture::kOptNonSpeculative));
}

TEST(MotNetworkTest16, WorksAt16x16) {
  NetworkConfig cfg;
  cfg.n = 16;
  for (const auto arch :
       {Architecture::kBaseline, Architecture::kOptHybridSpeculative,
        Architecture::kOptAllSpeculative}) {
    MotNetwork net(arch, cfg);
    EjectionRecorder rec;
    net.net().hooks().traffic = &rec;
    net.send_message(3, DestSet::single(0) | DestSet::single(9) | DestSet::single(15), false);
    net.scheduler().run();
    EXPECT_EQ(rec.flits_per_dest.size(), 3u) << to_string(arch);
    EXPECT_EQ(rec.flits_per_dest[9], 5u);
  }
}

TEST(MotNetworkTest, ManyConcurrentMessagesAllDelivered) {
  NetworkConfig cfg;
  MotNetwork net(Architecture::kOptHybridSpeculative, cfg);
  EjectionRecorder rec;
  net.net().hooks().traffic = &rec;
  // Every source broadcasts simultaneously: stresses arbitration and the
  // C-element joins without deadlocking.
  for (std::uint32_t s = 0; s < 8; ++s) {
    net.send_message(s, noc::DestSet::from_word(0xFF), false);
  }
  net.scheduler().run();
  std::uint64_t total = 0;
  for (const auto& [dest, count] : rec.flits_per_dest) {
    total += count;
  }
  EXPECT_EQ(total, 8u * 8u * 5u);
}

// ---------------------------------------------------------------------------
// Structural parallel build. The run's workers build disjoint tree blocks,
// so every object's position and identity must come from structure alone.

NetworkConfig partitioned_config(std::uint32_t n,
                                 noc::PartitionStrategy plan,
                                 unsigned sim_threads) {
  NetworkConfig cfg;
  cfg.n = n;
  cfg.partition = plan;
  cfg.sim_threads = sim_threads;
  return cfg;
}

/// One line per node and per channel, in nodes()/channels() order: name,
/// kind or class, partition, endpoints (as nodes() positions), ports and
/// cross flag with mail key.
std::vector<std::string> build_listing(noc::Network& net) {
  std::unordered_map<const noc::Node*, std::size_t> position;
  std::vector<std::string> lines;
  for (const noc::Node* node : net.nodes()) {
    position.emplace(node, position.size());
    lines.push_back(node->name() + " " + noc::to_string(node->kind()) + " p" +
                    std::to_string(node->partition()));
  }
  for (const noc::Channel* channel : net.channels()) {
    lines.push_back(
        channel->name() + " " + noc::to_string(channel->klass()) + " " +
        std::to_string(position.at(channel->upstream())) + ":" +
        std::to_string(channel->upstream_port()) + ">" +
        std::to_string(position.at(channel->downstream())) + ":" +
        std::to_string(channel->downstream_port()) +
        (channel->cross_partition()
             ? " cross " + std::to_string(channel->mail_key())
             : ""));
  }
  return lines;
}

/// Every measured byte of a 5 ns backlogged Multicast10 run.
std::string saturation_fingerprint(MotNetwork& network) {
  stats::MetricsRegistry registry;
  network.net().hooks().metrics = &registry;
  const auto pattern = traffic::make_benchmark(
      traffic::BenchmarkId::kMulticast10, network.endpoints());
  traffic::DriverConfig driver_cfg;
  driver_cfg.mode = traffic::InjectionMode::kBacklogged;
  driver_cfg.seed = 11;
  traffic::TrafficDriver driver(network, *pattern, driver_cfg);
  driver.start();
  network.net().run_until(5_ns);
  network.net().hooks().metrics = nullptr;
  return util::json_write(stats::to_json(registry.snapshot())) + "#" +
         std::to_string(network.net().executed());
}

TEST(MotParallelBuildTest, BuildWorkerCountChangesNothing) {
  for (const noc::PartitionStrategy plan :
       {noc::PartitionStrategy::kTree, noc::PartitionStrategy::kQuadrant}) {
    for (const Architecture arch : all_architectures()) {
      SCOPED_TRACE(std::string(to_string(arch)) + " " + noc::to_string(plan));
      MotNetwork two(arch, partitioned_config(64, plan, 2));
      ASSERT_EQ(two.net().effective_threads(), 2u);
      const std::vector<std::string> listing = build_listing(two.net());
      const std::string fingerprint = saturation_fingerprint(two);
      for (const unsigned threads : {3u, 4u}) {
        MotNetwork other(arch, partitioned_config(64, plan, threads));
        ASSERT_EQ(other.net().effective_threads(), threads);
        EXPECT_EQ(build_listing(other.net()), listing) << threads;
        EXPECT_EQ(saturation_fingerprint(other), fingerprint) << threads;
      }
    }
  }
}

TEST(MotParallelBuildTest, MailKeysFollowTheSerialCrossCount) {
  for (const std::uint32_t n : {16u, 64u}) {
    for (const noc::PartitionStrategy plan :
         {noc::PartitionStrategy::kTree, noc::PartitionStrategy::kQuadrant}) {
      SCOPED_TRACE(std::to_string(n) + " " + noc::to_string(plan));
      MotNetwork network(Architecture::kOptHybridSpeculative,
                         partitioned_config(n, plan, 3));
      noc::Network& net = network.net();
      std::map<std::pair<std::uint32_t, std::uint32_t>, const noc::Channel*>
          middle;
      for (const noc::Channel* channel : net.channels()) {
        if (channel->klass() == noc::ChannelClass::kMiddle) {
          middle[{channel->upstream()->site().tree,
                  channel->downstream()->site().tree}] = channel;
        } else {
          EXPECT_FALSE(channel->cross_partition()) << channel->name();
        }
      }
      ASSERT_EQ(middle.size(), std::size_t{n} * n);
      // The rule a node-by-node build followed: middle links in (source,
      // fanout leaf, output) order, each crossing one taking the next key.
      const mot::MotTopology& topology = network.topology();
      std::uint32_t crossed = 0;
      for (std::uint32_t s = 0; s < n; ++s) {
        for (std::uint32_t i = 0;
             i < topology.nodes_at_level(topology.levels() - 1); ++i) {
          for (std::uint32_t c = 0; c < 2; ++c) {
            const std::uint32_t d = topology.leaf_dest(i, c);
            const noc::Channel& channel = *middle.at({s, d});
            const bool crosses =
                net.source(s).partition() != net.sink(d).partition();
            ASSERT_EQ(channel.cross_partition(), crosses) << channel.name();
            EXPECT_EQ(channel.mail_key(), crosses ? 2 * crossed++ : 0u)
                << channel.name();
          }
        }
      }
      EXPECT_GT(crossed, 0u);
    }
  }
}

}  // namespace
}  // namespace specnoc::core
