// Shared channel records (noc::ChannelSpec), and nodes()/channels() read
// from the arena.
//
// A channel keeps a pointer to the interned record for its (class, params)
// pair instead of a copy, so there must be exactly one record per pair and
// it must carry what the builder asked for. Records hold no hooks: equal
// channels of two networks share one record, and each channel still
// reports to its own network's observers. The network keeps no list per
// object: channels() and nodes() walk a few runs of pool slots, which must
// still give every object once, in build order. Channels come in two
// layouts, each in its own pool, and the network alone picks one: a pipe
// iff the link buffers more than one flit or crosses lanes.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <fstream>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include "../support/test_nodes.h"
#include "core/mot_network.h"
#include "mesh/mesh_network.h"
#include "mot/layout.h"
#include "noc/network.h"
#include "util/intern.h"

namespace specnoc::noc {
namespace {

/// The distinct records a network's channels point to.
std::set<const ChannelParams*> records_of(const Network& net) {
  std::set<const ChannelParams*> records;
  for (const Channel* channel : net.channels()) {
    records.insert(&channel->params());
  }
  return records;
}

/// Channels with equal (class, params) point to one record, and channels
/// that differ in either point to different ones.
void expect_one_record_per_pair(const Network& net) {
  std::map<const ChannelParams*, std::pair<ChannelClass, ChannelParams>>
      pair_of;
  for (const Channel* channel : net.channels()) {
    const auto [it, added] = pair_of.try_emplace(
        &channel->params(), channel->klass(), channel->params());
    if (!added) {
      EXPECT_EQ(it->second.first, channel->klass()) << channel->name();
    }
  }
  for (const auto& [a, pair_a] : pair_of) {
    for (const auto& [b, pair_b] : pair_of) {
      if (a == b) continue;
      EXPECT_FALSE(pair_a == pair_b)
          << "two records for class " << to_string(pair_a.first);
    }
  }
}

TEST(ChannelSpecTest, OneRecordPerDistinctClassAndParams) {
  core::MotNetwork mot(core::Architecture::kOptHybridSpeculative,
                       core::NetworkConfig{});
  expect_one_record_per_pair(mot.net());
  // Source/sink interfaces, middle, and one fanout and fanin class per
  // tree level (3 levels, 2 internal link lengths).
  EXPECT_EQ(records_of(mot.net()).size(), 7u);
  mesh::MeshNetwork mesh_net(mesh::MeshConfig{});
  expect_one_record_per_pair(mesh_net.net());
  EXPECT_EQ(records_of(mesh_net.net()).size(), 3u);
}

TEST(ChannelSpecTest, ParamsAreTheBuildersForEveryChannel) {
  const core::NetworkConfig cfg;
  core::MotNetwork mot(core::Architecture::kOptHybridSpeculative, cfg);
  const mot::HTreeLayout layout(mot.topology(), cfg.layout);
  ChannelParams middle = layout.middle_channel();
  middle.capacity = cfg.middle_channel_flits;
  for (const Channel* channel : mot.net().channels()) {
    ChannelParams want;
    switch (channel->klass()) {
      case ChannelClass::kSourceIf:
      case ChannelClass::kSinkIf:
        want = layout.interface_channel();
        break;
      case ChannelClass::kFanout:  // parent -> child at the parent's level
        want = layout.tree_channel(
            static_cast<std::uint32_t>(channel->upstream()->site().level));
        break;
      case ChannelClass::kFanin:  // child -> parent at the parent's level
        want = layout.tree_channel(
            static_cast<std::uint32_t>(channel->downstream()->site().level));
        break;
      case ChannelClass::kMiddle:
        want = middle;
        break;
      default:
        ADD_FAILURE() << "unexpected MoT channel " << channel->name();
    }
    EXPECT_EQ(channel->params(), want) << channel->name();
  }

  const mesh::MeshConfig mesh_cfg;
  mesh::MeshNetwork mesh_net(mesh_cfg);
  const auto link = [&](LengthUm length) {
    ChannelParams params;
    params.length = length;
    params.delay_fwd = static_cast<TimePs>(
        std::llround(length * mesh_cfg.wire_delay_ps_per_um));
    params.delay_ack = params.delay_fwd;
    return params;
  };
  for (const Channel* channel : mesh_net.net().channels()) {
    const ChannelParams want = channel->klass() == ChannelClass::kMeshHop
                                   ? link(mesh_cfg.link_length_um)
                                   : link(mesh_cfg.interface_link_um);
    EXPECT_EQ(channel->params(), want) << channel->name();
  }
}

/// Counts channel flits (energy hook).
struct FlitCounter : EnergyObserver {
  void on_node_op(const Node&, NodeOp, TimePs) override {}
  void on_channel_flit(LengthUm, TimePs) override { ++flits; }
  int flits = 0;
};

TEST(ChannelSpecTest, NetworksShareRecordsButNotHooks) {
  core::MotNetwork a(core::Architecture::kOptHybridSpeculative,
                     core::NetworkConfig{});
  core::MotNetwork b(core::Architecture::kOptHybridSpeculative,
                     core::NetworkConfig{});
  EXPECT_EQ(records_of(a.net()), records_of(b.net()));

  // Two channels on one record, each wired between nodes of its own
  // "network" (hooks): a flit is reported only to its sender's observer.
  sim::Scheduler sched;
  SimHooks hooks_a;
  SimHooks hooks_b;
  FlitCounter energy_a;
  FlitCounter energy_b;
  hooks_a.energy = &energy_a;
  hooks_b.energy = &energy_b;
  PacketStore store;
  const Message& msg = store.create_message(0, DestSet::single(0), 0, false);
  const Packet& pkt = store.create_packet(msg, DestSet::single(0), 1);
  const ChannelSpec& spec = util::intern(ChannelSpec{{.delay_fwd = 1}});
  testing::DriverEndpoint up_a(sched, hooks_a);
  testing::DriverEndpoint up_b(sched, hooks_b);
  testing::RecordingEndpoint down_a(sched, hooks_a, 0);
  testing::RecordingEndpoint down_b(sched, hooks_b, 0);
  WireChannel ch_a(spec);
  WireChannel ch_b(spec);
  ch_a.connect(up_a, 0, down_a, 0);
  ch_b.connect(up_b, 0, down_b, 0);
  EXPECT_EQ(&ch_a.params(), &ch_b.params());
  up_a.send(0, make_flit(pkt, 0));
  sched.run();
  EXPECT_EQ(energy_a.flits, 1);
  EXPECT_EQ(energy_b.flits, 0);
  up_b.send(0, make_flit(pkt, 0));
  sched.run();
  EXPECT_EQ(energy_a.flits, 1);
  EXPECT_EQ(energy_b.flits, 1);
}

/// nodes() of a MoT in its structural order: sources, sinks, fanout trees,
/// fanin trees, each tree in heap order.
void expect_mot_node_order(core::MotNetwork& mot) {
  Network& net = mot.net();
  const std::uint32_t n = mot.topology().n();
  const std::uint32_t per_tree = mot.topology().nodes_per_tree();
  std::size_t i = 0;
  for (Node* node : net.nodes()) {
    if (i < n) {
      EXPECT_EQ(node, &net.source(static_cast<std::uint32_t>(i)));
    } else if (i < 2 * std::size_t{n}) {
      EXPECT_EQ(node, &net.sink(static_cast<std::uint32_t>(i - n)));
    } else {
      const std::size_t switch_index = i - 2 * std::size_t{n};
      const std::size_t tree_index = switch_index / per_tree;
      const bool fanin = tree_index >= n;
      EXPECT_EQ(node->kind() == NodeKind::kFanin, fanin) << "node " << i;
      const NodeSite site = node->site();
      EXPECT_EQ(site.tree, fanin ? tree_index - n : tree_index)
          << "node " << i;
      EXPECT_EQ(mot::MotTopology::heap_id(
                    static_cast<std::uint32_t>(site.level), site.index),
                switch_index % per_tree)
          << "node " << i;
    }
    ++i;
  }
  EXPECT_EQ(i, 2 * std::size_t{n} * (1 + per_tree));
  EXPECT_EQ(net.nodes().size(), i);
}

/// Every node once: as many distinct pointers as the node pools hold.
void expect_nodes_once(Network& net) {
  const std::set<const Node*> distinct(net.nodes().begin(),
                                       net.nodes().end());
  EXPECT_EQ(distinct.size(), net.nodes().size());
  EXPECT_EQ(net.nodes().size() + net.channels().size(),
            net.arena().total_objects());
}

TEST(NetworkListsTest, MotListsAreReadFromTheArenaInStructuralOrder) {
  for (const std::uint32_t n : {16u, 64u}) {
    for (const PartitionStrategy partition :
         {PartitionStrategy::kTree, PartitionStrategy::kQuadrant}) {
      core::NetworkConfig cfg;
      cfg.n = n;
      cfg.sim_threads = 2;
      cfg.partition = partition;
      core::MotNetwork mot(core::Architecture::kOptHybridSpeculative, cfg);
      Network& net = mot.net();
      ASSERT_GT(net.partitions(), 1u);
      std::size_t i = 0;
      for (const Channel* channel : net.channels()) {
        ASSERT_EQ(channel, &net.placed_channel(i)) << "channel " << i;
        ++i;
      }
      EXPECT_EQ(i, net.channels().size());
      expect_mot_node_order(mot);
      expect_nodes_once(net);
      // No per-object list: one run of channels, and nodes() is at most
      // one run per stretch of one kind down each fanout tree, plus one
      // each for the sources, sinks and fanin trees.
      std::size_t stretches = 0;
      NodeKind last = NodeKind::kSource;
      for (const Node* node : net.nodes()) {
        if (node->kind() == NodeKind::kFanin) break;
        if (node->kind() != NodeKind::kSource &&
            node->kind() != NodeKind::kSink && node->site().tree == 0) {
          if (node->kind() != last) ++stretches;
          last = node->kind();
        }
      }
      // Wires (source and fanout links), pipes (middle links), wires
      // (fanin and sink links).
      EXPECT_EQ(net.channels().runs(), 3u);
      EXPECT_LE(net.nodes().runs(), 3 + n * stretches);
    }
  }
}

TEST(NetworkListsTest, MeshListsFollowCreationOrder) {
  mesh::MeshConfig cfg;
  cfg.cols = 3;  // non-square: both link directions counted
  cfg.rows = 5;
  cfg.speculative_routers =
      mesh::MeshNetwork::checkerboard_speculation(mesh::MeshTopology(3, 5));
  mesh::MeshNetwork mesh_net(cfg);
  Network& net = mesh_net.net();
  const std::uint32_t n = mesh_net.endpoints();

  // Sources, sinks, then routers (two router types, interleaved).
  std::vector<Node*> expected_nodes;
  for (std::uint32_t id = 0; id < n; ++id) {
    expected_nodes.push_back(&net.source(id));
  }
  for (std::uint32_t id = 0; id < n; ++id) {
    expected_nodes.push_back(&net.sink(id));
  }
  for (std::uint32_t id = 0; id < n; ++id) {
    expected_nodes.push_back(&mesh_net.router(id));
  }
  EXPECT_EQ(std::vector<Node*>(net.nodes().begin(), net.nodes().end()),
            expected_nodes);
  expect_nodes_once(net);

  // Per router: inject, eject, then each east/south hop both ways.
  std::vector<std::pair<Node*, Node*>> expected_links;
  for (std::uint32_t id = 0; id < n; ++id) {
    Node* router = &mesh_net.router(id);
    expected_links.emplace_back(&net.source(id), router);
    expected_links.emplace_back(router, &net.sink(id));
    for (const mesh::Port port : {mesh::Port::kEast, mesh::Port::kSouth}) {
      if (!mesh_net.topology().has_neighbor(id, port)) continue;
      Node* peer = &mesh_net.router(mesh_net.topology().neighbor(id, port));
      expected_links.emplace_back(router, peer);
      expected_links.emplace_back(peer, router);
    }
  }
  std::vector<std::pair<Node*, Node*>> links;
  for (const Channel* channel : net.channels()) {
    links.emplace_back(channel->upstream(), channel->downstream());
  }
  EXPECT_EQ(links, expected_links);
  EXPECT_EQ(net.channels().runs(), 1u);
}

TEST(NetworkListsTest, HandBuiltListsAreInAddOrder) {
  Network net;
  // Two pools alternating, then a stretch of one, so runs both break and
  // extend: R D R D R D R D R D D ... D is ten runs.
  const auto recording = [](std::size_t i) { return i < 10 && i % 2 == 0; };
  std::vector<std::size_t> slot(40);  // in its pool
  std::size_t of_pool[2] = {0, 0};    // [recording]
  for (std::size_t i = 0; i < slot.size(); ++i) {
    slot[i] = of_pool[recording(i)]++;
  }
  net.reserve_nodes<testing::RecordingEndpoint>(NodeKind::kSink, of_pool[1]);
  net.reserve_nodes<testing::DriverEndpoint>(NodeKind::kSource, of_pool[0]);
  for (std::size_t i = 0; i < slot.size(); ++i) {
    if (recording(i)) {
      net.add_nodes<testing::RecordingEndpoint>(slot[i], 1);
    } else {
      net.add_nodes<testing::DriverEndpoint>(slot[i], 1);
    }
  }
  const ChannelSpec& spec = util::intern(ChannelSpec{
      {.delay_fwd = 5, .delay_ack = 5, .length = 100.0}, ChannelClass::kOther});
  for (std::size_t i = 0; i < 10; i += 2) net.add_channels(spec, 1, false);
  net.reserve_channels();

  std::vector<Node*> nodes;
  std::vector<Channel*> channels;
  for (std::size_t i = 0; i < slot.size(); ++i) {
    if (recording(i)) {
      nodes.push_back(&net.place_node<testing::RecordingEndpoint>(slot[i], 0));
    } else {
      nodes.push_back(&net.place_node<testing::DriverEndpoint>(slot[i], 0));
    }
  }
  for (std::size_t i = 0; i < 10; i += 2) {
    channels.push_back(&net.place_channel(channels.size(), spec,
                                          *nodes[i + 1], 0, *nodes[i], 0));
  }
  EXPECT_EQ(std::vector<Node*>(net.nodes().begin(), net.nodes().end()),
            nodes);
  EXPECT_EQ(net.nodes().front(), nodes.front());
  EXPECT_EQ(net.nodes().runs(), 10u);
  EXPECT_EQ(std::vector<Channel*>(net.channels().begin(),
                                  net.channels().end()),
            channels);
  EXPECT_EQ(net.channels().runs(), 1u);
}

/// Checks each channel's layout against `pipe` and its address against
/// its layout's alignment; returns the number of pipes.
template <typename IsPipe>
std::size_t expect_layouts(const Network& net, IsPipe pipe) {
  std::size_t pipes = 0;
  for (const Channel* channel : net.channels()) {
    const bool expected = pipe(*channel);
    EXPECT_EQ(channel->pipe(), expected) << channel->name();
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(channel) %
                  (expected ? alignof(PipeChannel) : alignof(WireChannel)),
              0u)
        << channel->name();
    if (channel->pipe()) ++pipes;
  }
  return pipes;
}

TEST(ChannelLayoutTest, OnlyMotMiddleLinksArePipes) {
  for (const std::uint32_t n : {16u, 64u}) {
    for (const PartitionStrategy partition :
         {PartitionStrategy::kTree, PartitionStrategy::kQuadrant}) {
      core::NetworkConfig cfg;
      cfg.n = n;
      cfg.sim_threads = 2;
      cfg.partition = partition;
      core::MotNetwork mot(core::Architecture::kOptHybridSpeculative, cfg);
      const Network& net = mot.net();
      ASSERT_GT(net.partitions(), 1u);
      // Middle links are pipelined (capacity 2) whether or not they cross;
      // every other link is a one-lane wire.
      const std::size_t pipes =
          expect_layouts(net, [](const Channel& channel) {
            return channel.klass() == ChannelClass::kMiddle;
          });
      EXPECT_EQ(pipes, std::size_t{n} * n);
    }
  }
}

TEST(ChannelLayoutTest, OnlyRowCrossingMeshHopsArePipes) {
  mesh::MeshConfig cfg;
  cfg.cols = 3;
  cfg.rows = 5;
  cfg.sim_threads = 2;
  cfg.partition = PartitionStrategy::kRows;
  mesh::MeshNetwork mesh_net(cfg);
  const Network& net = mesh_net.net();
  ASSERT_EQ(net.partitions(), 5u);
  // Mesh links buffer one flit: only the north/south hops between two row
  // lanes are pipes, and each of them is split.
  const std::size_t pipes = expect_layouts(net, [](const Channel& channel) {
    return channel.upstream()->partition() !=
           channel.downstream()->partition();
  });
  EXPECT_EQ(pipes, 2u * 3 * (5 - 1));
  // add_channels() declares each link in the pool its layout picks, so
  // the runs alternate; placed_channel() still finds each one.
  EXPECT_GT(net.channels().runs(), 2u);
  std::size_t i = 0;
  for (const Channel* channel : net.channels()) {
    EXPECT_EQ(channel->cross_partition(), channel->pipe()) << channel->name();
    EXPECT_EQ(channel, &mesh_net.net().placed_channel(i++));
  }
}

TEST(NetworkListsTest, PartitionedMotKeepsTheGoldenChannelOrder) {
  // tests/golden/network_names.txt lists the sequential n = 4 hybrid
  // network's channels; split over four lanes, with middle links in the
  // pipe pool between two wire runs, channels() keeps that order.
  std::ifstream in(SPECNOC_GOLDEN_DIR "/network_names.txt");
  std::vector<std::string> golden;
  bool section = false;
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("# ", 0) == 0) {
      section = line == "# OptHybridSpeculative n=4";
    } else if (section && line.rfind("channel ", 0) == 0) {
      golden.push_back(line);
    }
  }
  ASSERT_FALSE(golden.empty());

  core::NetworkConfig cfg;
  cfg.n = 4;
  cfg.sim_threads = 2;
  cfg.partition = PartitionStrategy::kTree;
  core::MotNetwork mot(core::Architecture::kOptHybridSpeculative, cfg);
  Network& net = mot.net();
  ASSERT_EQ(net.partitions(), 4u);
  std::vector<std::string> derived;
  std::size_t i = 0;
  for (const Channel* channel : net.channels()) {
    EXPECT_EQ(channel, &net.placed_channel(i++));
    derived.push_back(std::string("channel ") + to_string(channel->klass()) +
                      " " + channel->name());
  }
  EXPECT_EQ(derived, golden);
  EXPECT_EQ(net.channels().runs(), 3u);
}

}  // namespace
}  // namespace specnoc::noc
