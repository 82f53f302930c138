// What nodes and channels store compactly or derive must match what the
// builders passed: a channel's packed copies of its halves' lanes equal its
// endpoints' partitions and lanes, its cross bit and mail key follow the
// build's structural count, and each node's port table holds exactly the
// channels wired to it, at the ports the channels find there.
#include <gtest/gtest.h>

#include <string>

#include "core/mot_network.h"
#include "mesh/mesh_network.h"
#include "noc/network.h"

namespace specnoc::core {
namespace {

/// Every channel sits in its endpoints' port tables at its own ports, and
/// nothing else does: the tables hold exactly two entries per channel.
void expect_port_tables_match(const noc::Network& net) {
  std::size_t attached = 0;
  for (const noc::Node* node : net.nodes()) {
    for (std::uint32_t p = 0; p < node->num_inputs(); ++p) {
      if (const noc::Channel* channel = node->input_channel(p)) {
        ++attached;
        EXPECT_EQ(channel->downstream(), node) << node->name() << " in " << p;
        EXPECT_EQ(channel->downstream_port(), p) << node->name();
      }
    }
    for (std::uint32_t p = 0; p < node->num_outputs(); ++p) {
      if (const noc::Channel* channel = node->output_channel(p)) {
        ++attached;
        EXPECT_EQ(channel->upstream(), node) << node->name() << " out " << p;
        EXPECT_EQ(channel->upstream_port(), p) << node->name();
      }
    }
    EXPECT_EQ(node->input_channel(node->num_inputs()), nullptr);
    EXPECT_EQ(node->output_channel(node->num_outputs()), nullptr);
  }
  for (const noc::Channel* channel : net.channels()) {
    EXPECT_EQ(channel->upstream()->output_channel(channel->upstream_port()),
              channel)
        << channel->name();
    EXPECT_EQ(
        channel->downstream()->input_channel(channel->downstream_port()),
        channel)
        << channel->name();
  }
  EXPECT_EQ(attached, 2 * net.channels().size());
}

/// Checks every channel's stored lanes and its endpoints' lanes against
/// `lane_of(node)`, the lane the builder placed that node on, and its mail
/// key against add_channel's rule: the k-th cross channel in channels()
/// order is keyed 2k, and an intra-lane channel 0.
template <typename LaneOf>
void expect_lanes_and_keys(noc::Network& net, LaneOf lane_of) {
  std::uint32_t crossed = 0;
  for (const noc::Channel* channel : net.channels()) {
    const std::uint32_t up = lane_of(*channel->upstream());
    const std::uint32_t down = lane_of(*channel->downstream());
    EXPECT_EQ(channel->upstream_lane(), up) << channel->name();
    EXPECT_EQ(channel->downstream_lane(), down) << channel->name();
    EXPECT_EQ(&channel->upstream()->lane(), &net.lane(up)) << channel->name();
    EXPECT_EQ(&channel->downstream()->lane(), &net.lane(down))
        << channel->name();
    ASSERT_EQ(channel->cross_partition(), up != down) << channel->name();
    EXPECT_EQ(channel->mail_key(), up != down ? 2 * crossed++ : 0u)
        << channel->name();
  }
  EXPECT_GT(crossed, 0u);
}

/// The tree a MoT node belongs to: a network interface's endpoint, else
/// its site's tree.
std::uint32_t tree_of(const noc::Node& node) {
  if (const auto* source = dynamic_cast<const noc::SourceNode*>(&node)) {
    return source->src_id();
  }
  if (const auto* sink = dynamic_cast<const noc::SinkNode*>(&node)) {
    return sink->dest_id();
  }
  return node.site().tree;
}

NetworkConfig partitioned(std::uint32_t n, noc::PartitionStrategy plan) {
  NetworkConfig cfg;
  cfg.n = n;
  cfg.partition = plan;
  cfg.sim_threads = 2;
  return cfg;
}

TEST(MotDerivationTest, ChannelLanesAndMailKeysFollowStructure) {
  for (const std::uint32_t n : {16u, 64u}) {
    for (const noc::PartitionStrategy plan :
         {noc::PartitionStrategy::kTree, noc::PartitionStrategy::kQuadrant}) {
      SCOPED_TRACE(std::to_string(n) + " " + noc::to_string(plan));
      MotNetwork network(Architecture::kOptHybridSpeculative,
                         partitioned(n, plan));
      noc::Network& net = network.net();
      const std::uint32_t lanes = net.partitions();
      ASSERT_EQ(lanes, plan == noc::PartitionStrategy::kTree ? n : 4u);
      // A source, its fanout tree, a sink and its fanin tree share lane
      // tree * lanes / n.
      expect_lanes_and_keys(net, [&](const noc::Node& node) {
        return tree_of(node) * lanes / n;
      });
    }
  }
}

TEST(MotDerivationTest, PortTablesHoldTheirChannels) {
  for (const std::uint32_t n : {16u, 64u}) {
    for (const noc::PartitionStrategy plan :
         {noc::PartitionStrategy::kTree, noc::PartitionStrategy::kQuadrant}) {
      SCOPED_TRACE(std::to_string(n) + " " + noc::to_string(plan));
      MotNetwork network(Architecture::kOptHybridSpeculative,
                         partitioned(n, plan));
      expect_port_tables_match(network.net());
    }
  }
}

TEST(MeshDerivationTest, RouterPortTablesAndLanes) {
  // Routers have 5 + 5 ports, past the inline table, and edge routers
  // leave some of them unwired. The checkerboard mixes both router kinds
  // along every row band.
  const mesh::MeshTopology topology(4, 4);
  for (const std::uint64_t speculative :
       {std::uint64_t{0},
        mesh::MeshNetwork::checkerboard_speculation(topology)}) {
    SCOPED_TRACE(speculative);
    mesh::MeshConfig cfg;  // 4x4
    cfg.sim_threads = 2;   // one lane per row
    cfg.speculative_routers = speculative;
    mesh::MeshNetwork network(cfg);
    noc::Network& net = network.net();
    ASSERT_EQ(net.partitions(), cfg.rows);
    for (const noc::Node* node : net.nodes()) {
      if (node->kind() == noc::NodeKind::kMeshRouter ||
          node->kind() == noc::NodeKind::kMeshRouterSpec) {
        EXPECT_EQ(node->num_inputs(), mesh::kNumPorts);
        EXPECT_EQ(node->num_outputs(), mesh::kNumPorts);
      }
    }
    expect_port_tables_match(net);
    // A router's lane is its row; an interface shares its router's.
    expect_lanes_and_keys(net, [&](const noc::Node& node) {
      return tree_of(node) / cfg.cols;
    });
  }
}

}  // namespace
}  // namespace specnoc::core
