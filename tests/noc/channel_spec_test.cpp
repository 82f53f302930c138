// Shared channel records (noc::ChannelSpec) and exact-size build vectors.
//
// A channel keeps a pointer to the interned record for its (class, params)
// pair instead of a copy, so there must be exactly one record per pair and
// it must carry what the builder asked for. Records hold no hooks: equal
// channels of two networks share one record, and each channel still
// reports to its own network's observers.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
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
  Channel ch_a(spec);
  Channel ch_b(spec);
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

TEST(NetworkReserveTest, BuildersSizeTheirListsExactly) {
  for (const unsigned threads : {1u, 2u}) {
    core::NetworkConfig cfg;
    cfg.sim_threads = threads;  // partitioned builds have the same counts
    core::MotNetwork mot(core::Architecture::kOptHybridSpeculative, cfg);
    EXPECT_EQ(mot.net().channels().capacity(), mot.net().channels().size());
    EXPECT_EQ(mot.net().nodes().capacity(), mot.net().nodes().size());
  }
  mesh::MeshConfig mesh_cfg;
  mesh_cfg.cols = 3;  // non-square: both link directions counted
  mesh_cfg.rows = 5;
  mesh::MeshNetwork mesh_net(mesh_cfg);
  EXPECT_EQ(mesh_net.net().channels().capacity(),
            mesh_net.net().channels().size());
  EXPECT_EQ(mesh_net.net().nodes().capacity(), mesh_net.net().nodes().size());
}

}  // namespace
}  // namespace specnoc::noc
