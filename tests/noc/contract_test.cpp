// Contract-violation death tests: the protocol preconditions abort rather
// than silently corrupting simulation state.
#include <gtest/gtest.h>

#include "../support/pair_network.h"
#include "../support/test_nodes.h"
#include "noc/channel.h"
#include "noc/network.h"
#include "sim/scheduler.h"

namespace specnoc::noc {
namespace {

using specnoc::testing::DriverEndpoint;
using specnoc::testing::RecordingEndpoint;

// Older gtest (1.11): set the death-test style globally.
struct DeathStyle {
  DeathStyle() { ::testing::FLAGS_gtest_death_test_style = "threadsafe"; }
} const g_death_style;

TEST(ContractDeathTest, ChannelDoubleSendAborts) {
  sim::Scheduler sched;
  SimHooks hooks;
  PacketStore store;
  const Message& msg = store.create_message(0, DestSet::single(0), 0, false);
  const Packet& pkt = store.create_packet(msg, DestSet::single(0), 2);
  DriverEndpoint up(sched, hooks);
  RecordingEndpoint down(sched, hooks, 0);
  const ChannelSpec spec{{.delay_fwd = 10, .delay_ack = 10, .length = 0}};
  WireChannel ch(spec);
  ch.connect(up, 0, down, 0);
  up.send(0, make_flit(pkt, 0));
  // Second send before the handshake completes violates the 2-phase
  // protocol.
  EXPECT_DEATH(up.send(0, make_flit(pkt, 1)), "precondition");
}

TEST(ContractDeathTest, ChannelAckWithoutDeliveryAborts) {
  sim::Scheduler sched;
  SimHooks hooks;
  DriverEndpoint up(sched, hooks);
  RecordingEndpoint down(sched, hooks, 0);
  const ChannelSpec spec{{}};
  WireChannel ch(spec);
  ch.connect(up, 0, down, 0);
  EXPECT_DEATH(ch.ack(), "precondition");
}

TEST(ContractDeathTest, ChannelDoubleConnectAborts) {
  sim::Scheduler sched;
  SimHooks hooks;
  DriverEndpoint up(sched, hooks);
  RecordingEndpoint down(sched, hooks, 0);
  const ChannelSpec spec{{}};
  WireChannel ch(spec);
  ch.connect(up, 0, down, 0);
  EXPECT_DEATH(ch.connect(up, 1, down, 1), "precondition");
}

TEST(ContractDeathTest, CrossPartitionWireAborts) {
  // Only a pipe can be split across lanes: a wire has no mail key, credit
  // count or ring. Network never builds one; a hand-made one dies.
  Network net;
  net.enable_partitions(2, 10);
  net.reserve_nodes<DriverEndpoint>(NodeKind::kSource, 2);
  auto& up = net.place_node<DriverEndpoint>(0, 0);
  const ChannelSpec spec{{.delay_fwd = 10, .delay_ack = 10, .length = 0}};
  WireChannel wire(spec);
  wire.connect_upstream(up, 0);
  EXPECT_DEATH(wire.make_cross_partition(0), "precondition");
  PipeChannel pipe(spec);
  pipe.connect_upstream(net.place_node<DriverEndpoint>(1, 0), 0);
  pipe.make_cross_partition(0);
  EXPECT_TRUE(pipe.cross_partition());
}

TEST(ContractDeathTest, CrossChannelBelowLookaheadAborts) {
  // A cross channel faster than the declared lookahead would deliver mail
  // inside the window that sent it. Builders derive the lookahead from
  // their cross links, so placing a faster one is a programming error.
  Network net;
  net.enable_partitions(2, 50);
  EXPECT_DEATH(specnoc::testing::build_pair(
                   net, {.delay_fwd = 10, .delay_ack = 10, .length = 0},
                   ChannelClass::kOther, 0, 0, 10, 1),
               "precondition");
}

TEST(ContractDeathTest, SchedulerNegativeDelayAborts) {
  sim::Scheduler sched;
  EXPECT_DEATH(sched.schedule(-1, [] {}), "precondition");
}

TEST(ContractDeathTest, SchedulerPastAbsoluteTimeAborts) {
  sim::Scheduler sched;
  sched.schedule(100, [] {});
  sched.run();
  EXPECT_DEATH(sched.schedule_at(50, [] {}), "precondition");
}

TEST(ContractDeathTest, PortBeyondTheNodesCountAborts) {
  sim::Scheduler sched;
  SimHooks hooks;
  DriverEndpoint up(sched, hooks);  // one output
  RecordingEndpoint down(sched, hooks, 0);
  const ChannelSpec spec{};
  WireChannel ch(spec);
  EXPECT_DEATH(ch.connect(up, 1, down, 0), "precondition");
}

TEST(ContractDeathTest, SiteLevelOutsideEightBitsAborts) {
  sim::Scheduler sched;
  SimHooks hooks;
  RecordingEndpoint node(sched, hooks, 0);
  EXPECT_DEATH(node.set_site({.tree = 0, .level = 128, .index = 0}),
               "precondition");
  EXPECT_DEATH(node.set_site({.tree = 0, .level = -2, .index = 0}),
               "precondition");
}

}  // namespace
}  // namespace specnoc::noc
