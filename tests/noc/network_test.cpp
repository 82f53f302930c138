#include "noc/network.h"

#include <gtest/gtest.h>

#include "../support/pair_network.h"

namespace specnoc::noc {
namespace {

using specnoc::testing::build_pair;

TEST(NetworkTest, OwnsNodesAndChannels) {
  Network net;
  const auto pair =
      build_pair(net, {.delay_fwd = 5, .delay_ack = 5, .length = 100.0},
                 ChannelClass::kOther, 10, 0, 10);
  EXPECT_EQ(net.nodes().size(), 2u);
  EXPECT_EQ(net.channels().size(), 1u);
  EXPECT_EQ(net.num_sources(), 1u);
  EXPECT_EQ(net.num_sinks(), 1u);
  EXPECT_EQ(&net.source(0), &pair.source);
  EXPECT_EQ(&net.sink(0), &pair.sink);
  EXPECT_EQ(&net.placed_channel(0), &pair.channel);
}

TEST(NetworkTest, ChannelWiringIsBidirectionallyVisible) {
  Network net;
  const auto pair = build_pair(net, {}, ChannelClass::kSourceIf);
  const Channel& ch = pair.channel;
  EXPECT_EQ(ch.upstream(), &pair.source);
  EXPECT_EQ(ch.downstream(), &pair.sink);
  EXPECT_EQ(ch.klass(), ChannelClass::kSourceIf);
  // Names are derived from the class and the endpoints, not stored.
  EXPECT_EQ(ch.name(), "src0->root");
  EXPECT_DOUBLE_EQ(ch.params().length, 0.0);
}

TEST(NetworkTest, EndToEndThroughContainer) {
  Network net;
  const auto pair =
      build_pair(net, {.delay_fwd = 10, .delay_ack = 10, .length = 0},
                 ChannelClass::kOther, 0, 7, 20);

  const Message& msg = net.packets().create_message(0, DestSet::single(7), 0, true);
  const Packet& pkt = net.packets().create_packet(msg, DestSet::single(7), 3);
  pair.source.enqueue_packet(pkt);
  net.scheduler().run();
  EXPECT_EQ(pair.sink.flits_consumed(), 3u);
  EXPECT_EQ(net.packets().num_packets(), 1u);
}

TEST(NetworkTest, SharedHooksReachAllComponents) {
  class Counter : public EnergyObserver {
   public:
    void on_node_op(const Node&, NodeOp, TimePs) override { ++ops; }
    void on_channel_flit(LengthUm, TimePs) override { ++wires; }
    int ops = 0, wires = 0;
  };
  Network net;
  Counter counter;
  net.hooks().energy = &counter;
  const auto pair = build_pair(net, {}, ChannelClass::kOther);
  const Message& msg = net.packets().create_message(0, DestSet::single(0), 0, false);
  pair.source.enqueue_packet(
      net.packets().create_packet(msg, DestSet::single(0), 2));
  net.scheduler().run();
  EXPECT_EQ(counter.wires, 2);
  EXPECT_EQ(counter.ops, 4);  // 2 source sends + 2 sink consumes
}

}  // namespace
}  // namespace specnoc::noc
