#include "noc/network.h"

#include <gtest/gtest.h>

#include "../support/test_nodes.h"

namespace specnoc::noc {
namespace {

using specnoc::testing::DriverEndpoint;
using specnoc::testing::RecordingEndpoint;

TEST(NetworkTest, OwnsNodesAndChannels) {
  Network net;
  auto& src = net.add_node<SourceNode>(0, 10);
  auto& sink = net.add_node<SinkNode>(0, 10);
  net.register_source(src);
  net.register_sink(sink);
  net.add_channel({.delay_fwd = 5, .delay_ack = 5, .length = 100.0},
                  ChannelClass::kOther, src, 0, sink, 0);
  EXPECT_EQ(net.nodes().size(), 2u);
  EXPECT_EQ(net.channels().size(), 1u);
  EXPECT_EQ(net.num_sources(), 1u);
  EXPECT_EQ(net.num_sinks(), 1u);
  EXPECT_EQ(&net.source(0), &src);
  EXPECT_EQ(&net.sink(0), &sink);
}

TEST(NetworkTest, ChannelWiringIsBidirectionallyVisible) {
  Network net;
  auto& up = net.add_node<SourceNode>(0, 0);
  auto& down = net.add_node<SinkNode>(0, 0);
  auto& ch = net.add_channel({}, ChannelClass::kSourceIf, up, 0, down, 0);
  EXPECT_EQ(ch.upstream(), &up);
  EXPECT_EQ(ch.downstream(), &down);
  EXPECT_EQ(ch.klass(), ChannelClass::kSourceIf);
  // Names are derived from the class and the endpoints, not stored.
  EXPECT_EQ(ch.name(), "src0->root");
  EXPECT_DOUBLE_EQ(ch.params().length, 0.0);
}

TEST(NetworkTest, EndToEndThroughContainer) {
  Network net;
  auto& src = net.add_node<SourceNode>(0, 0);
  auto& sink = net.add_node<SinkNode>(7, 20);
  net.register_source(src);
  net.register_sink(sink);
  net.add_channel({.delay_fwd = 10, .delay_ack = 10, .length = 0},
                  ChannelClass::kOther, src, 0, sink, 0);

  const Message& msg = net.packets().create_message(0, DestSet::single(7), 0, true);
  const Packet& pkt = net.packets().create_packet(msg, DestSet::single(7), 3);
  src.enqueue_packet(pkt);
  net.scheduler().run();
  EXPECT_EQ(sink.flits_consumed(), 3u);
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
  auto& src = net.add_node<SourceNode>(0, 0);
  auto& sink = net.add_node<SinkNode>(0, 0);
  net.add_channel({}, ChannelClass::kOther, src, 0, sink, 0);
  const Message& msg = net.packets().create_message(0, DestSet::single(0), 0, false);
  src.enqueue_packet(net.packets().create_packet(msg, DestSet::single(0), 2));
  net.scheduler().run();
  EXPECT_EQ(counter.wires, 2);
  EXPECT_EQ(counter.ops, 4);  // 2 source sends + 2 sink consumes
}

}  // namespace
}  // namespace specnoc::noc
