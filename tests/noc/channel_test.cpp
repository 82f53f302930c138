#include "noc/channel.h"

#include <gtest/gtest.h>

#include "../support/test_nodes.h"
#include "sim/scheduler.h"

namespace specnoc::noc {
namespace {

using specnoc::testing::DriverEndpoint;
using specnoc::testing::RecordingEndpoint;

TEST(ChannelTest, DeliversAfterForwardDelay) {
  sim::Scheduler sched;
  SimHooks hooks;
  PacketStore store;
  const Message& msg = store.create_message(0, DestSet::single(0), 0, false);
  const Packet& pkt = store.create_packet(msg, DestSet::single(0), 5);

  DriverEndpoint up(sched, hooks);
  RecordingEndpoint down(sched, hooks, /*ack_delay=*/0);
  const ChannelSpec spec{{.delay_fwd = 120, .delay_ack = 80, .length = 900}};
  WireChannel ch(spec);
  ch.connect(up, 0, down, 0);

  EXPECT_TRUE(ch.free());
  up.send(0, make_flit(pkt, 0));
  EXPECT_FALSE(ch.free());
  sched.run();
  ASSERT_EQ(down.deliveries.size(), 1u);
  EXPECT_EQ(down.deliveries[0].when, 120);
  EXPECT_EQ(down.deliveries[0].flit.packet, &pkt);
}

TEST(ChannelTest, AckFreesChannelAfterAckDelay) {
  sim::Scheduler sched;
  SimHooks hooks;
  PacketStore store;
  const Message& msg = store.create_message(0, DestSet::single(0), 0, false);
  const Packet& pkt = store.create_packet(msg, DestSet::single(0), 5);

  DriverEndpoint up(sched, hooks);
  RecordingEndpoint down(sched, hooks, /*ack_delay=*/50);
  const ChannelSpec spec{{.delay_fwd = 100, .delay_ack = 70, .length = 0}};
  WireChannel ch(spec);
  ch.connect(up, 0, down, 0);

  up.send(0, make_flit(pkt, 0));
  sched.run();
  // deliver @100, downstream ack @150, ack wire 70 -> upstream free @220.
  ASSERT_EQ(up.ack_times.size(), 1u);
  EXPECT_EQ(up.ack_times[0].second, 220);
  EXPECT_TRUE(ch.free());
}

TEST(ChannelTest, BackToBackTransactions) {
  sim::Scheduler sched;
  SimHooks hooks;
  PacketStore store;
  const Message& msg = store.create_message(0, DestSet::single(0), 0, false);
  const Packet& pkt = store.create_packet(msg, DestSet::single(0), 5);

  DriverEndpoint up(sched, hooks);
  RecordingEndpoint down(sched, hooks, /*ack_delay=*/0);
  const ChannelSpec spec{{.delay_fwd = 10, .delay_ack = 10, .length = 0}};
  WireChannel ch(spec);
  ch.connect(up, 0, down, 0);

  std::uint32_t next_seq = 1;
  up.on_ack = [&](std::uint32_t port) {
    if (next_seq < 3) {
      up.send(port, make_flit(pkt, next_seq++));
    }
  };
  up.send(0, make_flit(pkt, 0));
  sched.run();
  ASSERT_EQ(down.deliveries.size(), 3u);
  // Cycle: fwd 10 + ack 0 + ack wire 10 = 20 between sends; arrivals at
  // 10, 30, 50.
  EXPECT_EQ(down.deliveries[0].when, 10);
  EXPECT_EQ(down.deliveries[1].when, 30);
  EXPECT_EQ(down.deliveries[2].when, 50);
}

TEST(ChannelTest, CountsFlitsCarried) {
  sim::Scheduler sched;
  SimHooks hooks;
  PacketStore store;
  const Message& msg = store.create_message(0, DestSet::single(0), 0, false);
  const Packet& pkt = store.create_packet(msg, DestSet::single(0), 5);

  DriverEndpoint up(sched, hooks);
  RecordingEndpoint down(sched, hooks, 0);
  const ChannelSpec spec{{.delay_fwd = 1, .delay_ack = 1, .length = 0}};
  WireChannel ch(spec);
  ch.connect(up, 0, down, 0);

  std::uint32_t next_seq = 1;
  up.on_ack = [&](std::uint32_t port) {
    if (next_seq < 5) up.send(port, make_flit(pkt, next_seq++));
  };
  up.send(0, make_flit(pkt, 0));
  sched.run();
  // The channel keeps no flit counter; the far end saw every flit once.
  ASSERT_EQ(down.deliveries.size(), 5u);
  for (std::uint32_t seq = 0; seq < 5; ++seq) {
    EXPECT_EQ(down.deliveries[seq].flit.seq, seq);
  }
}

TEST(PipelinedChannelTest, CapacityTwoAcksUpstreamBeforeNodeAck) {
  sim::Scheduler sched;
  SimHooks hooks;
  PacketStore store;
  const Message& msg = store.create_message(0, DestSet::single(0), 0, false);
  const Packet& pkt = store.create_packet(msg, DestSet::single(0), 5);

  DriverEndpoint up(sched, hooks);
  RecordingEndpoint down(sched, hooks, /*ack_delay=*/1000);  // slow node
  const ChannelSpec spec{
      {.delay_fwd = 10, .delay_ack = 10, .length = 0, .capacity = 2}};
  PipeChannel ch(spec);
  ch.connect(up, 0, down, 0);

  up.send(0, make_flit(pkt, 0));
  sched.run_until(100);
  // First FIFO stage freed immediately: upstream ack at +10, long before
  // the slow node acks (at ~1020).
  ASSERT_EQ(up.ack_times.size(), 1u);
  EXPECT_EQ(up.ack_times[0].second, 10);
  EXPECT_EQ(ch.occupancy(), 1u);
  sched.run();
}

TEST(PipelinedChannelTest, FullPipeDefersUpstreamAck) {
  sim::Scheduler sched;
  SimHooks hooks;
  PacketStore store;
  const Message& msg = store.create_message(0, DestSet::single(0), 0, false);
  const Packet& pkt = store.create_packet(msg, DestSet::single(0), 5);

  DriverEndpoint up(sched, hooks);
  RecordingEndpoint down(sched, hooks, /*ack_delay=*/500);
  const ChannelSpec spec{
      {.delay_fwd = 10, .delay_ack = 10, .length = 0, .capacity = 2}};
  PipeChannel ch(spec);
  ch.connect(up, 0, down, 0);

  std::uint32_t next_seq = 1;
  up.on_ack = [&](std::uint32_t port) {
    if (next_seq < 3) up.send(port, make_flit(pkt, next_seq++));
  };
  up.send(0, make_flit(pkt, 0));
  sched.run();
  // All three flits delivered, in order, despite the slow consumer.
  ASSERT_EQ(down.deliveries.size(), 3u);
  EXPECT_EQ(down.deliveries[0].flit.seq, 0u);
  EXPECT_EQ(down.deliveries[1].flit.seq, 1u);
  EXPECT_EQ(down.deliveries[2].flit.seq, 2u);
  // Flit 1 delivered only after the node acked flit 0 (~520);
  // flit 2's send was deferred until a slot freed.
  EXPECT_GE(down.deliveries[1].when, 510);
  EXPECT_TRUE(ch.free());
  EXPECT_EQ(ch.occupancy(), 0u);
}

TEST(PipelinedChannelTest, CapacityOneMatchesPlainWireTiming) {
  // capacity=1 must behave exactly like the unpipelined channel: upstream
  // ack only after the downstream node disposes of the flit.
  sim::Scheduler sched;
  SimHooks hooks;
  PacketStore store;
  const Message& msg = store.create_message(0, DestSet::single(0), 0, false);
  const Packet& pkt = store.create_packet(msg, DestSet::single(0), 5);

  DriverEndpoint up(sched, hooks);
  RecordingEndpoint down(sched, hooks, /*ack_delay=*/50);
  const ChannelSpec spec{
      {.delay_fwd = 100, .delay_ack = 70, .length = 0, .capacity = 1}};
  WireChannel ch(spec);
  ch.connect(up, 0, down, 0);
  up.send(0, make_flit(pkt, 0));
  sched.run();
  ASSERT_EQ(up.ack_times.size(), 1u);
  EXPECT_EQ(up.ack_times[0].second, 220);  // 100 + 50 + 70
}

TEST(ChannelTest, ZeroDelayChannelStillHandshakes) {
  sim::Scheduler sched;
  SimHooks hooks;
  PacketStore store;
  const Message& msg = store.create_message(0, DestSet::single(0), 0, false);
  const Packet& pkt = store.create_packet(msg, DestSet::single(0), 5);

  DriverEndpoint up(sched, hooks);
  RecordingEndpoint down(sched, hooks, 0);
  const ChannelSpec spec{{.delay_fwd = 0, .delay_ack = 0, .length = 0}};
  WireChannel ch(spec);
  ch.connect(up, 0, down, 0);
  up.send(0, make_flit(pkt, 0));
  sched.run();
  EXPECT_EQ(down.deliveries.size(), 1u);
  EXPECT_EQ(up.ack_times.size(), 1u);
  EXPECT_TRUE(ch.free());
}

}  // namespace
}  // namespace specnoc::noc
