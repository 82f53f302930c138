#include <vector>

#include <gtest/gtest.h>

#include "../support/test_nodes.h"
#include "noc/channel.h"
#include "noc/sink.h"
#include "noc/source.h"

namespace specnoc::noc {
namespace {

using specnoc::testing::RecordingEndpoint;

/// Collects traffic-observer events.
class CollectingObserver : public TrafficObserver {
 public:
  struct Ejection {
    PacketId packet;
    std::uint32_t dest;
    FlitKind kind;
    TimePs when;
  };
  void on_flit_ejected(const Packet& packet, std::uint32_t dest,
                       FlitKind kind, TimePs when) override {
    ejections.push_back({packet.id, dest, kind, when});
  }
  void on_packet_injected(const Packet& packet, TimePs when) override {
    injections.push_back({packet.id, when});
  }
  std::vector<Ejection> ejections;
  std::vector<std::pair<PacketId, TimePs>> injections;
};

TEST(SourceNodeTest, InjectsAllFlitsOfQueuedPacket) {
  sim::Scheduler sched;
  SimHooks hooks;
  PacketStore store;
  const Message& msg = store.create_message(0, DestSet::single(0), 0, false);
  const Packet& pkt = store.create_packet(msg, DestSet::single(0), 5);

  SourceNode src(sched, hooks, 0, /*issue_delay=*/10);
  RecordingEndpoint down(sched, hooks, /*ack_delay=*/0);
  const ChannelSpec spec{{.delay_fwd = 5, .delay_ack = 5, .length = 0}};
  WireChannel ch(spec);
  ch.connect(src, 0, down, 0);

  src.enqueue_packet(pkt);
  EXPECT_EQ(src.queued_packets(), 1u);
  sched.run();
  ASSERT_EQ(down.deliveries.size(), 5u);
  EXPECT_TRUE(down.deliveries.front().flit.is_header());
  EXPECT_TRUE(down.deliveries.back().flit.is_tail());
  EXPECT_EQ(src.queued_packets(), 0u);
  EXPECT_EQ(src.flits_enqueued(), 5u);
}

TEST(SourceNodeTest, ReportsInjectionAtHeaderIssue) {
  sim::Scheduler sched;
  SimHooks hooks;
  CollectingObserver obs;
  hooks.traffic = &obs;
  PacketStore store;
  const Message& msg = store.create_message(0, DestSet::single(0), 0, false);
  const Packet& pkt = store.create_packet(msg, DestSet::single(0), 3);

  SourceNode src(sched, hooks, 0, /*issue_delay=*/25);
  RecordingEndpoint down(sched, hooks, 0);
  const ChannelSpec spec{{.delay_fwd = 0, .delay_ack = 0, .length = 0}};
  WireChannel ch(spec);
  ch.connect(src, 0, down, 0);
  src.enqueue_packet(pkt);
  sched.run();
  ASSERT_EQ(obs.injections.size(), 1u);
  EXPECT_EQ(obs.injections[0].first, pkt.id);
  EXPECT_EQ(obs.injections[0].second, 25);  // issue delay before req
}

TEST(SourceNodeTest, PacketsSerializeInFifoOrder) {
  sim::Scheduler sched;
  SimHooks hooks;
  PacketStore store;
  const Message& msg =
      store.create_message(0, DestSet::single(0) | DestSet::single(1), 0, false);
  const Packet& p0 = store.create_packet(msg, DestSet::single(0), 2);
  const Packet& p1 = store.create_packet(msg, DestSet::single(1), 2);

  SourceNode src(sched, hooks, 0, 0);
  RecordingEndpoint down(sched, hooks, 0);
  const ChannelSpec spec{{.delay_fwd = 1, .delay_ack = 1, .length = 0}};
  WireChannel ch(spec);
  ch.connect(src, 0, down, 0);
  src.enqueue_packet(p0);
  src.enqueue_packet(p1);
  sched.run();
  ASSERT_EQ(down.deliveries.size(), 4u);
  EXPECT_EQ(down.deliveries[0].flit.packet, &p0);
  EXPECT_EQ(down.deliveries[1].flit.packet, &p0);
  EXPECT_EQ(down.deliveries[2].flit.packet, &p1);
  EXPECT_EQ(down.deliveries[3].flit.packet, &p1);
}

TEST(SourceNodeTest, RefillCallbackKeepsSourceBacklogged) {
  sim::Scheduler sched;
  SimHooks hooks;
  PacketStore store;
  const Message& msg = store.create_message(0, DestSet::single(0), 0, false);

  SourceNode src(sched, hooks, 0, 0);
  RecordingEndpoint down(sched, hooks, 0);
  const ChannelSpec spec{{.delay_fwd = 1, .delay_ack = 1, .length = 0}};
  WireChannel ch(spec);
  ch.connect(src, 0, down, 0);

  int generated = 0;
  src.set_refill(2, [&] {
    if (generated < 6) {
      ++generated;
      src.enqueue_packet(store.create_packet(msg, DestSet::single(0), 1));
    }
  });
  sched.run();
  EXPECT_EQ(generated, 6);
  EXPECT_EQ(down.deliveries.size(), 6u);
}

TEST(SinkNodeTest, ConsumesAndReportsEjection) {
  sim::Scheduler sched;
  SimHooks hooks;
  CollectingObserver obs;
  hooks.traffic = &obs;
  PacketStore store;
  const Message& msg = store.create_message(0, DestSet::single(3), 0, true);
  const Packet& pkt = store.create_packet(msg, DestSet::single(3), 2);

  SourceNode src(sched, hooks, 0, 0);
  SinkNode sink(sched, hooks, /*dest_id=*/3, /*consume_delay=*/40);
  const ChannelSpec spec{{.delay_fwd = 10, .delay_ack = 10, .length = 0}};
  WireChannel ch(spec);
  ch.connect(src, 0, sink, 0);
  src.enqueue_packet(pkt);
  sched.run();
  ASSERT_EQ(obs.ejections.size(), 2u);
  EXPECT_EQ(obs.ejections[0].dest, 3u);
  EXPECT_EQ(obs.ejections[0].kind, FlitKind::kHeader);
  // issue 0 + fwd 10 + consume 40 = 50.
  EXPECT_EQ(obs.ejections[0].when, 50);
  EXPECT_EQ(obs.ejections[1].kind, FlitKind::kTail);
  EXPECT_EQ(sink.flits_consumed(), 2u);
}

TEST(SinkNodeTest, BackpressuresWhileConsuming) {
  sim::Scheduler sched;
  SimHooks hooks;
  PacketStore store;
  const Message& msg = store.create_message(0, DestSet::single(0), 0, false);
  const Packet& pkt = store.create_packet(msg, DestSet::single(0), 3);

  SourceNode src(sched, hooks, 0, 0);
  SinkNode sink(sched, hooks, 0, /*consume_delay=*/100);
  const ChannelSpec spec{{.delay_fwd = 0, .delay_ack = 0, .length = 0}};
  WireChannel ch(spec);
  ch.connect(src, 0, sink, 0);
  src.enqueue_packet(pkt);
  sched.run();
  // Each flit takes consume_delay before ack; total = 3 * 100.
  EXPECT_EQ(sched.now(), 300);
  EXPECT_EQ(sink.flits_consumed(), 3u);
}

}  // namespace
}  // namespace specnoc::noc
