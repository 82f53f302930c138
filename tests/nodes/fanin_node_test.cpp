#include "nodes/fanin_node.h"

#include <gtest/gtest.h>

#include <vector>

#include "../support/test_nodes.h"
#include "noc/channel.h"
#include "sim/scheduler.h"
#include "util/intern.h"

namespace specnoc::nodes {
namespace {

using noc::DestSet;

using noc::Packet;
using specnoc::testing::DriverEndpoint;
using specnoc::testing::RecordingEndpoint;

class FaninHarness {
 public:
  explicit FaninHarness(TimePs sink_ack_delay = 0,
                        std::uint32_t buffer_flits = 8)
      : node(sched, hooks,
             util::intern(FaninSpec{.chars = {.area_um2 = 100.0,
                                              .fwd_header = 50,
                                              .fwd_body = 50,
                                              .ack_delay = 10}}),
             buffer_flits),
        up0(sched, hooks), up1(sched, hooks),
        sink(sched, hooks, sink_ack_delay),
        in0(link),
        in1(link),
        out(link) {
    in0.connect(up0, 0, node, 0);
    in1.connect(up1, 0, node, 1);
    out.connect(node, 0, sink, 0);
  }

  const Packet& make_packet(std::uint32_t num_flits = 3) {
    const noc::Message& msg = store.create_message(0, DestSet::single(0), 0, false);
    return store.create_packet(msg, DestSet::single(0), num_flits);
  }

  /// Streams a whole packet from the given driver (handshake-respecting).
  void stream(DriverEndpoint& drv, const Packet& pkt) {
    auto seq = std::make_shared<std::uint32_t>(1);
    drv.on_ack = [&drv, &pkt, seq](std::uint32_t port) {
      if (*seq < pkt.num_flits) {
        drv.send(port, noc::make_flit(pkt, (*seq)++));
      }
    };
    drv.send(0, noc::make_flit(pkt, 0));
  }

  sim::Scheduler sched;
  noc::SimHooks hooks;
  const noc::ChannelSpec link{{.delay_fwd = 5, .delay_ack = 5, .length = 0}};
  noc::PacketStore store;
  FaninNode node;
  DriverEndpoint up0, up1;
  RecordingEndpoint sink;
  noc::WireChannel in0, in1, out;
};

TEST(FaninNodeTest, ForwardsSingleInputPacket) {
  FaninHarness h;
  const Packet& pkt = h.make_packet(3);
  h.stream(h.up0, pkt);
  h.sched.run();
  ASSERT_EQ(h.sink.deliveries.size(), 3u);
  // Header: in wire 5 + entry latency 50 + out wire 5 = 60.
  EXPECT_EQ(h.sink.deliveries[0].when, 60);
  EXPECT_TRUE(h.sink.deliveries[2].flit.is_tail());
}

TEST(FaninNodeTest, PerPacketFlitOrderPreserved) {
  FaninHarness h;
  const Packet& a = h.make_packet(4);
  const Packet& b = h.make_packet(4);
  h.stream(h.up0, a);
  h.stream(h.up1, b);
  h.sched.run();
  ASSERT_EQ(h.sink.deliveries.size(), 8u);
  // Flits of a and b may interleave (flit-level arbitration, source tags),
  // but each packet's own flits must arrive in sequence order.
  std::uint32_t next_a = 0, next_b = 0;
  for (const auto& d : h.sink.deliveries) {
    if (d.flit.packet == &a) {
      EXPECT_EQ(d.flit.seq, next_a++);
    } else {
      ASSERT_EQ(d.flit.packet, &b);
      EXPECT_EQ(d.flit.seq, next_b++);
    }
  }
  EXPECT_EQ(next_a, 4u);
  EXPECT_EQ(next_b, 4u);
}

TEST(FaninNodeTest, WormholeStickiness_WinnerStreamsContiguously) {
  FaninHarness h;
  const Packet& a = h.make_packet(6);
  const Packet& b = h.make_packet(6);
  h.stream(h.up0, a);
  h.stream(h.up1, b);
  h.sched.run();
  ASSERT_EQ(h.sink.deliveries.size(), 12u);
  // Packet-sticky arbitration: the winning packet's six flits come out
  // contiguously, then the loser's (wormhole behaviour).
  const Packet* winner = h.sink.deliveries[0].flit.packet;
  for (int i = 0; i < 6; ++i) {
    EXPECT_EQ(h.sink.deliveries[static_cast<std::size_t>(i)].flit.packet,
              winner);
  }
}

TEST(FaninNodeTest, WatchdogReleasesStarvedHold) {
  // Input 0's packet opens the output but its second flit never comes; the
  // watchdog must release the hold so input 1's packet is not blocked
  // forever (the deadlock-recovery mechanism).
  FaninHarness h;
  const Packet& a = h.make_packet(3);
  const Packet& b = h.make_packet(2);
  h.up0.send(0, noc::make_flit(a, 0));  // header only, body withheld
  h.sched.schedule(300, [&] { h.stream(h.up1, b); });
  h.sched.run_until(200000);
  // b's two flits were delivered despite a's packet being open and
  // starved.
  std::size_t b_flits = 0;
  for (const auto& d : h.sink.deliveries) {
    if (d.flit.packet == &b) ++b_flits;
  }
  EXPECT_EQ(b_flits, 2u);
}

TEST(FaninNodeTest, GrantAfterArmingMakesTheWatchdogStale) {
  // The watchdog armed while input 0's open packet starves must not
  // release the hold if a grant to that packet lands before it fires: it
  // is stale, and only re-arms. Timeline (sticky timeout 1200): a's header
  // is granted at 55 and the hold armed at 115 (fires at 1315); a's body
  // is granted at 655; input 1's packet b waits from 305.
  class Releases final : public noc::MetricsObserver {
   public:
    void on_flit_killed(const noc::Node&, const noc::Flit&,
                        TimePs) override {}
    void on_prealloc(const noc::Node&, bool, TimePs) override {}
    void on_contended_grant(const noc::Node&, TimePs) override {}
    void on_watchdog_release(const noc::Node&, TimePs when) override {
      times.push_back(when);
    }
    void on_channel_stall(const noc::Channel&, TimePs, TimePs) override {}
    std::vector<TimePs> times;
  };
  FaninHarness h;
  Releases releases;
  h.hooks.metrics = &releases;
  const Packet& a = h.make_packet(3);
  const Packet& b = h.make_packet(2);
  h.up0.send(0, noc::make_flit(a, 0));
  h.sched.schedule(300, [&] { h.stream(h.up1, b); });
  h.sched.schedule(600, [&] { h.up0.send(0, noc::make_flit(a, 1)); });
  h.sched.run_until(1316);
  // The watchdog fired at 1315 and released nothing: a still holds the
  // output, and b has not passed.
  EXPECT_TRUE(releases.times.empty());
  EXPECT_EQ(h.node.open_packet_input(), 0);
  ASSERT_EQ(h.sink.deliveries.size(), 2u);
  EXPECT_EQ(h.sink.deliveries[1].flit.packet, &a);
  // The re-armed watchdog (1315 + 1200) is live: with a's tail withheld,
  // it releases the hold then, and b streams.
  h.sched.run_until(5000);
  EXPECT_EQ(releases.times, std::vector<TimePs>{2515});
  EXPECT_EQ(h.sink.deliveries.size(), 4u);
  EXPECT_EQ(h.sink.deliveries[2].flit.packet, &b);
}

TEST(FaninNodeTest, FcfsGrantsEarlierArrival) {
  FaninHarness h;
  const Packet& a = h.make_packet(2);
  const Packet& b = h.make_packet(2);
  // Input 1's header arrives strictly earlier.
  h.stream(h.up1, b);
  h.sched.schedule(100, [&] { h.stream(h.up0, a); });
  h.sched.run();
  ASSERT_EQ(h.sink.deliveries.size(), 4u);
  EXPECT_EQ(h.sink.deliveries[0].flit.packet, &b);
}

TEST(FaninNodeTest, SingleFlitPackets) {
  FaninHarness h;
  const Packet& a = h.make_packet(1);
  const Packet& b = h.make_packet(1);
  const Packet& c = h.make_packet(1);
  h.stream(h.up0, a);
  h.stream(h.up1, b);
  h.sched.schedule(500, [&] { h.stream(h.up0, c); });
  h.sched.run();
  EXPECT_EQ(h.sink.deliveries.size(), 3u);
}

TEST(FaninNodeTest, BackpressureFromSlowSink) {
  FaninHarness h(/*sink_ack_delay=*/1000);
  const Packet& a = h.make_packet(2);
  h.stream(h.up0, a);
  h.sched.run();
  ASSERT_EQ(h.sink.deliveries.size(), 2u);
  // Second flit cannot be forwarded until the sink acks the first
  // (deliver@60, sink ack@1060, ack wire 5, grant+send@1065, deliver@1070).
  EXPECT_EQ(h.sink.deliveries[1].when, 1070);
}

TEST(FaninNodeTest, LosingPacketIsAbsorbedIntoInputBuffer) {
  // The input FIFO decouples the upstream handshake from arbitration: a
  // packet facing a busy output is buffered (upstream acked promptly) up to
  // the FIFO depth.
  FaninHarness h(/*sink_ack_delay=*/5000, /*buffer_flits=*/8);
  const Packet& a = h.make_packet(5);
  const Packet& b = h.make_packet(5);
  h.stream(h.up0, a);
  h.stream(h.up1, b);
  h.sched.run_until(4000);
  // Both upstreams fully acked even though at most one flit has passed the
  // slow sink.
  EXPECT_EQ(h.up0.ack_times.size(), 5u);
  EXPECT_EQ(h.up1.ack_times.size(), 5u);
  h.sched.run();
  EXPECT_EQ(h.sink.deliveries.size(), 10u);
}

TEST(FaninNodeTest, FullBufferDefersUpstreamAck) {
  // With a buffer of 2 flits, the third flit's ack waits until the head is
  // forwarded.
  FaninHarness h(/*sink_ack_delay=*/5000, /*buffer_flits=*/2);
  const Packet& a = h.make_packet(5);
  h.stream(h.up0, a);
  h.sched.run_until(4000);
  // The header was forwarded into the slow sink; the 2-slot buffer holds
  // flits 2 and 3, with flit 3's ack deferred until a slot frees.
  EXPECT_EQ(h.up0.ack_times.size(), 2u);
  h.sched.run();
  EXPECT_EQ(h.sink.deliveries.size(), 5u);
}

TEST(FaninNodeTest, DepthOneBufferDefersEveryAckUntilForwarded) {
  // A 1-flit buffer is full as soon as a flit enters it: the header's ack
  // waits for its own forwarding and the second flit's for the slow sink.
  FaninHarness h(/*sink_ack_delay=*/5000, /*buffer_flits=*/1);
  const Packet& a = h.make_packet(5);
  h.stream(h.up0, a);
  h.sched.run_until(4000);
  EXPECT_EQ(h.up0.ack_times.size(), 1u);
  h.sched.run();
  EXPECT_EQ(h.sink.deliveries.size(), 5u);
}

TEST(FaninNodeTest, ArbitrationEnergyCounted) {
  class CountingEnergy : public noc::EnergyObserver {
   public:
    void on_node_op(const noc::Node&, noc::NodeOp op, TimePs) override {
      if (op == noc::NodeOp::kArbitrate) ++arbitrations;
    }
    void on_channel_flit(LengthUm, TimePs) override {}
    int arbitrations = 0;
  };
  FaninHarness h;
  CountingEnergy energy;
  h.hooks.energy = &energy;
  const Packet& a = h.make_packet(4);
  h.stream(h.up0, a);
  h.sched.run();
  EXPECT_EQ(energy.arbitrations, 4);
}

}  // namespace
}  // namespace specnoc::nodes
