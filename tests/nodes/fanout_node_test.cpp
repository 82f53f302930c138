#include "nodes/fanout_nodes.h"

#include <gtest/gtest.h>

#include "../support/test_nodes.h"
#include "noc/channel.h"
#include "sim/scheduler.h"

namespace specnoc::nodes {
namespace {

using noc::DestRange;
using noc::DestSet;
using noc::Flit;
using noc::Packet;
using specnoc::testing::DriverEndpoint;
using specnoc::testing::RecordingEndpoint;

/// Fixture wiring: driver -> (channel in) -> node -> (two channels out) ->
/// two recorders. Node covers destinations {0,1} (top) and {2,3} (bottom).
template <typename NodeT>
class FanoutHarness {
 public:
  explicit FanoutHarness(NodeCharacteristics chars,
                         DestRange top = DestRange{0, 2},
                         DestRange bottom = DestRange{2, 4},
                         TimePs sink_ack_delay = 0)
      : node(sched, hooks, intern_characteristics(chars), top, bottom),
        driver(sched, hooks),
        top_sink(sched, hooks, sink_ack_delay),
        bottom_sink(sched, hooks, sink_ack_delay),
        in(link),
        out0(link),
        out1(link) {
    in.connect(driver, 0, node, 0);
    out0.connect(node, 0, top_sink, 0);
    out1.connect(node, 1, bottom_sink, 0);
  }

  const Packet& make_packet(DestSet dests, std::uint32_t num_flits = 5) {
    const noc::Message& msg = store.create_message(0, dests, 0, false);
    return store.create_packet(msg, dests, num_flits);
  }

  /// Sends all flits of the packet back-to-back (respecting handshakes).
  void send_packet(const Packet& pkt) {
    next_seq_ = 1;
    driver.on_ack = [this, &pkt](std::uint32_t port) {
      if (next_seq_ < pkt.num_flits) {
        driver.send(port, make_flit(pkt, next_seq_++));
      }
    };
    driver.send(0, make_flit(pkt, 0));
  }

  sim::Scheduler sched;
  noc::SimHooks hooks;
  const noc::ChannelSpec link{{.delay_fwd = 5, .delay_ack = 5, .length = 0}};
  noc::PacketStore store;
  NodeT node;
  DriverEndpoint driver;
  RecordingEndpoint top_sink;
  RecordingEndpoint bottom_sink;
  noc::WireChannel in, out0, out1;

 private:
  std::uint32_t next_seq_ = 0;
};

NodeCharacteristics test_chars() {
  return {.area_um2 = 100.0, .fwd_header = 100, .fwd_body = 40,
          .ack_delay = 10};
}

TEST(NonSpecFanoutTest, UnicastRoutesToSingleOutput) {
  FanoutHarness<NonSpecFanoutNode> h(test_chars());
  const Packet& pkt = h.make_packet(DestSet::single(2));  // bottom subtree
  h.send_packet(pkt);
  h.sched.run();
  EXPECT_EQ(h.top_sink.deliveries.size(), 0u);
  EXPECT_EQ(h.bottom_sink.deliveries.size(), 5u);
}

TEST(NonSpecFanoutTest, MulticastToBothReplicates) {
  FanoutHarness<NonSpecFanoutNode> h(test_chars());
  const Packet& pkt = h.make_packet(DestSet::single(1) | DestSet::single(3));
  h.send_packet(pkt);
  h.sched.run();
  EXPECT_EQ(h.top_sink.deliveries.size(), 5u);
  EXPECT_EQ(h.bottom_sink.deliveries.size(), 5u);
}

TEST(NonSpecFanoutTest, MisroutedPacketThrottledEntirely) {
  FanoutHarness<NonSpecFanoutNode> h(test_chars());
  // Destination 7 lies in neither subtree of this node.
  const Packet& pkt = h.make_packet(DestSet::single(7));
  h.send_packet(pkt);
  h.sched.run();
  EXPECT_EQ(h.top_sink.deliveries.size(), 0u);
  EXPECT_EQ(h.bottom_sink.deliveries.size(), 0u);
  // All five flits were consumed and acked.
  EXPECT_EQ(h.driver.ack_times.size(), 5u);
}

TEST(NonSpecFanoutTest, HeaderForwardLatency) {
  FanoutHarness<NonSpecFanoutNode> h(test_chars());
  const Packet& pkt = h.make_packet(DestSet::single(0), 1);
  h.send_packet(pkt);
  h.sched.run();
  ASSERT_EQ(h.top_sink.deliveries.size(), 1u);
  // in wire 5 + fwd 100 + out wire 5 = 110.
  EXPECT_EQ(h.top_sink.deliveries[0].when, 110);
}

TEST(NonSpecFanoutTest, AckAfterForwardTiming) {
  FanoutHarness<NonSpecFanoutNode> h(test_chars());
  const Packet& pkt = h.make_packet(DestSet::single(0), 1);
  h.send_packet(pkt);
  h.sched.run();
  ASSERT_EQ(h.driver.ack_times.size(), 1u);
  // deliver@5, process@105 (send), ack gen +10, ack wire +5 = 120.
  EXPECT_EQ(h.driver.ack_times[0].second, 120);
}

TEST(SpecFanoutTest, AlwaysBroadcastsUnicast) {
  FanoutHarness<SpecFanoutNode> h(test_chars());
  const Packet& pkt = h.make_packet(DestSet::single(0));
  h.send_packet(pkt);
  h.sched.run();
  // Both outputs get all five flits, even though only top is correct.
  EXPECT_EQ(h.top_sink.deliveries.size(), 5u);
  EXPECT_EQ(h.bottom_sink.deliveries.size(), 5u);
}

TEST(SpecFanoutTest, BroadcastsMisroutedPacketToo) {
  FanoutHarness<SpecFanoutNode> h(test_chars());
  const Packet& pkt = h.make_packet(DestSet::single(7), 2);
  h.send_packet(pkt);
  h.sched.run();
  EXPECT_EQ(h.top_sink.deliveries.size(), 2u);
  EXPECT_EQ(h.bottom_sink.deliveries.size(), 2u);
}

TEST(SpecFanoutTest, CElementWaitsForBothOutputs) {
  // Bottom sink acks slowly; the input ack must still occur only after the
  // flit was issued on both outputs — but issuing does not wait for the
  // downstream ack, so back-to-back flits are limited by the slow output.
  FanoutHarness<SpecFanoutNode> h(test_chars(),
                                  DestRange{0, 2}, DestRange{2, 4},
                                  /*sink_ack_delay=*/200);
  const Packet& pkt = h.make_packet(DestSet::single(0), 2);
  h.send_packet(pkt);
  h.sched.run();
  ASSERT_EQ(h.top_sink.deliveries.size(), 2u);
  ASSERT_EQ(h.bottom_sink.deliveries.size(), 2u);
  // First flit: deliver@5, send both@105 -> sinks at 110. Sinks ack at
  // 310 (200 delay), wire 5 -> outputs free at 315. Second flit was
  // delivered at 5+100+10+5(ack gen+wire)=120... then waits: processed
  // at 120+40(body fwd)=160, outputs busy until 315, so sent at 315,
  // arriving 320.
  EXPECT_EQ(h.top_sink.deliveries[1].when, 320);
}

TEST(SpecFanoutTest, FasterThanNonSpecForSameTraffic) {
  NodeCharacteristics spec = test_chars();
  spec.fwd_header = spec.fwd_body = 10;  // speculative nodes are fast
  FanoutHarness<SpecFanoutNode> fast(spec);
  FanoutHarness<NonSpecFanoutNode> slow(test_chars());
  const Packet& p1 = fast.make_packet(DestSet::single(0), 1);
  const Packet& p2 = slow.make_packet(DestSet::single(0), 1);
  fast.send_packet(p1);
  slow.send_packet(p2);
  fast.sched.run();
  slow.sched.run();
  EXPECT_LT(fast.top_sink.deliveries[0].when,
            slow.top_sink.deliveries[0].when);
}

TEST(OptSpecFanoutTest, HeaderAndTailBroadcastBodyRouted) {
  FanoutHarness<OptSpecFanoutNode> h(test_chars());
  const Packet& pkt = h.make_packet(DestSet::single(0), 5);  // top is correct
  h.send_packet(pkt);
  h.sched.run();
  // Top (correct): header + 3 bodies + tail = 5.
  EXPECT_EQ(h.top_sink.deliveries.size(), 5u);
  // Bottom (wrong): header + tail only = 2.
  ASSERT_EQ(h.bottom_sink.deliveries.size(), 2u);
  EXPECT_TRUE(h.bottom_sink.deliveries[0].flit.is_header());
  EXPECT_TRUE(h.bottom_sink.deliveries[1].flit.is_tail());
}

TEST(OptSpecFanoutTest, MulticastBodyGoesBothWays) {
  FanoutHarness<OptSpecFanoutNode> h(test_chars());
  const Packet& pkt = h.make_packet(DestSet::single(0) | DestSet::single(2), 5);
  h.send_packet(pkt);
  h.sched.run();
  EXPECT_EQ(h.top_sink.deliveries.size(), 5u);
  EXPECT_EQ(h.bottom_sink.deliveries.size(), 5u);
}

TEST(OptSpecFanoutTest, MisroutedBodyThrottled) {
  FanoutHarness<OptSpecFanoutNode> h(test_chars());
  const Packet& pkt = h.make_packet(DestSet::single(7), 5);
  h.send_packet(pkt);
  h.sched.run();
  // Header and tail are still (wastefully) broadcast; bodies die here.
  EXPECT_EQ(h.top_sink.deliveries.size(), 2u);
  EXPECT_EQ(h.bottom_sink.deliveries.size(), 2u);
}

TEST(OptNonSpecFanoutTest, BodyFastForwardLatency) {
  FanoutHarness<OptNonSpecFanoutNode> h(test_chars());
  const Packet& pkt = h.make_packet(DestSet::single(0), 2);
  h.send_packet(pkt);
  h.sched.run();
  ASSERT_EQ(h.top_sink.deliveries.size(), 2u);
  // Header: 5 + 100 + 5 = 110.
  EXPECT_EQ(h.top_sink.deliveries[0].when, 110);
  // Header acked at 120; driver sends tail, deliver@125, fast fwd 40,
  // out wire 5 -> 170.
  EXPECT_EQ(h.top_sink.deliveries[1].when, 170);
}

TEST(OptNonSpecFanoutTest, RoutesLikeNonSpec) {
  FanoutHarness<OptNonSpecFanoutNode> h(test_chars());
  const Packet& pkt = h.make_packet(DestSet::single(1) | DestSet::single(2), 5);
  h.send_packet(pkt);
  h.sched.run();
  EXPECT_EQ(h.top_sink.deliveries.size(), 5u);
  EXPECT_EQ(h.bottom_sink.deliveries.size(), 5u);
}

TEST(OptNonSpecFanoutTest, ThrottlesMisrouted) {
  FanoutHarness<OptNonSpecFanoutNode> h(test_chars());
  const Packet& pkt = h.make_packet(DestSet::single(6), 5);
  h.send_packet(pkt);
  h.sched.run();
  EXPECT_EQ(h.top_sink.deliveries.size(), 0u);
  EXPECT_EQ(h.bottom_sink.deliveries.size(), 0u);
  EXPECT_EQ(h.driver.ack_times.size(), 5u);
}

TEST(BaselineFanoutTest, RoutesUnicast) {
  FanoutHarness<BaselineFanoutNode> h(test_chars());
  const Packet& pkt = h.make_packet(DestSet::single(3), 5);
  h.send_packet(pkt);
  h.sched.run();
  EXPECT_EQ(h.top_sink.deliveries.size(), 0u);
  EXPECT_EQ(h.bottom_sink.deliveries.size(), 5u);
}

TEST(FanoutNodesTest, EnergyOpsReported) {
  class CountingEnergy : public noc::EnergyObserver {
   public:
    void on_node_op(const noc::Node&, noc::NodeOp op, TimePs) override {
      switch (op) {
        case noc::NodeOp::kBroadcast: ++broadcasts; break;
        case noc::NodeOp::kRouteForward: ++routes; break;
        case noc::NodeOp::kThrottle: ++throttles; break;
        case noc::NodeOp::kFastForward: ++fast; break;
        default: break;
      }
    }
    void on_channel_flit(LengthUm, TimePs) override { ++channel_flits; }
    int broadcasts = 0, routes = 0, throttles = 0, fast = 0;
    int channel_flits = 0;
  };

  FanoutHarness<OptSpecFanoutNode> h(test_chars());
  CountingEnergy energy;
  h.hooks.energy = &energy;
  const Packet& pkt = h.make_packet(DestSet::single(0), 5);
  h.send_packet(pkt);
  h.sched.run();
  EXPECT_EQ(energy.broadcasts, 2);  // header + tail
  EXPECT_EQ(energy.routes, 3);      // three body flits
  EXPECT_EQ(energy.throttles, 0);
  // 5 flits in + 5 out on top + 2 out on bottom.
  EXPECT_EQ(energy.channel_flits, 12);
}

}  // namespace
}  // namespace specnoc::nodes
