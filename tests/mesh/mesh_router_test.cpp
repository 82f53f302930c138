// Isolated mesh-router unit tests: a single router wired to test endpoints.
#include "mesh/mesh_router.h"

#include <map>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "../support/test_nodes.h"
#include "noc/channel.h"

namespace specnoc::mesh {
namespace {

using noc::DestSet;

using noc::Packet;
using specnoc::testing::DriverEndpoint;
using specnoc::testing::RecordingEndpoint;

/// One router of a 3x3 mesh at the center (id 4, coords (1,1)), with a
/// driver on one input and recorders on all five outputs.
template <typename RouterT>
class RouterHarness {
 public:
  explicit RouterHarness(std::uint32_t in_port, TimePs sink_ack_delay = 0,
                         TimePs fwd_header = 100)
      : topo(3, 3),
        router(sched, hooks,
               nodes::intern_characteristics(
                   {.area_um2 = 100.0, .fwd_header = fwd_header,
                    .fwd_body = 50, .ack_delay = 10,
                    .throttle_latency = 30}),
               topo, /*router_id=*/4, /*buffer=*/4, /*timeout=*/900),
        driver(sched, hooks) {
    in = std::make_unique<noc::WireChannel>(link);
    in->connect(driver, 0, router, in_port);
    // Outputs are distinct channels from inputs: every port gets a sink,
    // including the one whose input carries the driver.
    for (std::uint32_t p = 0; p < kNumPorts; ++p) {
      sinks.push_back(std::make_unique<RecordingEndpoint>(sched, hooks,
                                                          sink_ack_delay));
      outs.push_back(std::make_unique<noc::WireChannel>(link));
      outs.back()->connect(router, p, *sinks.back(), 0);
      sink_of_port[p] = sinks.back().get();
    }
  }

  const Packet& make_packet(std::uint32_t src, noc::DestSet dests,
                            std::uint32_t num_flits = 5) {
    const noc::Message& msg = store.create_message(src, dests, 0, false);
    return store.create_packet(msg, dests, num_flits);
  }

  void stream(const Packet& pkt) {
    auto seq = std::make_shared<std::uint32_t>(1);
    driver.on_ack = [this, &pkt, seq](std::uint32_t port) {
      if (*seq < pkt.num_flits) {
        driver.send(port, noc::make_flit(pkt, (*seq)++));
      }
    };
    driver.send(0, noc::make_flit(pkt, 0));
  }

  std::size_t delivered(Port port) const {
    const auto it = sink_of_port.find(static_cast<std::uint32_t>(port));
    return it == sink_of_port.end() ? 0 : it->second->deliveries.size();
  }

  sim::Scheduler sched;
  noc::SimHooks hooks;
  const noc::ChannelSpec link{{.delay_fwd = 5, .delay_ack = 5, .length = 0}};
  noc::PacketStore store;
  MeshTopology topo;
  RouterT router;
  DriverEndpoint driver;
  std::unique_ptr<noc::WireChannel> in;
  std::vector<std::unique_ptr<RecordingEndpoint>> sinks;
  std::vector<std::unique_ptr<noc::WireChannel>> outs;
  std::map<std::uint32_t, RecordingEndpoint*> sink_of_port;
};

constexpr auto kLocalIn = static_cast<std::uint32_t>(Port::kLocal);
constexpr auto kWestIn = static_cast<std::uint32_t>(Port::kWest);

TEST(MeshRouterUnitTest, UnicastLocalInjectionRoutesXFirst) {
  RouterHarness<MeshRouter> h(kLocalIn);
  // Router 4 is (1,1). Destination (2,2) = id 8: east first.
  const Packet& pkt = h.make_packet(4, DestSet::single(8));
  h.stream(pkt);
  h.sched.run();
  EXPECT_EQ(h.delivered(Port::kEast), 5u);
  EXPECT_EQ(h.delivered(Port::kSouth), 0u);
  EXPECT_EQ(h.delivered(Port::kNorth), 0u);
}

TEST(MeshRouterUnitTest, MulticastForksToAllNeededPorts) {
  RouterHarness<MeshRouter> h(kLocalIn);
  // From (1,1): dest 3 (0,1) west, dest 5 (2,1) east, dest 7 (1,2) south,
  // dest 4 itself local.
  const Packet& pkt =
      h.make_packet(4, DestSet::single(3) | DestSet::single(5) | DestSet::single(7) | DestSet::single(4));
  h.stream(pkt);
  h.sched.run();
  EXPECT_EQ(h.delivered(Port::kWest), 5u);
  EXPECT_EQ(h.delivered(Port::kEast), 5u);
  EXPECT_EQ(h.delivered(Port::kSouth), 5u);
  EXPECT_EQ(h.delivered(Port::kLocal), 5u);
  EXPECT_EQ(h.delivered(Port::kNorth), 0u);
}

TEST(MeshRouterUnitTest, MisroutedFlitThrottledFast) {
  // A flit arriving from the west whose packet's tree does not pass
  // through router 4 (src (0,0) -> dest (0,2): pure Y-leg in column 0).
  RouterHarness<MeshRouter> h(kWestIn);
  const Packet& pkt = h.make_packet(0, DestSet::single(6), 2);
  h.stream(pkt);
  h.sched.run();
  for (const Port port : {Port::kLocal, Port::kNorth, Port::kEast,
                          Port::kSouth}) {
    EXPECT_EQ(h.delivered(port), 0u);
  }
  EXPECT_EQ(h.router.throttled_flits(), 2u);
  // Both flits acked to the driver.
  EXPECT_EQ(h.driver.ack_times.size(), 2u);
}

TEST(MeshRouterUnitTest, ValidTreeArrivalForwarded) {
  // src (0,1)=3 -> dest (2,1)=5: the x-leg passes through (1,1) from west.
  RouterHarness<MeshRouter> h(kWestIn);
  const Packet& pkt = h.make_packet(3, DestSet::single(5));
  h.stream(pkt);
  h.sched.run();
  EXPECT_EQ(h.delivered(Port::kEast), 5u);
  EXPECT_EQ(h.router.throttled_flits(), 0u);
}

TEST(MeshRouterUnitTest, HeaderLatencyIsEntryPlusWires) {
  RouterHarness<MeshRouter> h(kLocalIn);
  const Packet& pkt = h.make_packet(4, DestSet::single(5), 1);
  h.stream(pkt);
  h.sched.run();
  ASSERT_EQ(h.delivered(Port::kEast), 1u);
  // wire 5 + entry 100 + out wire 5 = 110 (grant is immediate).
  EXPECT_EQ(h.sink_of_port[static_cast<std::uint32_t>(Port::kEast)]
                ->deliveries[0]
                .when,
            110);
}

TEST(SpecMeshRouterUnitTest, EarlyCopiesOnIdlePorts) {
  // Conventional path (400 ps) slower than the speculation stage (150 ps),
  // as in the default characteristics.
  RouterHarness<SpecMeshRouter> h(kLocalIn, 0, /*fwd_header=*/400);
  const Packet& pkt = h.make_packet(4, DestSet::single(5), 1);  // east dest
  h.stream(pkt);
  h.sched.run();
  // The speculative stage (150 ps) broadcast to all four idle mesh ports;
  // the east copy doubles as the tree copy, so east got exactly one flit.
  EXPECT_EQ(h.delivered(Port::kEast), 1u);
  EXPECT_EQ(h.delivered(Port::kWest), 1u);
  EXPECT_EQ(h.delivered(Port::kNorth), 1u);
  EXPECT_EQ(h.delivered(Port::kSouth), 1u);
  // Local ejection is never speculative and the packet is not for 4.
  EXPECT_EQ(h.delivered(Port::kLocal), 0u);
}

TEST(SpecMeshRouterUnitTest, EarlyCopyArrivesAtSpeculationLatency) {
  RouterHarness<SpecMeshRouter> h(kLocalIn, 0, /*fwd_header=*/400);
  const Packet& pkt = h.make_packet(4, DestSet::single(5), 1);
  h.stream(pkt);
  h.sched.run();
  // in wire 5 + speculation 150 + out wire 5 = 160, well before the
  // conventional 400 ps path would have forwarded it.
  ASSERT_EQ(h.delivered(Port::kEast), 1u);
  EXPECT_EQ(h.sink_of_port[static_cast<std::uint32_t>(Port::kEast)]
                ->deliveries[0]
                .when,
            160);
}

TEST(SpecMeshRouterUnitTest, FastConventionalPathClosesSpeculationWindow) {
  // With a conventional path faster than the speculation stage, the flit
  // is forwarded conventionally and the late speculative event must not
  // re-send it (duplicate) — only the tree port sees the flit.
  RouterHarness<SpecMeshRouter> h(kLocalIn, 0, /*fwd_header=*/100);
  const Packet& pkt = h.make_packet(4, DestSet::single(5), 1);
  h.stream(pkt);
  h.sched.run();
  EXPECT_EQ(h.delivered(Port::kEast), 1u);
  EXPECT_EQ(h.delivered(Port::kWest), 0u);
  EXPECT_EQ(h.delivered(Port::kNorth), 0u);
}

TEST(SpecMeshRouterUnitTest, BusyPortsAreSkippedNotWaitedOn) {
  // Make the east sink very slow so its port is busy when later flits'
  // speculation fires; those flits must still pop (tree port = east is
  // needed, so they wait for east only; but the *north/west/south*
  // speculative copies of later flits are skipped without stalling).
  RouterHarness<SpecMeshRouter> h(kLocalIn, /*sink_ack_delay=*/2000,
                                  /*fwd_header=*/400);
  const Packet& pkt = h.make_packet(4, DestSet::single(5), 3);  // east dest
  h.stream(pkt);
  h.sched.run();
  // All three flits eventually delivered east (the guaranteed tree path).
  EXPECT_EQ(h.delivered(Port::kEast), 3u);
  // The sideways ports got at most one early copy each (the first flit's);
  // later flits found them busy (slow acks) and skipped.
  EXPECT_LE(h.delivered(Port::kNorth), 3u);
}

TEST(SpecMeshRouterUnitTest, LocalEjectionStillExact) {
  RouterHarness<SpecMeshRouter> h(kWestIn, 0, /*fwd_header=*/400);
  // src (0,1) -> dest (1,1) = router 4 itself: valid arrival, local only.
  const Packet& pkt = h.make_packet(3, DestSet::single(4), 5);
  h.stream(pkt);
  h.sched.run();
  EXPECT_EQ(h.delivered(Port::kLocal), 5u);
}

}  // namespace
}  // namespace specnoc::mesh
