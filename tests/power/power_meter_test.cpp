#include "power/power_meter.h"

#include <gtest/gtest.h>

#include "core/mot_network.h"
#include "mesh/mesh_network.h"
#include "nodes/fanout_nodes.h"

namespace specnoc::power {
namespace {

using noc::DestSet;

using core::Architecture;

TEST(EnergyModelTest, ActivityFactors) {
  EnergyModelParams params;
  EXPECT_DOUBLE_EQ(params.activity_factor(noc::NodeOp::kRouteForward),
                   params.factor_route);
  EXPECT_DOUBLE_EQ(params.activity_factor(noc::NodeOp::kBroadcast),
                   params.factor_broadcast);
  EXPECT_GT(params.factor_broadcast, params.factor_route);
  EXPECT_LT(params.factor_throttle, params.factor_fast_forward);
}

TEST(PowerMeterTest, WindowGatingExcludesOutsideEvents) {
  core::NetworkConfig cfg;
  core::MotNetwork net(Architecture::kBasicNonSpeculative, cfg);
  PowerMeter meter;
  net.net().hooks().energy = &meter;

  // One message before the window, one inside.
  net.send_message(0, DestSet::single(3), false);
  net.scheduler().run();
  const EnergyFj before_window = meter.total_energy();
  EXPECT_GT(before_window, 0.0);

  meter.open_window(net.scheduler().now());
  net.send_message(0, DestSet::single(3), false);
  net.scheduler().run();
  meter.close_window(net.scheduler().now());
  // The window saw exactly one message's worth of energy.
  EXPECT_NEAR(meter.window_energy(), before_window, before_window * 1e-9);
  EXPECT_NEAR(meter.total_energy(), 2 * before_window, before_window * 1e-9);
}

TEST(PowerMeterTest, PowerIsEnergyOverDuration) {
  EnergyModelParams params;
  params.wire_fj_per_um = 0.5;  // 2000 um of wire -> 1000 fJ
  PowerMeter meter(params);
  meter.open_window(1000);
  meter.on_channel_flit(1000.0, 1500);
  meter.on_channel_flit(1000.0, 1600);
  meter.close_window(2000);
  EXPECT_DOUBLE_EQ(meter.window_energy(), 1000.0);
  EXPECT_DOUBLE_EQ(meter.window_power_mw(), 1.0);  // 1000 fJ / 1000 ps
  EXPECT_EQ(meter.window_channel_flits(), 2u);
}

TEST(PowerMeterTest, EveryNodeKindHasItsOwnEnergySlot) {
  // Mesh routers are the last node kinds; their energy must land in their
  // own slots, not past the end of the per-kind table.
  mesh::MeshConfig cfg;  // 4x4
  cfg.speculative_routers =
      mesh::MeshNetwork::checkerboard_speculation(mesh::MeshTopology(4, 4));
  mesh::MeshNetwork net(cfg);
  PowerMeter meter;
  net.net().hooks().energy = &meter;
  meter.open_window(0);
  net.send_message(0, DestSet::first_n(16), false);
  net.scheduler().run();
  meter.close_window(net.scheduler().now());
  EXPECT_GT(meter.window_kind_energy(noc::NodeKind::kMeshRouter), 0.0);
  EXPECT_GT(meter.window_kind_energy(noc::NodeKind::kMeshRouterSpec), 0.0);
  EnergyFj by_kind = 0.0;
  for (const auto kind : noc::all_node_kinds()) {
    by_kind += meter.window_kind_energy(kind);
  }
  EXPECT_NEAR(by_kind, meter.window_node_energy(),
              meter.window_node_energy() * 1e-9);
  // One 5-flit broadcast crosses a few dozen channels per flit.
  EXPECT_GT(meter.window_channel_flits(), 0u);
  EXPECT_LT(meter.window_channel_flits(), 1000u);
}

TEST(PowerMeterTest, SpeculationCostsMoreEnergyPerMessage) {
  // A unicast message: the hybrid network broadcasts at the root, creating
  // a redundant copy that burns energy before being throttled.
  auto energy_for = [](Architecture arch) {
    core::NetworkConfig cfg;
    core::MotNetwork net(arch, cfg);
    PowerMeter meter;
    net.net().hooks().energy = &meter;
    net.send_message(0, DestSet::single(5), false);
    net.scheduler().run();
    return meter.total_energy();
  };
  const auto nonspec = energy_for(Architecture::kBasicNonSpeculative);
  const auto hybrid = energy_for(Architecture::kBasicHybridSpeculative);
  const auto allspec = energy_for(Architecture::kOptAllSpeculative);
  EXPECT_GT(hybrid, nonspec);
  EXPECT_GT(allspec, hybrid);
}

TEST(PowerMeterTest, OptSpecSavesBodyEnergyVsBasicSpec) {
  // Same hybrid placement; the optimized speculative node suppresses
  // redundant body-flit copies, so per-message energy drops.
  auto energy_for = [](Architecture arch) {
    core::NetworkConfig cfg;
    core::MotNetwork net(arch, cfg);
    PowerMeter meter;
    net.net().hooks().energy = &meter;
    net.send_message(2, DestSet::single(6), false);
    net.scheduler().run();
    return meter.total_energy();
  };
  EXPECT_LT(energy_for(Architecture::kOptHybridSpeculative),
            energy_for(Architecture::kBasicHybridSpeculative));
}

TEST(PowerMeterTest, ThrottleOpsCountedInHybrid) {
  core::NetworkConfig cfg;
  core::MotNetwork net(Architecture::kBasicHybridSpeculative, cfg);
  PowerMeter meter;
  net.net().hooks().energy = &meter;
  meter.open_window(0);
  net.send_message(0, DestSet::single(7), false);  // unicast -> 1 redundant copy
  net.scheduler().run();
  meter.close_window(net.scheduler().now());
  // All 5 flits of the wrong-path copy are throttled at the level-1 node.
  EXPECT_EQ(meter.window_ops(noc::NodeOp::kThrottle), 5u);
  EXPECT_EQ(meter.window_ops(noc::NodeOp::kBroadcast), 5u);
}

TEST(PowerMeterTest, OptHybridThrottlesOnlyHeaderAndTail) {
  core::NetworkConfig cfg;
  core::MotNetwork net(Architecture::kOptHybridSpeculative, cfg);
  PowerMeter meter;
  net.net().hooks().energy = &meter;
  meter.open_window(0);
  net.send_message(0, DestSet::single(7), false);
  net.scheduler().run();
  meter.close_window(net.scheduler().now());
  // Body flits never take the wrong path; only header + tail are throttled.
  EXPECT_EQ(meter.window_ops(noc::NodeOp::kThrottle), 2u);
  EXPECT_EQ(meter.window_ops(noc::NodeOp::kBroadcast), 2u);
}

}  // namespace
}  // namespace specnoc::power
