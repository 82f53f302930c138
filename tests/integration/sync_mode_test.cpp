// Synchronous-equivalent mode: quantized switch delays (extension).
#include <gtest/gtest.h>

#include <vector>

#include "core/mot_network.h"
#include "stats/experiment.h"

namespace specnoc {
namespace {

using core::Architecture;
using traffic::BenchmarkId;

/// Records the last header arrival for a single message.
class LastHeader : public noc::TrafficObserver {
 public:
  void on_flit_ejected(const noc::Packet&, std::uint32_t,
                       noc::FlitKind kind, TimePs when) override {
    if (kind == noc::FlitKind::kHeader) last = std::max(last, when);
  }
  void on_packet_injected(const noc::Packet&, TimePs) override {}
  TimePs last = 0;
};

TimePs unicast_header_latency(Architecture arch, TimePs clock_period) {
  core::NetworkConfig cfg;
  cfg.clock_period = clock_period;
  core::MotNetwork net(arch, cfg);
  LastHeader obs;
  net.net().hooks().traffic = &obs;
  net.send_message(0, noc::DestSet::single(5), false);
  net.scheduler().run();
  return obs.last;
}

TEST(SyncModeTest, ClockedNetworkIsSlowerThanAsync) {
  const auto async_lat =
      unicast_header_latency(Architecture::kOptHybridSpeculative, 0);
  const auto sync_lat =
      unicast_header_latency(Architecture::kOptHybridSpeculative, 600);
  EXPECT_GT(sync_lat, async_lat);
}

TEST(SyncModeTest, LatencyMonotoneInClockPeriod) {
  TimePs previous = 0;
  for (const TimePs period : {0, 300, 500, 800}) {
    const auto lat =
        unicast_header_latency(Architecture::kBasicNonSpeculative, period);
    EXPECT_GE(lat, previous) << "period=" << period;
    previous = lat;
  }
}

TEST(SyncModeTest, SubCycleSpeculationAdvantageShrinksWhenClocked) {
  // Asynchronously, the speculative root's 52 ps vs 299 ps shows directly;
  // under a coarse clock both nodes take a full cycle, so the gap between
  // hybrid and non-speculative collapses.
  const auto async_gap =
      unicast_header_latency(Architecture::kBasicNonSpeculative, 0) -
      unicast_header_latency(Architecture::kBasicHybridSpeculative, 0);
  const auto sync_gap =
      unicast_header_latency(Architecture::kBasicNonSpeculative, 800) -
      unicast_header_latency(Architecture::kBasicHybridSpeculative, 800);
  EXPECT_GT(async_gap, 0);
  EXPECT_LT(sync_gap, async_gap);
}

TEST(SyncModeTest, ClockedNetworkStillRoutesCorrectly) {
  core::NetworkConfig cfg;
  cfg.clock_period = 700;
  core::MotNetwork net(Architecture::kOptAllSpeculative, cfg);
  // Reuse the throughput recorder to check deliveries.
  const std::vector<stats::SaturationSpec> specs = {
      {.arch = Architecture::kOptAllSpeculative,
       .bench = BenchmarkId::kMulticast10,
       .seed = 0,
       .custom = {}}};
  const auto sat =
      stats::ExperimentRunner(cfg, 3).run_saturation_grid(specs)[0];
  ASSERT_TRUE(sat.run.ok) << sat.run.error;
  EXPECT_GT(sat.result.delivered_flits_per_ns, 0.2);
  // And a clocked run saturates below the async equivalent.
  const auto async_sat =
      stats::ExperimentRunner(core::NetworkConfig{}, 3)
          .run_saturation_grid(specs)[0];
  ASSERT_TRUE(async_sat.run.ok) << async_sat.run.error;
  EXPECT_LT(sat.result.delivered_flits_per_ns,
            async_sat.result.delivered_flits_per_ns);
}

}  // namespace
}  // namespace specnoc
