#include "stats/experiment.h"

#include <gtest/gtest.h>

namespace specnoc::stats {
namespace {

using core::Architecture;
using traffic::BenchmarkId;

class ExperimentTest : public ::testing::Test {
 protected:
  core::NetworkConfig cfg_;  // default 8x8
};

TEST_F(ExperimentTest, SaturationIsPositiveAndMemoized) {
  ExperimentRunner runner(cfg_, 42);
  const auto& first =
      runner.saturation(Architecture::kOptNonSpeculative,
                        BenchmarkId::kUniformRandom);
  EXPECT_GT(first.delivered_flits_per_ns, 0.2);
  EXPECT_LT(first.delivered_flits_per_ns, 10.0);
  const auto& second =
      runner.saturation(Architecture::kOptNonSpeculative,
                        BenchmarkId::kUniformRandom);
  EXPECT_EQ(&first, &second);  // cached
}

TEST_F(ExperimentTest, MulticastDeliveryFactorAboveOne) {
  ExperimentRunner runner(cfg_, 42);
  const auto& sat = runner.saturation(Architecture::kOptHybridSpeculative,
                                      BenchmarkId::kMulticastStatic);
  EXPECT_GT(sat.delivery_factor, 1.2);
  const auto& uni = runner.saturation(Architecture::kOptHybridSpeculative,
                                      BenchmarkId::kUniformRandom);
  EXPECT_NEAR(uni.delivery_factor, 1.0, 0.05);
}

TEST_F(ExperimentTest, HotspotThroughputLowerThanUniform) {
  ExperimentRunner runner(cfg_, 42);
  const auto& hot = runner.saturation(Architecture::kOptNonSpeculative,
                                      BenchmarkId::kHotspot);
  const auto& uni = runner.saturation(Architecture::kOptNonSpeculative,
                                      BenchmarkId::kUniformRandom);
  EXPECT_LT(hot.delivered_flits_per_ns, uni.delivered_flits_per_ns * 0.6);
}

TEST_F(ExperimentTest, LatencyRunDrainsAtQuarterLoad) {
  ExperimentRunner runner(cfg_, 42);
  // Use short windows to keep the test fast.
  using namespace specnoc::literals;
  const auto& sat = runner.saturation(Architecture::kOptHybridSpeculative,
                                      BenchmarkId::kUniformRandom);
  const auto result = runner.measure_latency(
      Architecture::kOptHybridSpeculative, BenchmarkId::kUniformRandom,
      0.25 * sat.injected_flits_per_ns,
      {.warmup = 100_ns, .measure = 800_ns});
  EXPECT_TRUE(result.drained);
  EXPECT_GT(result.messages_measured, 50u);
  EXPECT_GT(result.mean_latency_ns, 1.0);
  EXPECT_LT(result.mean_latency_ns, 50.0);
  EXPECT_GE(result.max_latency_ns, result.mean_latency_ns);
}

TEST_F(ExperimentTest, PowerRunProducesPositivePower) {
  ExperimentRunner runner(cfg_, 42);
  using namespace specnoc::literals;
  const auto result = runner.measure_power(
      Architecture::kBasicHybridSpeculative, BenchmarkId::kUniformRandom,
      0.3, {.warmup = 100_ns, .measure = 800_ns});
  EXPECT_GT(result.power_mw, 0.0);
  EXPECT_NEAR(result.power_mw,
              result.node_power_mw + result.wire_power_mw + 0.0, 1e-9);
  EXPECT_GT(result.throttled_flits, 0u);   // speculation misfires throttled
  EXPECT_GT(result.broadcast_ops, 0u);
}

TEST_F(ExperimentTest, BaselineSerializationExpansionMeasured) {
  ExperimentRunner runner(cfg_, 42);
  // Multicast10 with subsets uniform in [2,8]: E[packets/message] =
  // 0.9 * 1 + 0.1 * 5 = 1.4 on the serializing Baseline; exactly 1 on the
  // parallel networks.
  const auto& base = runner.saturation(Architecture::kBaseline,
                                       BenchmarkId::kMulticast10);
  EXPECT_NEAR(base.message_expansion, 1.4, 0.08);
  const auto& tree = runner.saturation(Architecture::kOptHybridSpeculative,
                                       BenchmarkId::kMulticast10);
  EXPECT_DOUBLE_EQ(tree.message_expansion, 1.0);
}

TEST_F(ExperimentTest, UnicastBenchmarksHaveNoExpansion) {
  ExperimentRunner runner(cfg_, 42);
  EXPECT_DOUBLE_EQ(runner.saturation(Architecture::kBaseline,
                                     BenchmarkId::kUniformRandom)
                       .message_expansion,
                   1.0);
}

TEST_F(ExperimentTest, CustomFactoryRunsMatchArchitectureRuns) {
  ExperimentRunner runner(cfg_, 42);
  NetworkFactory factory = [cfg = cfg_] {
    return std::make_unique<core::MotNetwork>(
        Architecture::kOptNonSpeculative, cfg);
  };
  SaturationSpec spec;
  spec.bench = BenchmarkId::kShuffle;
  spec.factory = factory;
  const auto via_factory =
      runner.run_grid<SaturationProtocol>({spec}).front().result;
  const auto& via_arch =
      runner.saturation(Architecture::kOptNonSpeculative,
                        BenchmarkId::kShuffle);
  EXPECT_DOUBLE_EQ(via_factory.delivered_flits_per_ns,
                   via_arch.delivered_flits_per_ns);
}

TEST_F(ExperimentTest, LatencyResultIncludesPercentiles) {
  ExperimentRunner runner(cfg_, 42);
  const auto result = runner.latency_at_fraction(
      Architecture::kOptHybridSpeculative, BenchmarkId::kUniformRandom);
  EXPECT_GE(result.p95_latency_ns, result.mean_latency_ns * 0.8);
  EXPECT_LE(result.p95_latency_ns, result.max_latency_ns);
}

TEST_F(ExperimentTest, DeterministicSaturation) {
  ExperimentRunner a(cfg_, 7);
  ExperimentRunner b(cfg_, 7);
  const auto& ra = a.saturation(Architecture::kBaseline,
                                BenchmarkId::kShuffle);
  const auto& rb = b.saturation(Architecture::kBaseline,
                                BenchmarkId::kShuffle);
  EXPECT_DOUBLE_EQ(ra.delivered_flits_per_ns, rb.delivered_flits_per_ns);
}

}  // namespace
}  // namespace specnoc::stats
