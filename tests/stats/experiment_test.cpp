#include "stats/experiment.h"

#include <gtest/gtest.h>

namespace specnoc::stats {
namespace {

using core::Architecture;
using traffic::BenchmarkId;

SaturationSpec saturation_spec(Architecture arch, BenchmarkId bench) {
  return {.arch = arch, .bench = bench, .seed = 0, .custom = {}};
}

/// Runs `specs` as one grid and returns their results; every run must
/// succeed.
template <Protocol P>
std::vector<typename P::Result> results_of(
    const ExperimentRunner& runner,
    const std::vector<typename P::Spec>& specs) {
  std::vector<typename P::Result> results;
  for (const auto& outcome : runner.run_grid<P>(specs)) {
    EXPECT_TRUE(outcome.run.ok) << outcome.run.error;
    results.push_back(outcome.result);
  }
  return results;
}

class ExperimentTest : public ::testing::Test {
 protected:
  core::NetworkConfig cfg_;  // default 8x8
};

TEST_F(ExperimentTest, SaturationIsPositive) {
  const ExperimentRunner runner(cfg_, 42);
  const auto sat = results_of<SaturationProtocol>(
      runner, {saturation_spec(Architecture::kOptNonSpeculative,
                               BenchmarkId::kUniformRandom)});
  EXPECT_GT(sat[0].delivered_flits_per_ns, 0.2);
  EXPECT_LT(sat[0].delivered_flits_per_ns, 10.0);
}

TEST_F(ExperimentTest, MulticastDeliveryFactorAboveOne) {
  const ExperimentRunner runner(cfg_, 42);
  const auto sat = results_of<SaturationProtocol>(
      runner, {saturation_spec(Architecture::kOptHybridSpeculative,
                               BenchmarkId::kMulticastStatic),
               saturation_spec(Architecture::kOptHybridSpeculative,
                               BenchmarkId::kUniformRandom)});
  EXPECT_GT(sat[0].delivery_factor, 1.2);
  EXPECT_NEAR(sat[1].delivery_factor, 1.0, 0.05);
}

TEST_F(ExperimentTest, HotspotThroughputLowerThanUniform) {
  const ExperimentRunner runner(cfg_, 42);
  const auto sat = results_of<SaturationProtocol>(
      runner, {saturation_spec(Architecture::kOptNonSpeculative,
                               BenchmarkId::kHotspot),
               saturation_spec(Architecture::kOptNonSpeculative,
                               BenchmarkId::kUniformRandom)});
  EXPECT_LT(sat[0].delivered_flits_per_ns, sat[1].delivered_flits_per_ns * 0.6);
}

TEST_F(ExperimentTest, LatencyRunDrainsAtQuarterLoad) {
  const ExperimentRunner runner(cfg_, 42);
  // Use short windows to keep the test fast.
  using namespace specnoc::literals;
  const auto sat = results_of<SaturationProtocol>(
      runner, {saturation_spec(Architecture::kOptHybridSpeculative,
                               BenchmarkId::kUniformRandom)});
  const auto result = results_of<LatencyProtocol>(
      runner, {{.arch = Architecture::kOptHybridSpeculative,
                .bench = BenchmarkId::kUniformRandom,
                .injected_flits_per_ns = 0.25 * sat[0].injected_flits_per_ns,
                .windows = {.warmup = 100_ns, .measure = 800_ns},
                .seed = 0,
                .custom = {}}})[0];
  EXPECT_TRUE(result.drained);
  EXPECT_GT(result.messages_measured, 50u);
  EXPECT_GT(result.mean_latency_ns, 1.0);
  EXPECT_LT(result.mean_latency_ns, 50.0);
  EXPECT_GE(result.max_latency_ns, result.mean_latency_ns);
}

TEST_F(ExperimentTest, PowerRunProducesPositivePower) {
  const ExperimentRunner runner(cfg_, 42);
  using namespace specnoc::literals;
  const auto result = results_of<PowerProtocol>(
      runner, {{.arch = Architecture::kBasicHybridSpeculative,
                .bench = BenchmarkId::kUniformRandom,
                .injected_flits_per_ns = 0.3,
                .windows = {.warmup = 100_ns, .measure = 800_ns},
                .seed = 0,
                .custom = {}}})[0];
  EXPECT_GT(result.power_mw, 0.0);
  EXPECT_NEAR(result.power_mw,
              result.node_power_mw + result.wire_power_mw + 0.0, 1e-9);
  EXPECT_GT(result.throttled_flits, 0u);   // speculation misfires throttled
  EXPECT_GT(result.broadcast_ops, 0u);
}

TEST_F(ExperimentTest, BaselineSerializationExpansionMeasured) {
  const ExperimentRunner runner(cfg_, 42);
  // Multicast10 with subsets uniform in [2,8]: E[packets/message] =
  // 0.9 * 1 + 0.1 * 5 = 1.4 on the serializing Baseline; exactly 1 on the
  // parallel networks.
  const auto sat = results_of<SaturationProtocol>(
      runner, {saturation_spec(Architecture::kBaseline,
                               BenchmarkId::kMulticast10),
               saturation_spec(Architecture::kOptHybridSpeculative,
                               BenchmarkId::kMulticast10)});
  EXPECT_NEAR(sat[0].message_expansion, 1.4, 0.08);
  EXPECT_DOUBLE_EQ(sat[1].message_expansion, 1.0);
}

TEST_F(ExperimentTest, UnicastBenchmarksHaveNoExpansion) {
  const ExperimentRunner runner(cfg_, 42);
  EXPECT_DOUBLE_EQ(
      results_of<SaturationProtocol>(
          runner, {saturation_spec(Architecture::kBaseline,
                                   BenchmarkId::kUniformRandom)})[0]
          .message_expansion,
      1.0);
}

TEST_F(ExperimentTest, OperatingRateEqualizesMessageRate) {
  SaturationResult sat;
  sat.injected_flits_per_ns = 1.5;
  sat.message_expansion = 1.25;
  EXPECT_EQ(operating_rate(sat, 0.25), 0.25 * 1.5 / 1.25);
  sat.message_expansion = 1.0;  // every network but the Baseline
  EXPECT_EQ(operating_rate(sat, 0.25), 0.25 * 1.5);
}

TEST_F(ExperimentTest, LatencyResultIncludesPercentiles) {
  const ExperimentRunner runner(cfg_, 42);
  const auto bench = BenchmarkId::kUniformRandom;
  const auto sat = results_of<SaturationProtocol>(
      runner,
      {saturation_spec(Architecture::kOptHybridSpeculative, bench)})[0];
  const auto result = results_of<LatencyProtocol>(
      runner, {{.arch = Architecture::kOptHybridSpeculative,
                .bench = bench,
                .injected_flits_per_ns = operating_rate(sat, 0.25),
                .windows = traffic::default_windows(bench),
                .seed = 0,
                .custom = {}}})[0];
  EXPECT_GE(result.p95_latency_ns, result.mean_latency_ns * 0.8);
  EXPECT_LE(result.p95_latency_ns, result.max_latency_ns);
}

TEST_F(ExperimentTest, DeterministicSaturation) {
  const ExperimentRunner a(cfg_, 7);
  const ExperimentRunner b(cfg_, 7);
  const std::vector<SaturationSpec> specs = {
      saturation_spec(Architecture::kBaseline, BenchmarkId::kShuffle)};
  EXPECT_DOUBLE_EQ(
      results_of<SaturationProtocol>(a, specs)[0].delivered_flits_per_ns,
      results_of<SaturationProtocol>(b, specs)[0].delivered_flits_per_ns);
}

TEST_F(ExperimentTest, SpecSeedOverridesRunnerSeed) {
  // A spec seed of 0 means the runner's; any other wins over it, so one
  // runner serves a grid of seeds.
  const ExperimentRunner seven(cfg_, 7);
  const ExperimentRunner other(cfg_, 99);
  auto seeded = saturation_spec(Architecture::kBaseline, BenchmarkId::kShuffle);
  const auto by_runner = results_of<SaturationProtocol>(seven, {seeded})[0];
  seeded.seed = 7;
  const auto by_spec = results_of<SaturationProtocol>(other, {seeded})[0];
  EXPECT_EQ(by_runner.delivered_flits_per_ns, by_spec.delivered_flits_per_ns);
  EXPECT_EQ(by_runner.injected_flits_per_ns, by_spec.injected_flits_per_ns);
}

}  // namespace
}  // namespace specnoc::stats
