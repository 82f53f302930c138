// Integration tests asserting the paper's headline qualitative trends.
// These use shortened windows relative to the bench harnesses but the same
// protocols; they guard the reproduction against regressions.
#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "stats/experiment.h"

namespace specnoc {
namespace {

using core::Architecture;
using stats::ExperimentRunner;
using traffic::BenchmarkId;

using Cell = std::pair<Architecture, BenchmarkId>;

class TrendsTest : public ::testing::Test {
 protected:
  TrendsTest() : runner_(core::NetworkConfig{}, 42) {}

  /// Runs `specs` as one grid; every run must succeed.
  template <stats::Protocol P>
  std::vector<typename P::Result> results_of(
      const std::vector<typename P::Spec>& specs) const {
    std::vector<typename P::Result> results;
    for (const auto& outcome : runner_.run_grid<P>(specs)) {
      EXPECT_TRUE(outcome.run.ok) << outcome.run.error;
      results.push_back(outcome.result);
    }
    return results;
  }

  /// Saturation of every cell, as one grid.
  std::vector<stats::SaturationResult> saturation(
      const std::vector<Cell>& cells) const {
    std::vector<stats::SaturationSpec> specs;
    for (const auto& [arch, bench] : cells) {
      specs.push_back({.arch = arch, .bench = bench, .seed = 0, .custom = {}});
    }
    return results_of<stats::SaturationProtocol>(specs);
  }

  /// Latency of every cell at 25% of its own saturation.
  std::vector<stats::LatencyResult> latency_at_quarter_load(
      const std::vector<Cell>& cells) const {
    const auto sat = saturation(cells);
    std::vector<stats::LatencySpec> specs;
    for (std::size_t i = 0; i < cells.size(); ++i) {
      const auto [arch, bench] = cells[i];
      specs.push_back(
          {.arch = arch,
           .bench = bench,
           .injected_flits_per_ns = stats::operating_rate(sat[i], 0.25),
           .windows = traffic::default_windows(bench),
           .seed = 0,
           .custom = {}});
    }
    return results_of<stats::LatencyProtocol>(specs);
  }

  /// Power (mW) of every cell at 25% of the Baseline's saturation for the
  /// cell's benchmark.
  std::vector<double> power_at_quarter_baseline_load(
      const std::vector<Cell>& cells) const {
    std::vector<Cell> baselines;
    for (const auto& cell : cells) {
      baselines.emplace_back(Architecture::kBaseline, cell.second);
    }
    const auto sat = saturation(baselines);
    std::vector<stats::PowerSpec> specs;
    for (std::size_t i = 0; i < cells.size(); ++i) {
      const auto [arch, bench] = cells[i];
      specs.push_back(
          {.arch = arch,
           .bench = bench,
           .injected_flits_per_ns = stats::operating_rate(sat[i], 0.25),
           .windows = traffic::default_windows(bench),
           .seed = 0,
           .custom = {}});
    }
    std::vector<double> power_mw;
    for (const auto& result : results_of<stats::PowerProtocol>(specs)) {
      power_mw.push_back(result.power_mw);
    }
    return power_mw;
  }

  ExperimentRunner runner_;
};

TEST_F(TrendsTest, MulticastSaturation_ParallelBeatsSerial) {
  // Table 1: BasicNonSpeculative gains 14.8-39.5% over Baseline on
  // multicast benchmarks.
  std::vector<Cell> cells;
  for (const auto bench : traffic::multicast_benchmarks()) {
    cells.emplace_back(Architecture::kBaseline, bench);
    cells.emplace_back(Architecture::kBasicNonSpeculative, bench);
  }
  const auto sat = saturation(cells);
  for (std::size_t i = 0; i < cells.size(); i += 2) {
    EXPECT_GT(sat[i + 1].delivered_flits_per_ns,
              sat[i].delivered_flits_per_ns * 1.05)
        << traffic::to_string(cells[i].second);
  }
}

TEST_F(TrendsTest, MulticastSaturation_OrderingAcrossTrajectory) {
  // Baseline < BasicNonSpec < BasicHybrid < OptHybrid on Multicast_static.
  const auto bench = BenchmarkId::kMulticastStatic;
  const auto sat = saturation({{Architecture::kBaseline, bench},
                               {Architecture::kBasicNonSpeculative, bench},
                               {Architecture::kBasicHybridSpeculative, bench},
                               {Architecture::kOptHybridSpeculative, bench}});
  const auto v = [&](std::size_t i) { return sat[i].delivered_flits_per_ns; };
  EXPECT_LT(v(0), v(1));
  EXPECT_LT(v(1), v(2) * 1.02);
  EXPECT_LT(v(2), v(3) * 1.02);
}

TEST_F(TrendsTest, HotspotSaturationIdenticalAcrossArchitectures) {
  // Table 1: hotspot is fanin-limited; every network shows the same number.
  std::vector<Cell> cells;
  for (const auto arch : core::all_architectures()) {
    cells.emplace_back(arch, BenchmarkId::kHotspot);
  }
  const auto sat = saturation(cells);
  ASSERT_EQ(cells.front().first, Architecture::kBaseline);
  const auto base = sat.front().delivered_flits_per_ns;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    EXPECT_NEAR(sat[i].delivered_flits_per_ns, base, base * 0.06)
        << core::to_string(cells[i].first);
  }
}

TEST_F(TrendsTest, Latency_TreeMulticastBeatsSerialHeavily) {
  // Figure 6(a): 39-74% latency reduction on multicast benchmarks.
  const auto lat = latency_at_quarter_load(
      {{Architecture::kBaseline, BenchmarkId::kMulticastStatic},
       {Architecture::kBasicNonSpeculative, BenchmarkId::kMulticastStatic}});
  const auto& base = lat[0];
  const auto& tree = lat[1];
  ASSERT_TRUE(base.drained);
  ASSERT_TRUE(tree.drained);
  EXPECT_LT(tree.mean_latency_ns, base.mean_latency_ns * 0.75);
}

TEST_F(TrendsTest, Latency_SpeculationHelpsUnicast) {
  // Figure 6(b): OptHybrid ~10% faster than OptNonSpec; OptAllSpec fastest.
  const auto lat = latency_at_quarter_load(
      {{Architecture::kOptNonSpeculative, BenchmarkId::kUniformRandom},
       {Architecture::kOptHybridSpeculative, BenchmarkId::kUniformRandom},
       {Architecture::kOptAllSpeculative, BenchmarkId::kUniformRandom}});
  const auto& nonspec = lat[0];
  const auto& hybrid = lat[1];
  const auto& allspec = lat[2];
  EXPECT_LT(hybrid.mean_latency_ns, nonspec.mean_latency_ns);
  EXPECT_LT(allspec.mean_latency_ns, hybrid.mean_latency_ns);
}

TEST_F(TrendsTest, Power_SpeculationOrdering) {
  // Table 1 power: OptNonSpec < OptHybrid < OptAllSpec at the same load.
  const auto bench = BenchmarkId::kUniformRandom;
  const auto p = power_at_quarter_baseline_load(
      {{Architecture::kOptNonSpeculative, bench},
       {Architecture::kOptHybridSpeculative, bench},
       {Architecture::kOptAllSpeculative, bench}});
  const auto nonspec = p[0];
  const auto hybrid = p[1];
  const auto allspec = p[2];
  EXPECT_LT(nonspec, hybrid);
  EXPECT_LT(hybrid, allspec);
  // Hybrid overhead is small (paper: 3.5-6.1%); all-spec considerable
  // (14.7-22.9%). Allow generous bands.
  EXPECT_LT(hybrid / nonspec, 1.18);
  EXPECT_GT(allspec / nonspec, 1.05);
}

TEST_F(TrendsTest, Power_OptimizationRecoversHybridOverhead) {
  // Table 1: BasicHybrid is the most power-hungry trajectory network;
  // OptHybrid recovers most of the overhead. Baseline has the lowest
  // power on unicast traffic (its serial multicast energy on the
  // multicast benchmarks is within a few percent of BasicNonSpeculative;
  // see EXPERIMENTS.md).
  const auto p = power_at_quarter_baseline_load(
      {{Architecture::kOptHybridSpeculative, BenchmarkId::kMulticast10},
       {Architecture::kBasicHybridSpeculative, BenchmarkId::kMulticast10},
       {Architecture::kBaseline, BenchmarkId::kUniformRandom},
       {Architecture::kBasicNonSpeculative, BenchmarkId::kUniformRandom},
       {Architecture::kBaseline, BenchmarkId::kMulticast10}});
  EXPECT_LT(p[0], p[1]);
  EXPECT_LT(p[2], p[3]);
  EXPECT_LT(p[4], p[1]);
}

}  // namespace
}  // namespace specnoc
