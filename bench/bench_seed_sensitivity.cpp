// Extension — statistical robustness of the headline numbers.
//
// The paper reports single numbers; our runs are seeded and deterministic,
// so we can quantify how much the key comparisons move across independent
// traffic seeds. Reported: mean +/- sample stddev over 5 seeds for the
// central claims (Table 1 saturation and the Figure 6 improvement
// percentages). Tight spreads justify comparing single-seed tables against
// the paper.
#include <array>
#include <cmath>
#include <iterator>
#include <limits>
#include <utility>

#include "bench_common.h"
#include "stats/experiment.h"
#include "util/summary_stats.h"

using namespace specnoc;
using specnoc::bench::HarnessOptions;

namespace {

using core::Architecture;
using traffic::BenchmarkId;

constexpr std::array<std::uint64_t, 5> kSeeds = {11, 42, 137, 1009, 9999};

// The latency comparisons at 25% of each network's own saturation, as
// (network, reference network) pairs; the gain is 1 - network/reference.
constexpr std::pair<Architecture, BenchmarkId> kLatencyCells[] = {
    {Architecture::kBasicNonSpeculative, BenchmarkId::kMulticastStatic},
    {Architecture::kBaseline, BenchmarkId::kMulticastStatic},
    {Architecture::kOptHybridSpeculative, BenchmarkId::kMulticast10},
    {Architecture::kBasicNonSpeculative, BenchmarkId::kMulticast10},
    {Architecture::kOptHybridSpeculative, BenchmarkId::kUniformRandom},
    {Architecture::kOptNonSpeculative, BenchmarkId::kUniformRandom}};
// The reported saturation figures.
constexpr std::pair<Architecture, BenchmarkId> kSaturationCells[] = {
    {Architecture::kBaseline, BenchmarkId::kUniformRandom},
    {Architecture::kOptHybridSpeculative, BenchmarkId::kMulticastStatic}};

std::string mean_pm_std(const SummaryStats& stats, int decimals) {
  // A failed run contributes NaN.
  if (!std::isfinite(stats.mean())) return "FAIL";
  return cell(stats.mean(), decimals) + " +/- " +
         cell(stats.stddev(), decimals);
}

}  // namespace

int main(int argc, char** argv) {
  const HarnessOptions opts = specnoc::bench::parse_args(
      argc, argv, "bench_seed_sensitivity",
      "Seed sensitivity of the headline numbers.");
  const stats::ExperimentRunner runner(core::NetworkConfig{}, opts.seed);
  specnoc::bench::TelemetryTable telemetry;
  specnoc::bench::MetricsReport metrics;

  // One saturation grid — every seed's latency anchors, then its reported
  // figures — and one latency grid over the anchors. Specs carry their
  // seed, so the runner's own seed plays no part.
  std::vector<stats::SaturationSpec> sat_specs;
  for (const auto seed : kSeeds) {
    for (const auto& [arch, bench] : kLatencyCells) {
      sat_specs.push_back({.arch = arch, .bench = bench, .seed = seed,
                           .custom = {}});
    }
  }
  const std::size_t num_anchors = sat_specs.size();
  for (const auto seed : kSeeds) {
    for (const auto& [arch, bench] : kSaturationCells) {
      sat_specs.push_back({.arch = arch, .bench = bench, .seed = seed,
                           .custom = {}});
    }
  }
  const auto sats =
      runner.run_grid<stats::SaturationProtocol>(sat_specs, opts.batch());
  std::vector<stats::LatencySpec> lat_specs;
  for (std::size_t i = 0; i < num_anchors; ++i) {
    const auto& spec = sats[i].spec;
    lat_specs.push_back(
        {.arch = spec.arch,
         .bench = spec.bench,
         .injected_flits_per_ns = stats::operating_rate(sats[i].result, 0.25),
         .windows = traffic::default_windows(spec.bench),
         .seed = spec.seed,
         .custom = {}});
  }
  const auto lats =
      runner.run_grid<stats::LatencyProtocol>(lat_specs, opts.batch());
  telemetry.add_all(sats);
  telemetry.add_all(lats);
  metrics.add_all("saturation", sats);
  metrics.add_all("latency", lats);
  metrics.write(opts);

  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  auto delivered = [&](std::size_t i) {
    return sats[i].run.ok ? sats[i].result.delivered_flits_per_ns : kNan;
  };
  auto latency = [&](std::size_t i) {
    return lats[i].run.ok ? lats[i].result.mean_latency_ns : kNan;
  };
  auto gain = [&](std::size_t i) {
    return 100.0 * (1.0 - latency(i) / latency(i + 1));
  };
  SummaryStats sat_baseline_uniform;
  SummaryStats sat_opthybrid_mstatic;
  SummaryStats impr_tree_vs_serial;     // latency, Multicast_static
  SummaryStats impr_opthybrid_vs_bns;   // latency, Multicast10
  SummaryStats impr_hybrid_vs_nonspec;  // latency, UniformRandom (fig 6b)
  for (std::size_t k = 0; k < kSeeds.size(); ++k) {
    const std::size_t figures = num_anchors + 2 * k;
    sat_baseline_uniform.add(delivered(figures));
    sat_opthybrid_mstatic.add(delivered(figures + 1));
    const std::size_t pairs = std::size(kLatencyCells) * k;
    impr_tree_vs_serial.add(gain(pairs));
    impr_opthybrid_vs_bns.add(gain(pairs + 2));
    impr_hybrid_vs_nonspec.add(gain(pairs + 4));
  }

  Table table({"Quantity", "Paper", "Measured (5 seeds)"});
  table.add_row({"Baseline saturation, UniformRandom (f/ns/src)", "1.26",
                 mean_pm_std(sat_baseline_uniform, 3)});
  table.add_row({"OptHybrid saturation, Multicast_static", "1.96",
                 mean_pm_std(sat_opthybrid_mstatic, 3)});
  table.add_row({"Tree vs serial latency gain, Multicast_static (%)",
                 "74.1", mean_pm_std(impr_tree_vs_serial, 1)});
  table.add_row({"OptHybrid vs BasicNonSpec latency gain, Mcast10 (%)",
                 "17.8..21.4", mean_pm_std(impr_opthybrid_vs_bns, 1)});
  table.add_row({"OptHybrid vs OptNonSpec latency gain, Uniform (%)",
                 "9.7..11.9", mean_pm_std(impr_hybrid_vs_nonspec, 1)});
  specnoc::bench::emit(table, "Seed sensitivity of the headline numbers",
                       opts);
  telemetry.emit("Seed sensitivity grids", opts);
  return telemetry.failures() == 0 ? 0 : 1;
}
