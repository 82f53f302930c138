// E5 — Table 1 (right): total network power, 4 benchmarks x 6 networks.
//
// Protocol: every architecture runs at the same injected rate — 25% of the
// *Baseline's* saturation for the benchmark — for a normalized comparison
// of energy per packet; power = switching energy over the measurement
// window / window duration.
#include <array>

#include "bench_common.h"
#include "stats/experiment.h"

using namespace specnoc;
using specnoc::bench::HarnessOptions;

namespace {

constexpr std::array<traffic::BenchmarkId, 4> kBenchmarks = {
    traffic::BenchmarkId::kUniformRandom, traffic::BenchmarkId::kHotspot,
    traffic::BenchmarkId::kMulticast5, traffic::BenchmarkId::kMulticast10};

// Paper Table 1, total network power (mW), same order.
constexpr double kPaper[6][4] = {
    {12.6, 3.8, 14.7, 17.1},  // Baseline
    {14.1, 4.2, 16.0, 18.1},  // BasicNonSpeculative
    {15.6, 4.5, 17.4, 19.4},  // BasicHybridSpeculative
    {13.1, 3.9, 15.0, 17.0},  // OptNonSpeculative
    {13.9, 4.1, 15.7, 17.6},  // OptHybridSpeculative
    {16.1, 4.6, 17.8, 19.5},  // OptAllSpeculative
};

constexpr std::array<core::Architecture, 6> kRowOrder = {
    core::Architecture::kBaseline,
    core::Architecture::kBasicNonSpeculative,
    core::Architecture::kBasicHybridSpeculative,
    core::Architecture::kOptNonSpeculative,
    core::Architecture::kOptHybridSpeculative,
    core::Architecture::kOptAllSpeculative,
};

std::vector<std::string> header_row() {
  std::vector<std::string> h{"Scheme"};
  for (const auto bench : kBenchmarks) {
    h.emplace_back(traffic::to_string(bench));
  }
  return h;
}

}  // namespace

int main(int argc, char** argv) {
  const HarnessOptions opts = specnoc::bench::parse_args(
      argc, argv, "bench_table1_power",
      "Table 1 (right): total network power, 4 benchmarks x 6 networks.",
      specnoc::bench::Sharding::kSupported);
  core::NetworkConfig cfg;
  stats::ExperimentRunner runner(cfg, opts.seed);
  stats::ShardedSweep sweep = specnoc::bench::make_sweep(opts);
  specnoc::bench::TelemetryTable telemetry;

  // Phase 1: the Baseline's saturation per benchmark fixes the common
  // offered load. This is a sweep *anchor*: it runs in full in every mode
  // (it is cheap and deterministic), so all shard workers derive identical
  // downstream power grids. Phase 2: every architecture's power run at
  // that load — the grid that actually gets sharded.
  std::vector<stats::SaturationSpec> sat_specs;
  for (const auto bench : kBenchmarks) {
    sat_specs.push_back({.arch = core::Architecture::kBaseline,
                         .bench = bench,
                         .seed = 0,
                         .custom = {}});
  }
  const auto sat_outcomes =
      sweep.anchors<stats::SaturationProtocol>(runner, sat_specs);
  // Phase-1 workers stop here: the downstream specs need anchor results
  // this shard did not simulate.
  if (sweep.anchors_only()) return sweep.finish();
  telemetry.add_all(sat_outcomes);
  specnoc::bench::MetricsReport metrics;
  metrics.add_all("anchor", sat_outcomes);

  std::vector<stats::PowerSpec> power_specs;
  for (const auto arch : kRowOrder) {
    for (std::size_t c = 0; c < kBenchmarks.size(); ++c) {
      const auto& baseline_sat = sat_outcomes[c].result;
      power_specs.push_back(
          {.arch = arch,
           .bench = kBenchmarks[c],
           .injected_flits_per_ns = stats::operating_rate(baseline_sat, 0.25),
           .windows = traffic::default_windows(kBenchmarks[c]),
           .seed = 0,
           .custom = {}});
    }
  }
  const auto power_outcomes =
      sweep.grid<stats::PowerProtocol>("power", runner, power_specs);
  metrics.add_all("power", power_outcomes);
  metrics.write(opts);
  if (!sweep.should_render()) return sweep.finish();
  telemetry.add_all(power_outcomes);

  double measured[6][4] = {};
  Table table(header_row());
  Table reference(header_row());
  std::size_t cursor = 0;
  for (std::size_t r = 0; r < kRowOrder.size(); ++r) {
    const auto arch = kRowOrder[r];
    std::vector<std::string> row{core::to_string(arch)};
    std::vector<std::string> ref{core::to_string(arch)};
    for (std::size_t c = 0; c < kBenchmarks.size(); ++c) {
      const auto& outcome = power_outcomes[cursor++];
      measured[r][c] = outcome.result.power_mw;
      row.push_back(outcome.run.ok ? cell(measured[r][c], 1) : "FAIL");
      ref.push_back(cell(kPaper[r][c], 1));
    }
    table.add_row(std::move(row));
    reference.add_row(std::move(ref));
  }

  specnoc::bench::emit(table,
                       "Table 1 (measured): total network power (mW) at 25% "
                       "Baseline saturation",
                       opts);
  specnoc::bench::emit(reference, "Table 1 (paper): total network power (mW)",
                       opts);

  // Relative overhead claims (rows indexed per kRowOrder).
  auto rel = [&](std::size_t a, std::size_t b, std::size_t c) {
    return measured[a][c] / measured[b][c] - 1.0;
  };
  Table claims({"Claim", "Paper", "Measured (UniformRandom)",
                "Measured (Multicast10)"});
  claims.add_row({"BasicNonSpec over Baseline", "+5.8..11.9%",
                  percent_cell(rel(1, 0, 0)), percent_cell(rel(1, 0, 3))});
  claims.add_row({"BasicHybrid over Baseline", "+13.4..23.8%",
                  percent_cell(rel(2, 0, 0)), percent_cell(rel(2, 0, 3))});
  claims.add_row({"OptHybrid over Baseline", "+2.9..10.3%",
                  percent_cell(rel(4, 0, 0)), percent_cell(rel(4, 0, 3))});
  claims.add_row({"OptHybrid over OptNonSpec", "+3.5..6.1%",
                  percent_cell(rel(4, 3, 0)), percent_cell(rel(4, 3, 3))});
  claims.add_row({"OptAllSpec over OptHybrid", "+10.8..15.8%",
                  percent_cell(rel(5, 4, 0)), percent_cell(rel(5, 4, 3))});
  claims.add_row({"OptAllSpec over OptNonSpec", "+14.7..22.9%",
                  percent_cell(rel(5, 3, 0)), percent_cell(rel(5, 3, 3))});
  specnoc::bench::emit(claims, "Relative power claims", opts);
  telemetry.emit("Table 1 power grid", opts);
  return telemetry.failures() == 0 ? 0 : 1;
}
