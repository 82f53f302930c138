// Extension — load-latency curves.
//
// The classic NoC characterization underlying the paper's two operating
// points (25% load for Figure 6, backlogged for Table 1): average latency
// as offered load sweeps toward saturation, for the three optimized
// architectures on UniformRandom and Multicast10. The curves show the
// knee moving right with speculation — the same information as Table 1's
// saturation numbers, but as the full series.
#include <vector>

#include "bench_common.h"
#include "stats/experiment.h"

using namespace specnoc;
using specnoc::bench::HarnessOptions;
using namespace specnoc::literals;

int main(int argc, char** argv) {
  const HarnessOptions opts = specnoc::bench::parse_args(
      argc, argv, "bench_load_latency",
      "Load-latency curves for the optimized architectures.",
      specnoc::bench::Sharding::kSupported);
  core::NetworkConfig cfg;
  stats::ExperimentRunner runner(cfg, opts.seed);
  stats::ShardedSweep sweep = specnoc::bench::make_sweep(opts);
  specnoc::bench::TelemetryTable telemetry;
  const double fractions[] = {0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9};
  const traffic::SimWindows windows{.warmup = 300_ns, .measure = 2000_ns};
  const auto benches = {traffic::BenchmarkId::kUniformRandom,
                        traffic::BenchmarkId::kMulticast10};

  // Phase 1: saturation anchors for every (arch, bench). Phase 2: the full
  // 54-run load sweep in one parallel batch, aggregated in spec order.
  std::vector<stats::SaturationSpec> sat_specs;
  for (const auto bench : benches) {
    for (const auto arch : core::dse_architectures()) {
      sat_specs.push_back({.arch = arch, .bench = bench, .seed = 0,
                          .custom = {}});
    }
  }
  const auto sat_outcomes =
      sweep.anchors<stats::SaturationProtocol>(runner, sat_specs);
  // Phase-1 workers stop here: the downstream specs need anchor results
  // this shard did not simulate.
  if (sweep.anchors_only()) return sweep.finish();
  telemetry.add_all(sat_outcomes);
  specnoc::bench::MetricsReport metrics;
  metrics.add_all("anchor", sat_outcomes);

  std::vector<stats::LatencySpec> lat_specs;
  std::size_t anchor = 0;
  for (const auto bench : benches) {
    for (const double fraction : fractions) {
      for (std::size_t a = 0; a < core::dse_architectures().size(); ++a) {
        const auto& sat = sat_outcomes[anchor + a].result;
        lat_specs.push_back(
            {.arch = core::dse_architectures()[a],
             .bench = bench,
             .injected_flits_per_ns = stats::operating_rate(sat, fraction),
             .windows = windows,
             .seed = 0,
             .custom = {}});
      }
    }
    anchor += core::dse_architectures().size();
  }
  const auto lat_outcomes =
      sweep.grid<stats::LatencyProtocol>("latency", runner, lat_specs);
  metrics.add_all("latency", lat_outcomes);
  metrics.write(opts);
  if (!sweep.should_render()) return sweep.finish();
  telemetry.add_all(lat_outcomes);

  std::size_t cursor = 0;
  for (const auto bench : benches) {
    Table table({"Offered (x sat)", "OptNonSpec (ns)", "OptHybrid (ns)",
                 "OptAllSpec (ns)"});
    for (const double fraction : fractions) {
      std::vector<std::string> row{cell(fraction, 1)};
      for (std::size_t a = 0; a < core::dse_architectures().size(); ++a) {
        const auto& outcome = lat_outcomes[cursor++];
        row.push_back(!outcome.run.ok
                          ? "FAIL"
                          : cell(outcome.result.mean_latency_ns, 2) +
                                (outcome.result.drained ? "" : "*"));
      }
      table.add_row(std::move(row));
    }
    specnoc::bench::emit(table,
                         std::string("Load-latency curve, ") +
                             traffic::to_string(bench) +
                             " ('*' = undrained/saturated)",
                         opts);
  }
  telemetry.emit("Load-latency sweep", opts);
  return telemetry.failures() == 0 ? 0 : 1;
}
