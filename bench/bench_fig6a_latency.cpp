// E2 — Figure 6(a): contribution-trajectory average network latency.
//
// Protocol (paper Section 5.2(b)): each network runs at 25% of its own
// saturation load under open-loop exponential injection; latency of a
// message is measured to the arrival of ALL its headers (for the serial
// Baseline this includes the serialization of the unicast copies). Warmup
// and measurement windows follow the paper (320/640 ns, 3200/6400 ns).
//
// The paper's figure reports absolute latencies only graphically; the
// quantitative claims it states are the relative improvements, which this
// harness reproduces below the table.
#include <array>

#include "bench_common.h"
#include "stats/experiment.h"

using namespace specnoc;
using specnoc::bench::HarnessOptions;

namespace {

constexpr std::array<core::Architecture, 4> kRowOrder =
    core::trajectory_architectures();

std::vector<std::string> header_row() {
  std::vector<std::string> h{"Scheme"};
  for (const auto bench : traffic::all_benchmarks()) {
    h.emplace_back(traffic::to_string(bench));
  }
  return h;
}

}  // namespace

int main(int argc, char** argv) {
  const HarnessOptions opts = specnoc::bench::parse_args(
      argc, argv, "bench_fig6a_latency",
      "Figure 6(a): avg network latency at 25% of each network's saturation.",
      specnoc::bench::Sharding::kSupported);
  core::NetworkConfig cfg;
  stats::ExperimentRunner runner(cfg, opts.seed);
  stats::ShardedSweep sweep = specnoc::bench::make_sweep(opts);
  specnoc::bench::TelemetryTable telemetry;

  // Phase 1: every cell's own saturation point (the 25% operating point is
  // relative to it) — a sweep anchor, run in full in every mode so shard
  // workers derive identical latency grids. Phase 2: the open-loop latency
  // runs at those points, the grid that gets sharded. Both phases are
  // grids of independent runs on the work-stealing pool; aggregation is
  // keyed by spec, so tables match --jobs 1 byte-for-byte.
  std::vector<stats::SaturationSpec> sat_specs;
  for (const auto arch : kRowOrder) {
    for (const auto bench : traffic::all_benchmarks()) {
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
  for (std::size_t i = 0; i < sat_specs.size(); ++i) {
    const auto& sat = sat_outcomes[i].result;
    lat_specs.push_back(
        {.arch = sat_specs[i].arch,
         .bench = sat_specs[i].bench,
         .injected_flits_per_ns = stats::operating_rate(sat, 0.25),
         .windows = traffic::default_windows(sat_specs[i].bench),
         .seed = 0,
         .custom = {}});
  }
  const auto lat_outcomes =
      sweep.grid<stats::LatencyProtocol>("latency", runner, lat_specs);
  metrics.add_all("latency", lat_outcomes);
  metrics.write(opts);
  if (!sweep.should_render()) return sweep.finish();
  telemetry.add_all(lat_outcomes);

  double lat[4][6] = {};
  Table table(header_row());
  std::size_t cursor = 0;
  for (std::size_t r = 0; r < kRowOrder.size(); ++r) {
    std::vector<std::string> row{core::to_string(kRowOrder[r])};
    std::size_t c = 0;
    for ([[maybe_unused]] const auto bench : traffic::all_benchmarks()) {
      const auto& outcome = lat_outcomes[cursor++];
      lat[r][c++] = outcome.result.mean_latency_ns;
      row.push_back(!outcome.run.ok
                        ? "FAIL"
                        : cell(outcome.result.mean_latency_ns, 2) +
                              (outcome.result.drained ? "" : "*"));
    }
    table.add_row(std::move(row));
  }
  specnoc::bench::emit(
      table,
      "Figure 6(a) (measured): avg network latency (ns) at 25% of own "
      "saturation ('*' = did not fully drain)",
      opts);

  // Column indices: 0 Uniform, 1 Shuffle, 2 Hotspot, 3 M5, 4 M10, 5 Mstatic.
  auto impr = [&](std::size_t better, std::size_t worse, std::size_t c) {
    return 1.0 - lat[better][c] / lat[worse][c];
  };
  Table claims({"Claim (latency reduction)", "Paper", "Measured"});
  claims.add_row({"BasicNonSpec vs Baseline, Multicast5", "39.1%",
                  percent_cell(impr(1, 0, 3))});
  claims.add_row({"BasicNonSpec vs Baseline, Multicast10", "(39.1..74.1%)",
                  percent_cell(impr(1, 0, 4))});
  claims.add_row({"BasicNonSpec vs Baseline, Multicast_static", "74.1%",
                  percent_cell(impr(1, 0, 5))});
  claims.add_row({"BasicHybrid vs BasicNonSpec, multicast benchmarks",
                  "10.5..14.9%",
                  percent_cell(impr(2, 1, 3)) + " / " +
                      percent_cell(impr(2, 1, 4)) + " / " +
                      percent_cell(impr(2, 1, 5))});
  claims.add_row({"OptHybrid vs BasicNonSpec, multicast benchmarks",
                  "17.8..21.4%",
                  percent_cell(impr(3, 1, 3)) + " / " +
                      percent_cell(impr(3, 1, 4)) + " / " +
                      percent_cell(impr(3, 1, 5))});
  claims.add_row({"BasicNonSpec vs Baseline, unicast (small overhead)",
                  "slightly worse",
                  percent_cell(impr(1, 0, 0)) + " / " +
                      percent_cell(impr(1, 0, 1))});
  claims.add_row({"Hybrids beat BasicNonSpec on unicast", "noticeable",
                  percent_cell(impr(2, 1, 0)) + " / " +
                      percent_cell(impr(3, 1, 0))});
  specnoc::bench::emit(claims, "Figure 6(a) relative claims", opts);
  telemetry.emit("Figure 6(a) grid", opts);
  return telemetry.failures() == 0 ? 0 : 1;
}
