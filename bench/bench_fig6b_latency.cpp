// E3 — Figure 6(b): design-space-exploration average network latency.
//
// Same protocol as Figure 6(a) but comparing the three optimized networks
// with varying degrees of speculation.
#include <array>

#include "bench_common.h"
#include "stats/experiment.h"

using namespace specnoc;
using specnoc::bench::HarnessOptions;

namespace {

constexpr std::array<core::Architecture, 3> kRowOrder =
    core::dse_architectures();

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
      argc, argv, "bench_fig6b_latency",
      "Figure 6(b): design-space-exploration average network latency.",
      specnoc::bench::Flags::kGrid);
  stats::ShardedSweep sweep = specnoc::bench::make_sweep(opts);

  // Same two-phase parallel grid as Figure 6(a): saturation anchors first
  // (full in every mode), then the sharded 25%-load latency runs, both
  // keyed by spec for determinism.
  std::vector<stats::SaturationSpec> sat_specs;
  for (const auto arch : kRowOrder) {
    for (const auto bench : traffic::all_benchmarks()) {
      sat_specs.push_back({.arch = arch, .bench = bench, .seed = 0,
                          .custom = {}});
    }
  }
  const auto sat_outcomes =
      sweep.anchors<stats::SaturationProtocol>(sat_specs);
  // Phase-1 workers stop here: the downstream specs need anchor results
  // this shard did not simulate.
  if (sweep.anchors_only()) return sweep.finish();

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
      sweep.grid<stats::LatencyProtocol>("latency", lat_specs);
  if (!sweep.should_render()) return sweep.finish();

  double lat[3][6] = {};
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
      "Figure 6(b) (measured): avg network latency (ns) at 25% of own "
      "saturation ('*' = did not fully drain)",
      opts);

  // Rows: 0 OptNonSpec, 1 OptHybrid, 2 OptAllSpec.
  auto impr = [&](std::size_t better, std::size_t worse, std::size_t c) {
    return 1.0 - lat[better][c] / lat[worse][c];
  };
  auto range = [&](std::size_t better, std::size_t worse) {
    double lo = 1.0, hi = -1.0;
    for (std::size_t c = 0; c < 6; ++c) {
      const double v = impr(better, worse, c);
      lo = std::min(lo, v);
      hi = std::max(hi, v);
    }
    return percent_cell(lo) + " .. " + percent_cell(hi);
  };
  Table claims({"Claim (latency reduction)", "Paper", "Measured range"});
  claims.add_row({"OptHybrid vs OptNonSpec", "9.7..11.9%", range(1, 0)});
  claims.add_row({"OptAllSpec vs OptHybrid", "8.7..12.0%", range(2, 1)});
  claims.add_row({"OptAllSpec vs OptNonSpec", "18.5..21.7%", range(2, 0)});
  specnoc::bench::emit(claims, "Figure 6(b) relative claims", opts);
  return sweep.finish();
}
