// E7 — hybrid speculation-placement ablation on a 16x16 MoT.
//
// The paper sketches one 16x16 hybrid (Figure 3(d): speculative levels
// {0, 2}) and names the wider family as future work. This harness sweeps
// every per-level speculation pattern (leaf level always non-speculative)
// and reports zero-ish-load latency, saturation, power, and address bits —
// the cost/benefit landscape of local speculation placement.
//
// The design points go through core::ArchitectureRegistry: each label (the
// speculation-level set) is registered once in main(), and the specs carry
// only the label in their `custom` field — ExperimentRunner rebuilds the
// network from the registry. The label is also what identifies each cell
// in shard files (factories cannot travel between worker processes), so a
// phase-2 worker or --from render reconstructs identical networks simply
// by re-registering the same labels.
#include <vector>

#include "bench_common.h"
#include "core/registry.h"
#include "mot/addressing.h"
#include "stats/experiment.h"

using namespace specnoc;
using specnoc::bench::HarnessOptions;

namespace {

struct DesignPoint {
  std::string label;  ///< speculation-level set, e.g. "{0,2}"
  std::vector<std::uint32_t> levels;
  core::SpeculationMap spec;
};

/// Every subset of non-leaf levels, in bitmask order (the paper's Figure
/// 3(d) hybrid is "{0,2}").
std::vector<DesignPoint> design_points(const mot::MotTopology& topo) {
  std::vector<DesignPoint> points;
  const std::uint32_t free_levels = topo.levels() - 1;
  for (std::uint32_t bits = 0; bits < (1u << free_levels); ++bits) {
    std::vector<std::uint32_t> levels;
    std::string label = "{";
    for (std::uint32_t l = 0; l < free_levels; ++l) {
      if (bits & (1u << l)) {
        if (!levels.empty()) label += ',';
        label += std::to_string(l);
        levels.push_back(l);
      }
    }
    label += "}";
    auto spec = core::SpeculationMap::from_levels(topo, levels);
    points.push_back({label, std::move(levels), std::move(spec)});
  }
  return points;
}

}  // namespace

int main(int argc, char** argv) {
  const HarnessOptions opts = specnoc::bench::parse_args(
      argc, argv, "bench_ablation_hybrid16",
      "Hybrid speculation-placement ablation on a 16x16 MoT.",
      specnoc::bench::Flags::kGrid);
  core::NetworkConfig cfg;
  cfg.n = 16;
  stats::ShardedSweep sweep = specnoc::bench::make_sweep(opts, cfg);
  const mot::MotTopology topo(cfg.n);
  const auto points = design_points(topo);
  auto& registry = core::ArchitectureRegistry::global();
  for (const auto& point : points) {
    registry.add_speculation_levels(point.label, point.levels);
  }

  using traffic::BenchmarkId;
  constexpr BenchmarkId kBenches[] = {BenchmarkId::kUniformRandom,
                                      BenchmarkId::kMulticast10};

  // Phase 1: saturation for every design point x benchmark — a sweep
  // anchor (the latency/power rates derive from it), so it runs in full in
  // every mode and all workers build identical downstream grids.
  std::vector<stats::SaturationSpec> sat_specs;
  for (const auto& point : points) {
    for (const auto bench : kBenches) {
      sat_specs.push_back({.arch = core::Architecture::kCustomHybrid,
                           .bench = bench,
                           .seed = 0,
                           .custom = point.label});
    }
  }
  const auto sat_outcomes =
      sweep.anchors<stats::SaturationProtocol>(sat_specs);
  // Phase-1 workers stop here: the downstream specs need anchor results
  // this shard did not simulate.
  if (sweep.anchors_only()) return sweep.finish();

  // Phase 2: the sharded grids — 25%-of-own-saturation latency for both
  // benchmarks, and power under UniformRandom.
  const auto windows = traffic::default_windows(BenchmarkId::kUniformRandom);
  std::vector<stats::LatencySpec> lat_specs;
  std::vector<stats::PowerSpec> power_specs;
  for (std::size_t p = 0; p < points.size(); ++p) {
    const auto& point = points[p];
    for (std::size_t b = 0; b < 2; ++b) {
      const auto& sat = sat_outcomes[2 * p + b].result;
      lat_specs.push_back({.arch = core::Architecture::kCustomHybrid,
                           .bench = kBenches[b],
                           .injected_flits_per_ns =
                               stats::operating_rate(sat, 0.25),
                           .windows = windows,
                           .seed = 0,
                           .custom = point.label});
    }
    const auto& sat_uniform = sat_outcomes[2 * p].result;
    power_specs.push_back({.arch = core::Architecture::kCustomHybrid,
                           .bench = BenchmarkId::kUniformRandom,
                           .injected_flits_per_ns =
                               stats::operating_rate(sat_uniform, 0.25),
                           .windows = windows,
                           .seed = 0,
                           .custom = point.label});
  }
  const auto lat_outcomes =
      sweep.grid<stats::LatencyProtocol>("latency", lat_specs);
  const auto power_outcomes =
      sweep.grid<stats::PowerProtocol>("power", power_specs);
  if (!sweep.should_render()) return sweep.finish();

  Table table({"Spec levels", "Local?", "Addr bits", "Sat uniform",
               "Sat mcast10", "Lat uniform (ns)", "Lat mcast10 (ns)",
               "Power uniform (mW)"});
  for (std::size_t p = 0; p < points.size(); ++p) {
    const auto& point = points[p];
    const auto addr_bits =
        mot::SourceRouteEncoder(topo, point.spec.flags()).address_bits();
    const auto& lat_uniform = lat_outcomes[2 * p];
    const auto& lat_mcast = lat_outcomes[2 * p + 1];
    const auto& power = power_outcomes[p];
    table.add_row(
        {point.label, point.spec.is_local() ? "yes" : "no",
         cell(static_cast<long long>(addr_bits)),
         cell(sat_outcomes[2 * p].result.delivered_flits_per_ns, 2),
         cell(sat_outcomes[2 * p + 1].result.delivered_flits_per_ns, 2),
         lat_uniform.run.ok ? cell(lat_uniform.result.mean_latency_ns, 2)
                            : "FAIL",
         lat_mcast.run.ok ? cell(lat_mcast.result.mean_latency_ns, 2)
                          : "FAIL",
         power.run.ok ? cell(power.result.power_mw, 1) : "FAIL"});
  }
  specnoc::bench::emit(table,
                       "16x16 hybrid placement ablation (paper Figure 3(d) "
                       "is spec levels {0,2})",
                       opts);
  specnoc::bench::note(
      "'Local? yes' = no speculative node feeds another speculative node "
      "(redundant copies throttled after one hop).",
      opts);
  return sweep.finish();
}
