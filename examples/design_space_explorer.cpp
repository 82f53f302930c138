// Design-space explorer: evaluate arbitrary speculation placements.
//
// The paper's future work is hybrid architectures for larger MoTs, where
// "more degrees of freedom to mix the speculative and non-speculative
// nodes" open a wide design space (Figure 3(d) shows one 16x16 point).
// This tool sweeps every per-level speculation pattern at a chosen radix
// and ranks the *local* configurations by a simple figure of merit:
// latency improvement per percent of power overhead, relative to the
// non-speculative design.
//
//   $ ./examples/design_space_explorer [n=16] [--jobs N]
//
// Every design point is three independent simulations (saturation anchor,
// latency, power); the sweep batches them on the parallel runner's worker
// threads. Results are keyed by design point, so the ranking is identical
// for any --jobs value (--jobs 1 is the serial path). Large radixes can be
// split across machines with --shard i/K --out shard.jsonl, combined with
// sweep_merge, and ranked from the merged file with --from.
#include <algorithm>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "core/registry.h"
#include "mot/addressing.h"
#include "stats/experiment.h"
#include "stats/sweep.h"
#include "util/cli.h"

using namespace specnoc;

namespace {

struct DesignPoint {
  std::string label;
  bool local = false;
  std::uint32_t addr_bits = 0;
  double latency_ns = 0.0;
  double power_mw = 0.0;
  double latency_gain = 0.0;  // vs non-speculative
  double power_cost = 0.0;    // vs non-speculative
};

}  // namespace

int main(int argc, char** argv) {
  std::uint32_t n = 16;
  std::uint64_t seed = 42;
  stats::SweepOptions sweep_options;
  sweep_options.tool = "design_space_explorer";

  util::CliParser cli("design_space_explorer",
                      "Sweep every per-level speculation placement and rank "
                      "the local configurations.");
  cli.add_positional_uint32("n", &n, "network radix (default 16)");
  cli.add_unsigned("--jobs", &sweep_options.batch.jobs,
                   "worker threads (0: hardware concurrency, 1: serial)");
  cli.add_uint64("--seed", &seed, "experiment seed");
  cli.add_string("--metrics", &sweep_options.metrics_path,
                 "collect per-run speculation/stall metrics and write them "
                 "to this JSON file (observational; ranking is unchanged)");
  cli.add_custom("--shard", "i/K",
                 "worker mode: run only shard i of K (requires --out)",
                 [&sweep_options](const std::string& value) {
                   sweep_options.shard = sim::ShardRef::parse(value);
                 });
  cli.add_string("--out", &sweep_options.out_path,
                 "worker mode: write this shard's results to a JSONL file");
  cli.add_string("--from", &sweep_options.from_path,
                 "rank from a merged shard file instead of simulating");
  cli.parse_or_exit(argc, argv);

  core::NetworkConfig config;
  config.n = n;
  stats::ShardedSweep sweep =
      stats::ShardedSweep::open_or_exit(config, seed, sweep_options);
  const mot::MotTopology topology(n);
  const auto bench = traffic::BenchmarkId::kMulticast10;
  const auto windows = traffic::default_windows(bench);

  if (sweep.should_render()) {
    std::printf("Exploring %ux%u speculation placements on %s...\n\n", n, n,
                traffic::to_string(bench));
  }

  std::vector<DesignPoint> points;
  std::vector<stats::SaturationSpec> sat_specs;
  const std::uint32_t free_levels = topology.levels() - 1;
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

    const auto spec = core::SpeculationMap::from_levels(topology, levels);
    DesignPoint point;
    point.label = label;
    point.local = spec.is_local();
    point.addr_bits =
        mot::SourceRouteEncoder(topology, spec.flags()).address_bits();
    points.push_back(point);
    // Specs name the point by its registry label alone, so shard files
    // describe it fully.
    core::ArchitectureRegistry::global().add_speculation_levels(
        label, std::move(levels));
    sat_specs.push_back({.arch = core::Architecture::kCustomHybrid,
                         .bench = bench,
                         .seed = 0,
                         .custom = label});
  }

  // Phase 1: each point's saturation anchor — run in full in every mode so
  // all shard workers derive identical latency/power grids. Phase 2:
  // latency and power at 25% of it, the grids that get sharded.
  const auto sat_outcomes =
      sweep.anchors<stats::SaturationProtocol>(sat_specs);
  std::vector<stats::LatencySpec> lat_specs;
  std::vector<stats::PowerSpec> power_specs;
  for (std::size_t i = 0; i < points.size(); ++i) {
    const double rate = stats::operating_rate(sat_outcomes[i].result, 0.25);
    lat_specs.push_back({.arch = core::Architecture::kCustomHybrid,
                         .bench = bench,
                         .injected_flits_per_ns = rate,
                         .windows = windows,
                         .seed = 0,
                         .custom = points[i].label});
    power_specs.push_back({.arch = core::Architecture::kCustomHybrid,
                           .bench = bench,
                           .injected_flits_per_ns = rate,
                           .windows = windows,
                           .seed = 0,
                           .custom = points[i].label});
  }
  const auto lat_outcomes =
      sweep.grid<stats::LatencyProtocol>("latency", lat_specs);
  const auto power_outcomes =
      sweep.grid<stats::PowerProtocol>("power", power_specs);
  if (!sweep.should_render()) return sweep.finish();
  for (std::size_t i = 0; i < points.size(); ++i) {
    points[i].latency_ns = lat_outcomes[i].result.mean_latency_ns;
    points[i].power_mw = power_outcomes[i].result.power_mw;
    if (!sat_outcomes[i].run.ok || !lat_outcomes[i].run.ok ||
        !power_outcomes[i].run.ok) {
      std::fprintf(stderr, "point %s failed: %s\n", points[i].label.c_str(),
                   (!sat_outcomes[i].run.ok   ? sat_outcomes[i].run.error
                    : !lat_outcomes[i].run.ok ? lat_outcomes[i].run.error
                                              : power_outcomes[i].run.error)
                       .c_str());
    }
  }

  const DesignPoint& nonspec = points.front();  // bits==0 is {}
  for (auto& point : points) {
    point.latency_gain = 1.0 - point.latency_ns / nonspec.latency_ns;
    point.power_cost = point.power_mw / nonspec.power_mw - 1.0;
  }

  std::printf("%-12s %-6s %-9s %-10s %-10s %-10s %-10s\n", "Spec levels",
              "Local", "AddrBits", "Lat (ns)", "Power(mW)", "LatGain",
              "PowerCost");
  for (const auto& point : points) {
    std::printf("%-12s %-6s %-9u %-10.2f %-10.1f %-+9.1f%% %-+9.1f%%\n",
                point.label.c_str(), point.local ? "yes" : "no",
                point.addr_bits, point.latency_ns, point.power_mw,
                point.latency_gain * 100.0, point.power_cost * 100.0);
  }

  // Rank local configurations by latency gain per % power cost.
  std::vector<const DesignPoint*> local_points;
  for (const auto& point : points) {
    if (point.local && point.power_cost > 0.0) {
      local_points.push_back(&point);
    }
  }
  std::sort(local_points.begin(), local_points.end(),
            [](const DesignPoint* a, const DesignPoint* b) {
              return a->latency_gain / a->power_cost >
                     b->latency_gain / b->power_cost;
            });
  if (!local_points.empty()) {
    std::printf("\nBest local configuration by latency-gain per power-cost: "
                "%s (%.1f%% faster for %.1f%% more power, %u addr bits)\n",
                local_points.front()->label.c_str(),
                local_points.front()->latency_gain * 100.0,
                local_points.front()->power_cost * 100.0,
                local_points.front()->addr_bits);
  }
  return sweep.finish();
}
