// Extension — local speculation on the 2D mesh (the paper's future work).
//
// Compares the plain XY mesh against meshes with opportunistically
// speculative routers (see mesh::SpecMeshRouter for why mesh speculation
// must be opportunistic rather than the MoT's always-broadcast): latency
// at light load where idle ports make speculation bite, saturation, and
// the redundant-copy cost (throttled flits, power). Each mesh is a
// core::ArchitectureRegistry entry, so the grids shard like any sweep.
#include "bench_common.h"

using namespace specnoc;
using specnoc::bench::HarnessOptions;
using namespace specnoc::literals;

int main(int argc, char** argv) {
  const HarnessOptions opts = specnoc::bench::parse_args(
      argc, argv, "bench_mesh_speculation",
      "Local speculation transplanted onto a mesh topology.",
      specnoc::bench::Flags::kGrid);
  core::NetworkConfig cfg;
  cfg.n = 16;  // 4x4 meshes
  stats::ShardedSweep sweep = specnoc::bench::make_sweep(opts, cfg);

  struct Config {
    const char* name;
    const char* entry;
  };
  const Config configs[] = {
      {"plain XY mesh", "MeshXY"},
      {"sparse spec (1/4 routers)", "MeshSpecSparse"},
      {"checkerboard spec (1/2)", "MeshSpecCheckerboard"},
  };
  const traffic::BenchmarkId benches[] = {
      traffic::BenchmarkId::kUniformRandom,
      traffic::BenchmarkId::kMulticast10,
  };

  // Saturation, then latency and power at 0.2 flits/ns/source over the
  // same window, each cell on its own fresh mesh.
  constexpr double kLoad = 0.2;
  const traffic::SimWindows windows{.warmup = 300_ns, .measure = 2500_ns};
  std::vector<stats::SaturationSpec> saturation;
  std::vector<stats::LatencySpec> latency;
  std::vector<stats::PowerSpec> power;
  const auto arch = core::Architecture::kCustomHybrid;  // what meshes report
  for (const auto bench : benches) {
    for (const auto& config : configs) {
      saturation.push_back(
          {.arch = arch, .bench = bench, .seed = 0, .custom = config.entry});
      latency.push_back({.arch = arch,
                         .bench = bench,
                         .injected_flits_per_ns = kLoad,
                         .windows = windows,
                         .seed = 0,
                         .custom = config.entry});
      power.push_back({.arch = arch,
                       .bench = bench,
                       .injected_flits_per_ns = kLoad,
                       .windows = windows,
                       .seed = 0,
                       .custom = config.entry});
    }
  }
  const auto sat_out =
      sweep.grid<stats::SaturationProtocol>("saturation", saturation);
  const auto lat_out = sweep.grid<stats::LatencyProtocol>("latency", latency);
  const auto pow_out = sweep.grid<stats::PowerProtocol>("power", power);
  if (!sweep.should_render()) return sweep.finish();

  // A failed cell shows FAIL in the columns its run would have filled.
  const auto shown = [](const auto& outcome, std::string text) {
    return outcome.run.ok ? text : std::string("FAIL");
  };
  std::size_t cursor = 0;
  for (const auto bench : benches) {
    Table table({"Config", "Sat (f/ns/src)", "Lat @0.2 (ns)", "p95 (ns)",
                 "Power @0.2 (mW)", "Throttled flits"});
    for (const auto& config : configs) {
      const auto& s = sat_out[cursor];
      const auto& l = lat_out[cursor];
      const auto& p = pow_out[cursor++];
      table.add_row(
          {config.name, shown(s, cell(s.result.delivered_flits_per_ns, 2)),
           shown(l, cell(l.result.mean_latency_ns, 2)),
           shown(l, cell(l.result.p95_latency_ns, 2)),
           shown(p, cell(p.result.power_mw, 1)),
           shown(p, cell(static_cast<long long>(p.result.throttled_flits)))});
    }
    specnoc::bench::emit(table,
                         std::string("Mesh local speculation, 4x4, ") +
                             traffic::to_string(bench),
                         opts);
  }
  specnoc::bench::note(
      "Opportunistic speculation fires early copies only on idle ports, so "
      "it accelerates the common uncongested case (lower latency, slightly "
      "higher saturation) at the cost of throttled redundant copies "
      "(power). The MoT-style always-broadcast C-element deadlocks on a "
      "mesh — see DESIGN.md.");
  return sweep.finish();
}
