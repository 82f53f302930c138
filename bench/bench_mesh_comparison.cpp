// Extension — MoT vs 2D-mesh comparison (paper future work; also echoes
// ref [18]'s MoT-vs-mesh results).
//
// Both substrates are built with the same endpoint count (16), the same
// packet size, NI delays, and wire-delay constants, and driven by the same
// benchmarks and measurement protocols. Reported: zero-ish-load latency,
// saturation throughput, switch area, and the serial-vs-tree multicast gap
// on each topology. The meshes are core::ArchitectureRegistry entries, so
// every row is a plain spec and both grids shard like any other sweep.
#include "bench_common.h"
#include "core/mot_network.h"
#include "mesh/mesh_network.h"

using namespace specnoc;
using specnoc::bench::HarnessOptions;
using namespace specnoc::literals;

int main(int argc, char** argv) {
  const HarnessOptions opts = specnoc::bench::parse_args(
      argc, argv, "bench_mesh_comparison",
      "MoT vs mesh: saturation, latency, and cost comparison.",
      specnoc::bench::Flags::kGrid);
  core::NetworkConfig cfg;
  cfg.n = 16;  // the meshes derive their 4x4 shape from the radix
  stats::ShardedSweep sweep = specnoc::bench::make_sweep(opts, cfg);

  struct Row {
    const char* name;
    core::Architecture arch;
    const char* custom;  ///< registry entry of a mesh row, else empty
  };
  const Row rows[] = {
      {"MoT-16 OptHybridSpeculative", core::Architecture::kOptHybridSpeculative,
       ""},
      {"MoT-16 Baseline (serial mcast)", core::Architecture::kBaseline, ""},
      {"Mesh-4x4 tree mcast", core::Architecture::kCustomHybrid, "MeshXY"},
      {"Mesh-4x4 serial mcast", core::Architecture::kCustomHybrid,
       "MeshXYSerial"},
  };
  const traffic::BenchmarkId benches[] = {
      traffic::BenchmarkId::kUniformRandom,
      traffic::BenchmarkId::kMulticast10,
      traffic::BenchmarkId::kMulticastStatic,
  };

  // Saturation (backlogged) and latency at a fixed light load (0.2
  // flits/ns/source, for a like-for-like zero-ish-load comparison across
  // topologies), row-major over (network, benchmark).
  std::vector<stats::SaturationSpec> saturation;
  std::vector<stats::LatencySpec> latency;
  for (const auto& row : rows) {
    for (const auto bench : benches) {
      saturation.push_back(
          {.arch = row.arch, .bench = bench, .seed = 0, .custom = row.custom});
      latency.push_back({.arch = row.arch,
                         .bench = bench,
                         .injected_flits_per_ns = 0.2,
                         .windows = {.warmup = 300_ns, .measure = 2000_ns},
                         .seed = 0,
                         .custom = row.custom});
    }
  }
  const auto sat_out =
      sweep.grid<stats::SaturationProtocol>("saturation", saturation);
  const auto lat_out = sweep.grid<stats::LatencyProtocol>("latency", latency);
  if (!sweep.should_render()) return sweep.finish();

  Table sat({"Network", "Uniform sat", "Mcast10 sat", "Mcast_static sat"});
  Table lat({"Network", "Uniform lat (ns)", "Mcast10 lat (ns)",
             "Mcast_static lat (ns)"});
  std::size_t cursor = 0;
  for (const auto& row : rows) {
    std::vector<std::string> sat_row{row.name};
    std::vector<std::string> lat_row{row.name};
    for ([[maybe_unused]] const auto bench : benches) {
      const auto& s = sat_out[cursor];
      const auto& l = lat_out[cursor++];
      sat_row.push_back(
          s.run.ok ? cell(s.result.delivered_flits_per_ns, 2) : "FAIL");
      lat_row.push_back(l.run.ok ? cell(l.result.mean_latency_ns, 2) : "FAIL");
    }
    sat.add_row(std::move(sat_row));
    lat.add_row(std::move(lat_row));
  }
  specnoc::bench::emit(sat,
                       "MoT vs mesh, saturation (delivered flits/ns/source, "
                       "16 endpoints)",
                       opts);
  specnoc::bench::emit(lat, "MoT vs mesh, latency at 0.2 flits/ns/source",
                       opts);

  Table area({"Network", "Switch area (um^2)", "Hops (min..max)"});
  area.add_row(
      {"MoT-16 OptHybridSpeculative",
       cell(core::MotNetwork(core::Architecture::kOptHybridSpeculative, cfg)
                .total_node_area(),
            0),
       "8..8"});
  area.add_row({"Mesh-4x4",
                cell(mesh::MeshNetwork(mesh::MeshConfig{}).total_node_area(),
                     0),
                "1..7"});
  specnoc::bench::emit(area, "Cost comparison", opts);
  specnoc::bench::note(
      "The MoT's constant log-depth paths give it flat latency and high "
      "multicast saturation; the mesh wins on switch area at this size but "
      "pays distance-dependent latency and serializes at hot rows/columns.");
  return sweep.finish();
}
