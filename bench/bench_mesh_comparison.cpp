// Extension — MoT vs 2D-mesh comparison (paper future work; also echoes
// ref [18]'s MoT-vs-mesh results).
//
// Both substrates are built with the same endpoint count (16), the same
// packet size, NI delays, and wire-delay constants, and driven by the same
// benchmarks and measurement protocols. Reported: zero-ish-load latency,
// saturation throughput, switch area, and the serial-vs-tree multicast gap
// on each topology.
#include <memory>

#include "bench_common.h"
#include "core/mot_network.h"
#include "mesh/mesh_network.h"

using namespace specnoc;
using specnoc::bench::HarnessOptions;
using specnoc::bench::run_on;
using namespace specnoc::literals;

namespace {

using NetworkMaker = std::function<std::unique_ptr<noc::MessageNetwork>()>;

struct Measured {
  double saturation = 0.0;
  double latency_ns = 0.0;
  std::uint64_t events = 0;
};

// Saturation (backlogged) and latency at a fixed light load (0.2
// flits/ns/source, for a like-for-like zero-ish-load comparison across
// topologies), each on its own fresh network.
Measured measure(const NetworkMaker& make, traffic::BenchmarkId bench,
                 std::uint64_t seed) {
  const auto saturation_net = make();
  const auto latency_net = make();
  stats::SaturationSpec saturation;
  saturation.bench = bench;
  stats::LatencySpec latency;
  latency.bench = bench;
  latency.injected_flits_per_ns = 0.2;
  latency.windows = {.warmup = 300_ns, .measure = 2000_ns};
  Measured out;
  out.saturation =
      run_on<stats::SaturationProtocol>(*saturation_net, saturation, seed)
          .delivered_flits_per_ns;
  out.latency_ns = run_on<stats::LatencyProtocol>(*latency_net, latency, seed)
                       .mean_latency_ns;
  out.events = saturation_net->net().executed() + latency_net->net().executed();
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const HarnessOptions opts = specnoc::bench::parse_args(
      argc, argv, "bench_mesh_comparison",
      "MoT vs mesh: saturation, latency, and cost comparison.");

  core::NetworkConfig mot_cfg;
  mot_cfg.n = 16;
  mesh::MeshConfig mesh_cfg;  // 4x4 = 16 endpoints
  mesh::MeshConfig mesh_serial_cfg;
  mesh_serial_cfg.multicast = mesh::MulticastMode::kSerial;

  struct RowSpec {
    const char* name;
    NetworkMaker make;
  };
  const RowSpec rows[] = {
      {"MoT-16 OptHybridSpeculative",
       [&] {
         return std::make_unique<core::MotNetwork>(
             core::Architecture::kOptHybridSpeculative, mot_cfg);
       }},
      {"MoT-16 Baseline (serial mcast)",
       [&] {
         return std::make_unique<core::MotNetwork>(
             core::Architecture::kBaseline, mot_cfg);
       }},
      {"Mesh-4x4 tree mcast",
       [&] { return std::make_unique<mesh::MeshNetwork>(mesh_cfg); }},
      {"Mesh-4x4 serial mcast",
       [&] { return std::make_unique<mesh::MeshNetwork>(mesh_serial_cfg); }},
  };

  const traffic::BenchmarkId benches[] = {
      traffic::BenchmarkId::kUniformRandom,
      traffic::BenchmarkId::kMulticast10,
      traffic::BenchmarkId::kMulticastStatic,
  };

  // The 12 (network, benchmark) cells are independent simulations; run them
  // on the work-stealing pool and collect results keyed by cell index.
  constexpr std::size_t kNumRows = std::size(rows);
  constexpr std::size_t kNumBenches = std::size(benches);
  Measured grid[kNumRows][kNumBenches] = {};
  const sim::ParallelRunner pool({.jobs = opts.jobs});
  const auto runs =
      pool.run(kNumRows * kNumBenches, [&](std::size_t index) {
        Measured& out = grid[index / kNumBenches][index % kNumBenches];
        out = measure(rows[index / kNumBenches].make,
                      benches[index % kNumBenches], opts.seed);
        return out.events;
      });
  specnoc::bench::TelemetryTable telemetry;
  for (std::size_t index = 0; index < runs.size(); ++index) {
    telemetry.add(std::string(rows[index / kNumBenches].name) + "/" +
                      traffic::to_string(benches[index % kNumBenches]),
                  runs[index]);
  }

  Table sat({"Network", "Uniform sat", "Mcast10 sat", "Mcast_static sat"});
  Table lat({"Network", "Uniform lat (ns)", "Mcast10 lat (ns)",
             "Mcast_static lat (ns)"});
  for (std::size_t r = 0; r < kNumRows; ++r) {
    std::vector<std::string> sat_row{rows[r].name};
    std::vector<std::string> lat_row{rows[r].name};
    for (std::size_t b = 0; b < kNumBenches; ++b) {
      const bool ok = runs[r * kNumBenches + b].ok;
      sat_row.push_back(ok ? cell(grid[r][b].saturation, 2) : "FAIL");
      lat_row.push_back(ok ? cell(grid[r][b].latency_ns, 2) : "FAIL");
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
  area.add_row({"MoT-16 OptHybridSpeculative",
                cell(core::MotNetwork(core::Architecture::kOptHybridSpeculative,
                                      mot_cfg)
                         .total_node_area(),
                     0),
                "8..8"});
  area.add_row({"Mesh-4x4",
                cell(mesh::MeshNetwork(mesh_cfg).total_node_area(), 0),
                "1..7"});
  specnoc::bench::emit(area, "Cost comparison", opts);
  specnoc::bench::note(
      "The MoT's constant log-depth paths give it flat latency and high "
      "multicast saturation; the mesh wins on switch area at this size but "
      "pays distance-dependent latency and serializes at hot rows/columns.");
  telemetry.emit("MoT vs mesh grid", opts);
  return telemetry.failures() == 0 ? 0 : 1;
}
