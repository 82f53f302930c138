// Extension — local speculation on the 2D mesh (the paper's future work).
//
// Compares the plain XY mesh against meshes with opportunistically
// speculative routers (see mesh::SpecMeshRouter for why mesh speculation
// must be opportunistic rather than the MoT's always-broadcast): latency
// at light load where idle ports make speculation bite, saturation, and
// the redundant-copy cost (throttled flits, power).
#include "bench_common.h"
#include "mesh/mesh_network.h"

using namespace specnoc;
using specnoc::bench::HarnessOptions;
using specnoc::bench::run_on;
using namespace specnoc::literals;

namespace {

std::uint64_t sparse_speculation(const mesh::MeshTopology& topology) {
  std::uint64_t mask = 0;
  for (std::uint32_t id = 0; id < topology.n(); ++id) {
    if (topology.x_of(id) % 2 == 0 && topology.y_of(id) % 2 == 0) {
      mask |= std::uint64_t{1} << id;
    }
  }
  return mask;
}

struct Row {
  double saturation = 0.0;
  double latency_ns = 0.0;
  double p95_ns = 0.0;
  double power_mw = 0.0;
  std::uint64_t throttled = 0;
};

// Saturation, then latency and power at `load` over the same window, each
// on its own fresh mesh.
Row measure(const mesh::MeshConfig& cfg, traffic::BenchmarkId bench,
            double load, std::uint64_t seed) {
  const traffic::SimWindows windows{.warmup = 300_ns, .measure = 2500_ns};
  stats::SaturationSpec saturation;
  saturation.bench = bench;
  stats::LatencySpec latency;
  latency.bench = bench;
  latency.injected_flits_per_ns = load;
  latency.windows = windows;
  stats::PowerSpec power;
  power.bench = bench;
  power.injected_flits_per_ns = load;
  power.windows = windows;

  Row row;
  mesh::MeshNetwork saturation_net(cfg);
  row.saturation =
      run_on<stats::SaturationProtocol>(saturation_net, saturation, seed)
          .delivered_flits_per_ns;
  mesh::MeshNetwork latency_net(cfg);
  const auto lat = run_on<stats::LatencyProtocol>(latency_net, latency, seed);
  row.latency_ns = lat.mean_latency_ns;
  row.p95_ns = lat.p95_latency_ns;
  mesh::MeshNetwork power_net(cfg);
  const auto used = run_on<stats::PowerProtocol>(power_net, power, seed);
  row.power_mw = used.power_mw;
  row.throttled = used.throttled_flits;
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  const HarnessOptions opts = specnoc::bench::parse_args(
      argc, argv, "bench_mesh_speculation",
      "Local speculation transplanted onto a mesh topology.");
  const mesh::MeshTopology topo(4, 4);

  struct Config {
    const char* name;
    std::uint64_t spec;
  };
  const Config configs[] = {
      {"plain XY mesh", 0},
      {"sparse spec (1/4 routers)", sparse_speculation(topo)},
      {"checkerboard spec (1/2)",
       mesh::MeshNetwork::checkerboard_speculation(topo)},
  };

  for (const auto bench : {traffic::BenchmarkId::kUniformRandom,
                           traffic::BenchmarkId::kMulticast10}) {
    Table table({"Config", "Sat (f/ns/src)", "Lat @0.2 (ns)", "p95 (ns)",
                 "Power @0.2 (mW)", "Throttled flits"});
    for (const auto& config : configs) {
      mesh::MeshConfig cfg;
      cfg.speculative_routers = config.spec;
      const Row row = measure(cfg, bench, 0.2, opts.seed);
      table.add_row({config.name, cell(row.saturation, 2),
                     cell(row.latency_ns, 2), cell(row.p95_ns, 2),
                     cell(row.power_mw, 1),
                     cell(static_cast<long long>(row.throttled))});
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
  return 0;
}
