// E4 — Table 1 (left): saturation throughput, 6 benchmarks x 6 networks.
//
// Protocol: backlogged sources, delivered flits per ns per source (the
// paper's "GF/s") over a 4 us window after 1 us warmup.
#include <algorithm>
#include <array>
#include <limits>

#include "bench_common.h"
#include "stats/experiment.h"

using namespace specnoc;
using specnoc::bench::HarnessOptions;

namespace {

// Paper Table 1, saturation throughput (GF/s), same row/column order.
constexpr double kPaper[6][6] = {
    // Uniform, Shuffle, Hotspot, Mcast5, Mcast10, Mcast_static
    {1.26, 1.48, 0.29, 1.28, 1.28, 1.29},  // Baseline
    {1.25, 1.22, 0.29, 1.47, 1.63, 1.80},  // BasicNonSpeculative
    {1.42, 1.25, 0.29, 1.61, 1.73, 1.87},  // BasicHybridSpeculative
    {1.52, 1.57, 0.29, 1.72, 1.82, 1.93},  // OptNonSpeculative
    {1.60, 1.62, 0.29, 1.76, 1.84, 1.96},  // OptHybridSpeculative
    {1.65, 1.70, 0.29, 1.78, 1.84, 1.96},  // OptAllSpeculative
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
  for (const auto bench : traffic::all_benchmarks()) {
    h.emplace_back(traffic::to_string(bench));
  }
  return h;
}

}  // namespace

int main(int argc, char** argv) {
  const HarnessOptions opts = specnoc::bench::parse_args(
      argc, argv, "bench_table1_throughput",
      "Table 1 (left): saturation throughput, 6 benchmarks x 6 networks.",
      specnoc::bench::Flags::kGrid);
  // The default network: 8x8, 5-flit packets.
  stats::ShardedSweep sweep = specnoc::bench::make_sweep(opts);

  // All 36 grid cells are independent runs; execute them on the pool. The
  // outcomes come back in spec order; the table and the claims below both
  // read them.
  std::vector<stats::SaturationSpec> specs;
  for (const auto arch : kRowOrder) {
    for (const auto bench : traffic::all_benchmarks()) {
      specs.push_back({.arch = arch, .bench = bench, .seed = 0, .custom = {}});
    }
  }
  const auto outcomes =
      sweep.grid<stats::SaturationProtocol>("throughput", specs);
  if (!sweep.should_render()) return sweep.finish();

  Table measured(header_row());
  Table reference(header_row());
  std::size_t cursor = 0;
  for (std::size_t r = 0; r < kRowOrder.size(); ++r) {
    const auto arch = kRowOrder[r];
    std::vector<std::string> row{core::to_string(arch)};
    std::vector<std::string> ref{core::to_string(arch)};
    std::size_t c = 0;
    for ([[maybe_unused]] const auto bench : traffic::all_benchmarks()) {
      const auto& outcome = outcomes[cursor++];
      row.push_back(outcome.run.ok
                        ? cell(outcome.result.delivered_flits_per_ns, 2)
                        : "FAIL");
      ref.push_back(cell(kPaper[r][c++], 2));
    }
    measured.add_row(std::move(row));
    reference.add_row(std::move(ref));
  }

  specnoc::bench::emit(measured,
                       "Table 1 (measured): saturation throughput, "
                       "delivered flits/ns/source",
                       opts);
  specnoc::bench::emit(reference, "Table 1 (paper): saturation throughput GF/s",
                       opts);

  // The paper's headline relative claims. A failed cell reads as NaN, so
  // its claims print "n/a".
  auto sat = [&](core::Architecture a, traffic::BenchmarkId b) {
    const auto& outcome = *std::find_if(
        outcomes.begin(), outcomes.end(), [&](const auto& candidate) {
          return candidate.spec.arch == a && candidate.spec.bench == b;
        });
    return outcome.run.ok ? outcome.result.delivered_flits_per_ns
                          : std::numeric_limits<double>::quiet_NaN();
  };
  using core::Architecture;
  using traffic::BenchmarkId;
  Table claims({"Claim", "Paper", "Measured"});
  claims.add_row(
      {"BasicNonSpec vs Baseline, Multicast5", "+14.8%",
       percent_cell(sat(Architecture::kBasicNonSpeculative,
                        BenchmarkId::kMulticast5) /
                        sat(Architecture::kBaseline,
                            BenchmarkId::kMulticast5) -
                    1.0)});
  claims.add_row(
      {"BasicNonSpec vs Baseline, Multicast_static", "+39.5%",
       percent_cell(sat(Architecture::kBasicNonSpeculative,
                        BenchmarkId::kMulticastStatic) /
                        sat(Architecture::kBaseline,
                            BenchmarkId::kMulticastStatic) -
                    1.0)});
  claims.add_row(
      {"OptHybrid vs BasicNonSpec, UniformRandom", "+28.0%",
       percent_cell(sat(Architecture::kOptHybridSpeculative,
                        BenchmarkId::kUniformRandom) /
                        sat(Architecture::kBasicNonSpeculative,
                            BenchmarkId::kUniformRandom) -
                    1.0)});
  claims.add_row(
      {"OptHybrid vs BasicNonSpec, Shuffle", "+32.8%",
       percent_cell(sat(Architecture::kOptHybridSpeculative,
                        BenchmarkId::kShuffle) /
                        sat(Architecture::kBasicNonSpeculative,
                            BenchmarkId::kShuffle) -
                    1.0)});
  claims.add_row(
      {"Hotspot identical across networks (max spread)", "~0%",
       percent_cell(sat(Architecture::kOptAllSpeculative,
                        BenchmarkId::kHotspot) /
                        sat(Architecture::kBaseline, BenchmarkId::kHotspot) -
                    1.0)});
  specnoc::bench::emit(claims, "Relative claims", opts);
  return sweep.finish();
}
