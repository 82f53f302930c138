// Extension ablation — asynchronous vs synchronous switch implementations.
//
// The paper's conclusion lists extending local speculation to synchronous
// NoCs as future work, and argues throughout that the "sub-cycle" operation
// of asynchronous broadcast/throttling is what makes speculation cheap. This
// harness quantifies that: the same OptHybridSpeculative (and Baseline)
// networks are rebuilt with every switch-internal delay quantized to a
// clock edge (Section "clock_period" in core::NetworkConfig) and compared
// against the self-timed original.
//
// Expected shape: the asynchronous network's zero-ish-load latency and
// saturation beat every clocked variant, and the *benefit of speculation
// shrinks* as the clock coarsens — a 52 ps speculative root still costs a
// full cycle in a clocked switch.
#include <iterator>
#include <memory>
#include <vector>

#include "bench_common.h"
#include "core/mot_network.h"
#include "core/registry.h"
#include "stats/experiment.h"

using namespace specnoc;
using specnoc::bench::HarnessOptions;

int main(int argc, char** argv) {
  const HarnessOptions opts = specnoc::bench::parse_args(
      argc, argv, "bench_ablation_sync_vs_async",
      "Async vs synchronous switch implementations.",
      specnoc::bench::Flags::kGrid);
  const TimePs periods[] = {0, 400, 600, 800};
  const auto bench = traffic::BenchmarkId::kUniformRandom;
  using core::Architecture;
  // Table rows are the first two; OptNonSpec is the speculation reference.
  constexpr Architecture kArchs[] = {Architecture::kBaseline,
                                     Architecture::kOptHybridSpeculative,
                                     Architecture::kOptNonSpeculative};
  constexpr std::size_t kNumArchs = std::size(kArchs);

  // Every clocked variant is a registry design point: "<arch>@<period>ps"
  // builds the canonical network with that clock_period, so one runner
  // serves every period and shard files name each variant by its label.
  auto& registry = core::ArchitectureRegistry::global();
  std::vector<stats::SaturationSpec> sat_specs;
  for (const TimePs period : periods) {
    for (const auto arch : kArchs) {
      std::string label;
      if (period != 0) {
        label = std::string(core::to_string(arch)) + "@" +
                std::to_string(period) + "ps";
        registry.add(
            label,
            [arch, period](const core::NetworkConfig& base) {
              core::NetworkConfig cfg = base;
              cfg.clock_period = period;
              return std::make_unique<core::MotNetwork>(arch, cfg);
            },
            arch);
      }
      sat_specs.push_back({.arch = arch, .bench = bench, .seed = 0,
                           .custom = label});
    }
  }
  stats::ShardedSweep sweep = specnoc::bench::make_sweep(opts);

  // Each network's saturation, then its latency at 25% of it.
  const auto sats = sweep.anchors<stats::SaturationProtocol>(sat_specs);
  if (sweep.anchors_only()) return sweep.finish();
  std::vector<stats::LatencySpec> lat_specs;
  for (const auto& sat : sats) {
    lat_specs.push_back(
        {.arch = sat.spec.arch,
         .bench = bench,
         .injected_flits_per_ns = stats::operating_rate(sat.result, 0.25),
         .windows = traffic::default_windows(bench),
         .seed = 0,
         .custom = sat.spec.custom});
  }
  const auto lats = sweep.grid<stats::LatencyProtocol>("latency", lat_specs);
  if (!sweep.should_render()) return sweep.finish();

  Table table({"Clock", "Arch", "Saturation (flits/ns/src)",
               "Latency @25% (ns)", "p95 (ns)"});
  Table spec_benefit({"Clock", "OptNonSpec lat (ns)", "OptHybrid lat (ns)",
                      "Speculation benefit"});
  for (std::size_t p = 0; p < std::size(periods); ++p) {
    const std::string clock_label =
        periods[p] == 0 ? "async" : std::to_string(periods[p]) + " ps";
    const std::size_t base = p * kNumArchs;
    auto latency = [&](std::size_t i, double value) {
      return lats[base + i].run.ok ? cell(value, 2) : "FAIL";
    };
    for (std::size_t i = 0; i < 2; ++i) {
      const auto& sat = sats[base + i];
      const auto& lat = lats[base + i];
      table.add_row({clock_label, core::to_string(kArchs[i]),
                     sat.run.ok ? cell(sat.result.delivered_flits_per_ns, 2)
                                : "FAIL",
                     latency(i, lat.result.mean_latency_ns),
                     latency(i, lat.result.p95_latency_ns)});
    }
    const double lat_hybrid = lats[base + 1].result.mean_latency_ns;
    const double lat_nonspec = lats[base + 2].result.mean_latency_ns;
    spec_benefit.add_row(
        {clock_label, latency(2, lat_nonspec), latency(1, lat_hybrid),
         lats[base + 1].run.ok && lats[base + 2].run.ok
             ? percent_cell(lat_hybrid / lat_nonspec - 1.0)
             : "n/a"});
  }

  specnoc::bench::emit(table, "Async vs synchronous switch implementations",
                       opts);
  specnoc::bench::emit(
      spec_benefit,
      "Does local speculation survive clocking? (negative = still helps)",
      opts);
  specnoc::bench::note(
      "The asynchronous design exploits sub-cycle node latencies (52-299 "
      "ps); a clocked switch pays a full period per stage regardless, so "
      "both absolute performance and the relative value of fast "
      "speculative nodes degrade with the clock.",
      opts);
  return sweep.finish();
}
