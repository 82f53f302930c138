// Extension — where does the power go?
//
// Per-architecture breakdown of the Table-1 power measurement (Multicast10
// at 25% Baseline saturation): fanout switches by design, fanin arbiters,
// network interfaces, and wires, plus the redundant-activity counters that
// explain the speculation overheads (throttled flits, broadcast ops).
#include "bench_common.h"
#include "core/mot_network.h"
#include "power/power_meter.h"
#include "stats/experiment.h"
#include "traffic/driver.h"

using namespace specnoc;
using specnoc::bench::HarnessOptions;

int main(int argc, char** argv) {
  const HarnessOptions opts = specnoc::bench::parse_args(
      argc, argv, "bench_power_breakdown",
      "Per-component power breakdown at the paper's operating point.");
  core::NetworkConfig cfg;
  const stats::ExperimentRunner runner(cfg, opts.seed);
  const auto bench = traffic::BenchmarkId::kMulticast10;

  // The same commanded rate the Table-1 power protocol uses.
  const auto anchor = runner.run_grid<stats::SaturationProtocol>(
      {{.arch = core::Architecture::kBaseline, .bench = bench, .seed = 0,
        .custom = {}}},
      {.jobs = opts.jobs})[0];
  if (!anchor.run.ok) {
    std::fprintf(stderr, "error: %s\n", anchor.run.error.c_str());
    return 1;
  }
  const double commanded = stats::operating_rate(anchor.result, 0.25);

  Table table({"Architecture", "Total mW", "Fanout mW", "Fanin mW", "NI mW",
               "Wires mW", "Throttled flits", "Broadcast ops"});
  for (const auto arch : core::all_architectures()) {
    core::MotNetwork network(arch, cfg);
    power::PowerMeter meter;
    network.net().hooks().energy = &meter;
    auto pattern = traffic::make_benchmark(bench, cfg.n);
    traffic::DriverConfig dcfg;
    dcfg.flits_per_ns_per_source = commanded;
    dcfg.seed = opts.seed;
    traffic::TrafficDriver driver(network, *pattern, dcfg);
    driver.start();
    const auto windows = traffic::default_windows(bench);
    auto& sched = network.scheduler();
    sched.run_until(windows.warmup);
    meter.open_window(sched.now());
    sched.run_until(windows.warmup + windows.measure);
    meter.close_window(sched.now());

    const auto duration = meter.window_duration();
    auto mw = [&](EnergyFj energy) {
      return fj_over_ps_to_mw(energy, duration);
    };
    const EnergyFj fanout =
        meter.window_kind_energy(noc::NodeKind::kFanoutBaseline) +
        meter.window_kind_energy(noc::NodeKind::kFanoutSpeculative) +
        meter.window_kind_energy(noc::NodeKind::kFanoutNonSpeculative) +
        meter.window_kind_energy(noc::NodeKind::kFanoutOptSpeculative) +
        meter.window_kind_energy(noc::NodeKind::kFanoutOptNonSpeculative);
    const EnergyFj fanin = meter.window_kind_energy(noc::NodeKind::kFanin);
    const EnergyFj ni = meter.window_kind_energy(noc::NodeKind::kSource) +
                        meter.window_kind_energy(noc::NodeKind::kSink);
    table.add_row(
        {core::to_string(arch), cell(meter.window_power_mw(), 2),
         cell(mw(fanout), 2), cell(mw(fanin), 2), cell(mw(ni), 2),
         cell(fj_over_ps_to_mw(meter.window_wire_energy(), duration), 2),
         cell(static_cast<long long>(
             meter.window_ops(noc::NodeOp::kThrottle))),
         cell(static_cast<long long>(
             meter.window_ops(noc::NodeOp::kBroadcast)))});
  }
  specnoc::bench::emit(table,
                       "Power breakdown, Multicast10 at 25% Baseline "
                       "saturation (equal message rate)",
                       opts);
  specnoc::bench::note(
      "OptHybrid's broadcast ops are header+tail only (the power "
      "optimization); OptAllSpec's throttle count shows the wider "
      "speculative region the paper warns about.",
      opts);
  return 0;
}
