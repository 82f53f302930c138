#include "stats/protocols/latency.h"

#include "stats/experiment.h"
#include "stats/recorder.h"
#include "traffic/driver.h"
#include "util/contract.h"
#include "util/error.h"
#include "util/log.h"

namespace specnoc::stats {

LatencyResult LatencyProtocol::run(const Spec& spec,
                                   const RunContext& context) {
  if (spec.injected_flits_per_ns <= 0.0) {
    throw ConfigError("injected rate must be positive, got " +
                      std::to_string(spec.injected_flits_per_ns));
  }
  ProbeRig& rig = context.rig;
  const auto network = context.network();
  if (network->net().partitioned()) {
    throw ConfigError(
        "the latency protocol drains the network event-by-event, which has "
        "no windowed equivalent; build the network with sim_threads = 1");
  }
  TrafficRecorder recorder(network->net().packets());
  network->net().hooks().traffic = &recorder;
  rig.attach(network->net());
  const auto pattern =
      traffic::make_benchmark(spec.bench, network->topology().n());
  traffic::DriverConfig driver_cfg;
  driver_cfg.mode = traffic::InjectionMode::kOpenLoop;
  driver_cfg.flits_per_ns_per_source = spec.injected_flits_per_ns;
  driver_cfg.seed = context.seed_or(spec.seed);
  traffic::TrafficDriver driver(*network, *pattern, driver_cfg);
  driver.start();

  const traffic::SimWindows& windows = spec.windows;
  auto& sched = network->scheduler();
  rig.guard([&] {
    sched.run_until(windows.warmup);
    driver.set_measured(true);
    sched.run_until(windows.warmup + windows.measure);
    driver.set_measured(false);

    // Drain: keep the background load flowing until every tagged message
    // has delivered all its headers, with a generous cap for saturated
    // runs.
    const TimePs drain_cap = windows.warmup + windows.measure * 20;
    while (recorder.pending_measured() > 0 && sched.now() < drain_cap) {
      if (!sched.step()) break;
    }
  });

  LatencyResult result;
  result.mean_latency_ns = recorder.mean_latency_ps() / 1e3;
  result.p95_latency_ns = recorder.latency_percentile_ps(95.0) / 1e3;
  result.max_latency_ns = ps_to_ns(recorder.max_latency_ps());
  result.messages_measured = recorder.completed_measured();
  result.offered_flits_per_ns = spec.injected_flits_per_ns;
  result.drained = recorder.pending_measured() == 0;
  if (!result.drained) {
    SPECNOC_LOG(kWarn) << "latency run did not drain: "
                       << to_string(network->architecture()) << "/"
                       << to_string(spec.bench)
                       << " offered=" << spec.injected_flits_per_ns
                       << " pending=" << recorder.pending_measured();
  }
  rig.harvest(network->net());
  return result;
}

LatencyResult ExperimentRunner::measure_latency(core::Architecture arch,
                                                traffic::BenchmarkId bench,
                                                double injected_flits_per_ns,
                                                traffic::SimWindows windows) {
  LatencySpec spec;
  spec.arch = arch;
  spec.bench = bench;
  spec.injected_flits_per_ns = injected_flits_per_ns;
  spec.windows = windows;
  return run_one<LatencyProtocol>(spec);
}

LatencyResult ExperimentRunner::latency_at_fraction(
    core::Architecture arch, traffic::BenchmarkId bench, double fraction) {
  SPECNOC_EXPECTS(fraction > 0.0 && fraction < 1.0);
  // fraction of this network's own saturation, expressed as an injected
  // flit rate; the driver's rate parameter is a message rate in flit
  // units, so divide by the serialization expansion (1 except on the
  // Baseline) to land on the target flit rate.
  const auto& sat = saturation(arch, bench);
  const double commanded = fraction * sat.injected_flits_per_ns /
                           sat.message_expansion;
  return measure_latency(arch, bench, commanded,
                         traffic::default_windows(bench));
}

}  // namespace specnoc::stats
