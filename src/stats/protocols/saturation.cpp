#include "stats/protocols/saturation.h"

#include "stats/experiment.h"
#include "stats/recorder.h"
#include "traffic/driver.h"

namespace specnoc::stats {

using namespace specnoc::literals;

SaturationResult SaturationProtocol::run(const Spec& spec,
                                         const RunContext& context) {
  ProbeRig& rig = context.rig;
  noc::MessageNetwork& network = context.network;
  auto& net = network.net();
  TrafficRecorder recorder(net.packets());
  net.hooks().traffic = &recorder;
  rig.attach(net);
  const std::uint32_t n = network.endpoints();
  const auto pattern = traffic::make_benchmark(spec.bench, n);
  traffic::DriverConfig driver_cfg;
  driver_cfg.mode = traffic::InjectionMode::kBacklogged;
  driver_cfg.seed = context.seed_or(spec.seed);
  traffic::TrafficDriver driver(network, *pattern, driver_cfg);
  driver.start();

  // Time-bounded driving goes through the network's unified run surface, so
  // a partitioned network (config.sim_threads != 1) executes its lanes in
  // parallel; results are identical at any thread count (DESIGN.md §9).
  const auto windows = ExperimentRunner::saturation_windows();
  rig.guard([&] {
    net.run_until(windows.warmup);
    recorder.open_window(net.now());
    net.run_until(windows.warmup + windows.measure);
    recorder.close_window(net.now());
  });

  SaturationResult result;
  result.delivered_flits_per_ns = recorder.delivered_flits_per_ns(n);
  result.injected_flits_per_ns = recorder.injected_flits_per_ns(n);
  result.delivery_factor =
      result.injected_flits_per_ns > 0.0
          ? result.delivered_flits_per_ns / result.injected_flits_per_ns
          : 1.0;
  const auto& store = net.packets();
  result.message_expansion =
      store.num_messages() > 0
          ? static_cast<double>(store.num_packets()) /
                static_cast<double>(store.num_messages())
          : 1.0;
  rig.harvest(net);
  return result;
}

traffic::SimWindows ExperimentRunner::saturation_windows() {
  return {.warmup = 1000_ns, .measure = 4000_ns};
}

}  // namespace specnoc::stats
