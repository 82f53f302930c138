#include "stats/protocols/power.h"

#include "power/power_meter.h"
#include "stats/recorder.h"
#include "traffic/driver.h"
#include "util/error.h"

namespace specnoc::stats {

PowerResult PowerProtocol::run(const Spec& spec, const RunContext& context) {
  if (spec.injected_flits_per_ns <= 0.0) {
    throw ConfigError("injected rate must be positive, got " +
                      std::to_string(spec.injected_flits_per_ns));
  }
  ProbeRig& rig = context.rig;
  noc::MessageNetwork& network = context.network;
  auto& net = network.net();
  if (net.partitioned()) {
    throw ConfigError(
        "the power protocol's energy accumulation is event-order-dependent, "
        "so it requires sequential execution; build the network with "
        "sim_threads = 1");
  }
  TrafficRecorder recorder(net.packets());
  power::PowerMeter meter(context.energy);
  net.hooks().traffic = &recorder;
  net.hooks().energy = &meter;
  rig.attach(net);
  const auto pattern =
      traffic::make_benchmark(spec.bench, network.endpoints());
  traffic::DriverConfig driver_cfg;
  driver_cfg.mode = traffic::InjectionMode::kOpenLoop;
  driver_cfg.flits_per_ns_per_source = spec.injected_flits_per_ns;
  driver_cfg.seed = context.seed_or(spec.seed);
  traffic::TrafficDriver driver(network, *pattern, driver_cfg);
  driver.start();

  const traffic::SimWindows& windows = spec.windows;
  auto& sched = net.scheduler();
  rig.guard([&] {
    sched.run_until(windows.warmup);
    recorder.open_window(sched.now());
    meter.open_window(sched.now());
    sched.run_until(windows.warmup + windows.measure);
    recorder.close_window(sched.now());
    meter.close_window(sched.now());
  });

  PowerResult result;
  result.power_mw = meter.window_power_mw();
  result.node_power_mw =
      fj_over_ps_to_mw(meter.window_node_energy(), meter.window_duration());
  result.wire_power_mw =
      fj_over_ps_to_mw(meter.window_wire_energy(), meter.window_duration());
  result.delivered_flits_per_ns =
      recorder.delivered_flits_per_ns(network.endpoints());
  result.offered_flits_per_ns = spec.injected_flits_per_ns;
  result.throttled_flits = meter.window_ops(noc::NodeOp::kThrottle);
  result.broadcast_ops = meter.window_ops(noc::NodeOp::kBroadcast);
  rig.harvest(net);
  return result;
}

}  // namespace specnoc::stats
