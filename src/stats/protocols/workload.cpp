#include "stats/protocols/workload.h"

#include "stats/recorder.h"
#include "util/contract.h"
#include "util/error.h"
#include "util/log.h"

namespace specnoc::stats {

WorkloadSpec make_workload_spec(core::Architecture arch, std::string label,
                                workload::ReplayMode mode,
                                std::shared_ptr<const workload::Trace> trace) {
  SPECNOC_EXPECTS(trace != nullptr);
  WorkloadSpec spec;
  spec.arch = arch;
  spec.workload = std::move(label);
  spec.mode = mode;
  spec.trace_hash = workload::trace_hash(*trace);
  spec.trace = std::move(trace);
  return spec;
}

WorkloadResult WorkloadProtocol::run(const Spec& spec,
                                     const RunContext& context) {
  if (spec.trace == nullptr) {
    throw ConfigError("workload spec '" + spec.workload +
                      "' has no trace attached (deserialized specs must be "
                      "re-armed with make_workload_spec before running)");
  }
  const workload::Trace& trace = *spec.trace;
  ProbeRig& rig = context.rig;
  const auto network = context.network();
  TrafficRecorder recorder(network->net().packets());
  workload::ReplayConfig replay_cfg;
  replay_cfg.mode = spec.mode;
  workload::TraceReplayDriver driver(*network, trace, replay_cfg);
  driver.set_downstream(&recorder);
  network->net().hooks().traffic = &driver;
  rig.attach(network->net());

  auto& net = network->net();
  recorder.open_window(net.now());
  driver.start();
  // The trace is finite, so the event queue drains once every injected
  // message has delivered (or stalled for good).
  rig.guard([&] { net.run(); });
  recorder.close_window(net.now());

  WorkloadResult result;
  result.messages = trace.records.size();
  result.messages_delivered = driver.messages_delivered();
  result.flits_delivered = recorder.window_flits_ejected();
  result.makespan_ns = ps_to_ns(driver.completion_time());
  result.mean_latency_ns = recorder.mean_latency_ps() / 1e3;
  result.p95_latency_ns = recorder.latency_percentile_ps(95.0) / 1e3;
  result.max_latency_ns = ps_to_ns(recorder.max_latency_ps());
  result.completed = driver.finished();
  if (!result.completed) {
    SPECNOC_LOG(kWarn) << "workload replay did not complete: "
                       << to_string(network->architecture()) << "/"
                       << trace.meta.generator << " delivered "
                       << result.messages_delivered << "/" << result.messages;
  }
  rig.harvest(net);
  return result;
}

}  // namespace specnoc::stats
