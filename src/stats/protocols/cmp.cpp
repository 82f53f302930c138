#include "stats/protocols/cmp.h"

#include "cmp/access_source.h"
#include "cmp/system.h"
#include "power/power_meter.h"
#include "stats/recorder.h"
#include "util/contract.h"
#include "util/error.h"
#include "util/log.h"

namespace specnoc::stats {

CmpSpec make_cmp_spec(core::Architecture arch, std::string label,
                      std::shared_ptr<const workload::AccessTrace> access) {
  SPECNOC_EXPECTS(access != nullptr);
  CmpSpec spec;
  spec.arch = arch;
  spec.workload = std::move(label);
  spec.access_hash = workload::access_trace_hash(*access);
  spec.access = std::move(access);
  return spec;
}

CmpResult CmpProtocol::run(const Spec& spec, const RunContext& context) {
  if (spec.access == nullptr) {
    throw ConfigError("cmp spec '" + spec.workload +
                      "' has no access trace attached (deserialized specs "
                      "must be re-armed with make_cmp_spec before running)");
  }
  const workload::AccessTrace& access = *spec.access;
  const cmp::CmpConfig cmp{};
  ProbeRig& rig = context.rig;
  auto& net = context.network.net();
  TrafficRecorder recorder(net.packets());
  cmp::AccessTraceSource source(access, cmp.line_bytes);
  cmp::CmpSystem system(context.network, source, cmp);
  system.set_downstream(&recorder);
  power::PowerMeter meter(context.energy);
  net.hooks().traffic = &system;
  net.hooks().energy = &meter;
  rig.attach(net);

  recorder.open_window(net.now());
  meter.open_window(net.now());
  system.start();  // rejects partitioned networks (zero-lookahead feedback)
  // The access streams are finite, so the event queue drains once every
  // processor has retired its last access (or deadlocked, caught below).
  rig.guard([&] { net.run(); });
  recorder.close_window(net.now());
  meter.close_window(net.now());

  const cmp::CmpCounters counters = system.counters();
  CmpResult result;
  result.accesses = system.retired();
  result.makespan_ns = ps_to_ns(system.makespan());
  result.l1_hits = counters.l1_hits;
  result.l1_misses = counters.l1_misses;
  result.mshr_merges = counters.mshr_merges;
  result.inv_messages = counters.inv_messages;
  result.inv_multicasts = counters.inv_multicasts;
  result.inv_targets = counters.inv_targets;
  result.dram_reads = counters.dram_reads;
  result.dram_writes = counters.dram_writes;
  result.dram_conflicts = counters.dram_conflicts;
  result.messages = counters.messages_sent;
  result.flits_delivered = recorder.window_flits_ejected();
  result.energy_nj = meter.window_energy() / 1e6;
  result.completed = system.finished();
  if (!result.completed) {
    SPECNOC_LOG(kWarn) << "cmp co-simulation did not complete: "
                       << network_name(spec) << "/"
                       << access.generator << " retired " << system.retired()
                       << "/" << source.total_accesses();
  }
  CmpMetrics cmp_metrics;
  cmp_metrics.accesses = counters.accesses;
  cmp_metrics.l1_hits = counters.l1_hits;
  cmp_metrics.l1_misses = counters.l1_misses;
  cmp_metrics.mshr_merges = counters.mshr_merges;
  cmp_metrics.inv_messages = counters.inv_messages;
  cmp_metrics.inv_multicasts = counters.inv_multicasts;
  cmp_metrics.inv_targets = counters.inv_targets;
  cmp_metrics.writebacks = counters.writebacks;
  cmp_metrics.dram_reads = counters.dram_reads;
  cmp_metrics.dram_writes = counters.dram_writes;
  cmp_metrics.dram_conflicts = counters.dram_conflicts;
  cmp_metrics.barriers = counters.barriers;
  cmp_metrics.lock_acquires = counters.lock_acquires;
  cmp_metrics.lock_contended = counters.lock_contended;
  rig.record_cmp(cmp_metrics);
  rig.harvest(net);
  return result;
}

}  // namespace specnoc::stats
