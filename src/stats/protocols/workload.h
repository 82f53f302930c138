// Trace replay (workload/ subsystem): a recorded or synthesized message
// trace replayed on a fresh network, timed or closed-loop. Replay is
// RNG-free, so unlike the open-loop specs there is no seed: the run is
// fully determined by (network, trace, mode). The trace itself cannot
// travel through shard files — `trace_hash` is its serialized identity
// instead (part of spec_key, so sharded sweeps refuse to mix outcomes of
// different traces), and `workload` is the human-readable label rendered
// in tables. Deserialized specs come back with a null trace; a process
// that wants to *run* (rather than merge/render) them must re-attach it
// with make_workload_spec.
#pragma once

#include "stats/protocol.h"
#include "workload/replay.h"
#include "workload/trace.h"

namespace specnoc::stats {

struct WorkloadProtocol;

struct WorkloadResult {
  using Protocol = WorkloadProtocol;
  std::uint64_t messages = 0;           ///< trace records
  std::uint64_t messages_delivered = 0;
  std::uint64_t flits_delivered = 0;
  /// Time of the last header delivery — the workload's completion time
  /// under this network (the figure of merit for closed-loop replay).
  double makespan_ns = 0.0;
  double mean_latency_ns = 0.0;
  double p95_latency_ns = 0.0;
  double max_latency_ns = 0.0;
  /// False if the scheduler drained with messages still undelivered.
  bool completed = true;
};

struct WorkloadSpec {
  using Protocol = WorkloadProtocol;
  core::Architecture arch = core::Architecture::kBaseline;
  std::string workload;  ///< label ("DnnLayers", "Coherence", a trace stem)
  workload::ReplayMode mode = workload::ReplayMode::kClosedLoop;
  std::shared_ptr<const workload::Trace> trace;
  std::string trace_hash;  ///< workload::trace_hash(*trace)
  NetworkFactory factory;
  std::string custom;
};

struct WorkloadProtocol {
  using Spec = WorkloadSpec;
  using Result = WorkloadResult;
  static constexpr const char* kind = "workload";
  static constexpr auto fields = std::tuple{
      std::pair{"messages", &Result::messages},
      std::pair{"messages_delivered", &Result::messages_delivered},
      std::pair{"flits_delivered", &Result::flits_delivered},
      std::pair{"makespan_ns", &Result::makespan_ns},
      std::pair{"mean_latency_ns", &Result::mean_latency_ns},
      std::pair{"p95_latency_ns", &Result::p95_latency_ns},
      std::pair{"max_latency_ns", &Result::max_latency_ns},
      std::pair{"completed", &Result::completed}};

  /// Timed replay may run partitioned; closed-loop replay is zero-lookahead
  /// feedback, so it requires a sequential network (the driver throws
  /// otherwise).
  static bool sequential(const Spec& spec) {
    return spec.mode == workload::ReplayMode::kClosedLoop;
  }
  static std::string label(const Spec& spec) {
    return std::string(core::to_string(spec.arch)) + "/" + spec.workload +
           "/" + workload::to_string(spec.mode);
  }
  /// The trace hash is part of the identity: shards replayed from different
  /// trace bytes hash to different grids, so the merge refuses to mix them.
  static std::string spec_key(const Spec& spec) {
    return with_custom("wl|" + std::string(core::to_string(spec.arch)) + "|" +
                           spec.workload + "|" +
                           workload::to_string(spec.mode) +
                           "|trace=" + spec.trace_hash,
                       spec.custom);
  }
  static void write_spec(util::Json& json, const Spec& spec) {
    json.set("workload", spec.workload);
    json.set("mode", workload::to_string(spec.mode));
    json.set("trace_hash", spec.trace_hash);
    set_custom(json, spec.custom);
  }
  static void read_spec(const util::Json& json, Spec& spec) {
    spec.workload = json.at("workload").as_string();
    spec.mode = workload::replay_mode_from_string(json.at("mode").as_string());
    spec.trace_hash = json.at("trace_hash").as_string();
    spec.custom = custom_from_json(json);
  }
  /// A spec whose trace is null fails with a ConfigError message.
  static Result run(const Spec& spec, const RunContext& context);
};

using WorkloadOutcome = Outcome<WorkloadProtocol>;

/// Builds a WorkloadSpec with the trace attached and its hash computed.
WorkloadSpec make_workload_spec(core::Architecture arch, std::string label,
                                workload::ReplayMode mode,
                                std::shared_ptr<const workload::Trace> trace);

}  // namespace specnoc::stats
