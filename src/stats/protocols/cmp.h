// CMP co-simulation (cmp/ subsystem): per-processor access streams driven
// closed-loop through caches + directory + DRAM on a fresh network. The
// figure of merit is application makespan — the end-to-end number the
// source paper's open-loop protocols cannot produce. RNG-free given the
// access trace; like WorkloadSpec, the trace travels as a hash
// (`access_hash`) and deserialized specs must be re-armed via
// make_cmp_spec before running.
#pragma once

#include "stats/protocol.h"
#include "workload/synth.h"

namespace specnoc::stats {

struct CmpProtocol;

struct CmpResult {
  using Protocol = CmpProtocol;
  std::uint64_t accesses = 0;   ///< stream accesses retired
  double makespan_ns = 0.0;     ///< last stream retirement
  std::uint64_t l1_hits = 0;
  std::uint64_t l1_misses = 0;
  std::uint64_t mshr_merges = 0;
  std::uint64_t inv_messages = 0;    ///< directory invalidation sends
  std::uint64_t inv_multicasts = 0;  ///< those reaching >= 2 endpoints
  std::uint64_t inv_targets = 0;     ///< summed invalidation fan-out
  std::uint64_t dram_reads = 0;
  std::uint64_t dram_writes = 0;
  std::uint64_t dram_conflicts = 0;
  std::uint64_t messages = 0;         ///< protocol messages on the network
  std::uint64_t flits_delivered = 0;
  double energy_nj = 0.0;  ///< switching energy over the whole run
  /// False if the scheduler drained with accesses still un-retired.
  bool completed = true;
};

struct CmpSpec {
  using Protocol = CmpProtocol;
  core::Architecture arch = core::Architecture::kBaseline;
  std::string workload;  ///< label ("LuBlocks", "BarnesRegions")
  std::shared_ptr<const workload::AccessTrace> access;
  std::string access_hash;  ///< workload::access_trace_hash(*access)
  NetworkFactory factory;
  std::string custom;
};

struct CmpProtocol {
  using Spec = CmpSpec;
  using Result = CmpResult;
  static constexpr const char* kind = "cmp";
  static constexpr auto fields = std::tuple{
      std::pair{"accesses", &Result::accesses},
      std::pair{"makespan_ns", &Result::makespan_ns},
      std::pair{"l1_hits", &Result::l1_hits},
      std::pair{"l1_misses", &Result::l1_misses},
      std::pair{"mshr_merges", &Result::mshr_merges},
      std::pair{"inv_messages", &Result::inv_messages},
      std::pair{"inv_multicasts", &Result::inv_multicasts},
      std::pair{"inv_targets", &Result::inv_targets},
      std::pair{"dram_reads", &Result::dram_reads},
      std::pair{"dram_writes", &Result::dram_writes},
      std::pair{"dram_conflicts", &Result::dram_conflicts},
      std::pair{"messages", &Result::messages},
      std::pair{"flits_delivered", &Result::flits_delivered},
      std::pair{"energy_nj", &Result::energy_nj},
      std::pair{"completed", &Result::completed}};

  /// Closed-loop (zero-lookahead feedback) by construction; a partitioned
  /// custom factory raises ConfigError.
  static bool sequential(const Spec&) { return true; }
  static std::string label(const Spec& spec) {
    return std::string(core::to_string(spec.arch)) + "/" + spec.workload;
  }
  /// Like the workload key, the access-trace hash is part of the identity.
  static std::string spec_key(const Spec& spec) {
    return with_custom("cmp|" + std::string(core::to_string(spec.arch)) +
                           "|" + spec.workload + "|access=" + spec.access_hash,
                       spec.custom);
  }
  static void write_spec(util::Json& json, const Spec& spec) {
    json.set("workload", spec.workload);
    json.set("access_hash", spec.access_hash);
    set_custom(json, spec.custom);
  }
  static void read_spec(const util::Json& json, Spec& spec) {
    spec.workload = json.at("workload").as_string();
    spec.access_hash = json.at("access_hash").as_string();
    spec.custom = custom_from_json(json);
  }
  /// Runs with the default cmp::CmpConfig cache/DRAM geometry. A spec
  /// whose access trace is null fails with a ConfigError message.
  static Result run(const Spec& spec, const RunContext& context);
};

using CmpOutcome = Outcome<CmpProtocol>;

/// Builds a CmpSpec with the access trace attached and its hash computed.
CmpSpec make_cmp_spec(core::Architecture arch, std::string label,
                      std::shared_ptr<const workload::AccessTrace> access);

/// Non-overloaded decoder, for callers that pass it as a function.
inline CmpResult cmp_result_from_json(const util::Json& json) {
  return result_from_json<CmpProtocol>(json);
}

}  // namespace specnoc::stats
