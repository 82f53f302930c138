// The measurement-protocol abstraction behind ExperimentRunner.
//
// A protocol is one way of turning a network into numbers: saturation
// throughput, open-loop latency, power, trace replay, CMP co-simulation
// (one file pair each under stats/protocols/). The Protocol concept below
// lists what it provides. Everything else — Outcome<P>,
// ExperimentRunner::run_grid<P>, the outcome codec and ShardedSweep::grid<P>
// — is generic, so a new protocol is one file pair plus its tests.
#pragma once

#include <concepts>
#include <cstdint>
#include <cstdio>
#include <optional>
#include <string>
#include <tuple>
#include <utility>

#include "core/architecture.h"
#include "noc/message_network.h"
#include "power/energy_model.h"
#include "sim/parallel_runner.h"
#include "stats/metrics.h"
#include "traffic/benchmark.h"
#include "util/json.h"

namespace specnoc::stats {

/// Per-run measurement rig: always records the run's kernel events; when
/// collecting, also wires a MetricsRegistry and (when sampling) the telemetry sampler into the
/// network and snapshots them after the run. Construction snapshots the
/// process-wide DestSet spill counters so harvest() can attribute the delta
/// to this run.
class ProbeRig {
 public:
  /// Sampling is active only when collecting (the sampled series is
  /// delivered inside the snapshot).
  explicit ProbeRig(bool collect, TelemetryOptions telemetry);

  /// Installs the observer; call after the network is built, before it
  /// runs. Leaves hooks untouched when nothing is collected.
  void attach(noc::Network& net);
  /// Harvests every probe after the run completed.
  void harvest(noc::Network& net);
  /// Attaches cmp co-simulation counters to the snapshot-to-be; call
  /// before harvest(). No-op when nothing is collected.
  void record_cmp(const CmpMetrics& cmp);
  /// Runs `body`; if it throws, dumps the telemetry flight recorder first,
  /// so the failure's lead-up is visible in the harness stderr.
  template <typename Body>
  void guard(Body&& body) {
    try {
      body();
    } catch (...) {
      if (sampler_) sampler_->dump_flight_recorder(stderr);
      throw;
    }
  }

  std::uint64_t events() const { return events_; }
  /// The harvested metrics; call only when collecting.
  MetricsSnapshot snapshot() const { return registry_.snapshot(); }

 private:
  bool sampling() const { return collect_ && telemetry_.enabled(); }

  bool collect_;
  TelemetryOptions telemetry_;
  std::uint64_t spills_at_start_;
  std::uint64_t spill_bytes_at_start_;
  MetricsRegistry registry_;
  std::optional<TelemetrySampler> sampler_;
  std::uint64_t events_ = 0;
};

/// What the runner hands a protocol's worker besides the spec. The worker
/// measures whatever network it is handed: ExperimentRunner::run_grid
/// builds a fresh one per run from the spec's registry entry, a MoT or a
/// 2D mesh alike, and the worker reads only its endpoints() and net().
struct RunContext {
  noc::MessageNetwork& network;  ///< fresh, unrun; the worker attaches hooks
  std::uint64_t seed = 0;        ///< the runner's seed
  power::EnergyModelParams energy;
  ProbeRig& rig;

  /// A spec seed of 0 means "the runner's seed".
  std::uint64_t seed_or(std::uint64_t spec_seed) const {
    return spec_seed == 0 ? seed : spec_seed;
  }
};

template <typename P>
concept Protocol = requires(const typename P::Spec& spec,
                            typename P::Spec& out, util::Json& json,
                            const RunContext& context) {
  // One grid cell and what it measures; both name their protocol.
  requires std::same_as<typename P::Spec::Protocol, P>;
  requires std::same_as<typename P::Result::Protocol, P>;
  // The "kind" literal in spec JSON and shard-file grids.
  { P::kind } -> std::convertible_to<std::string>;
  // Ordered (json key, Result member) pairs: the result codec.
  P::fields;
  // True when the run needs a sim_threads = 1 network.
  { P::sequential(spec) } -> std::same_as<bool>;
  { P::label(spec) } -> std::same_as<std::string>;  // harness row label
  { P::spec_key(spec) } -> std::same_as<std::string>;
  // The spec's JSON fields after "kind" and "arch", in wire order.
  P::write_spec(json, spec);
  P::read_spec(std::as_const(json), out);
  { P::run(spec, context) } -> std::same_as<typename P::Result>;
  // The spec names its network (see ExperimentRunner::build_network).
  { spec.arch } -> std::convertible_to<core::Architecture>;
  { spec.custom } -> std::convertible_to<std::string>;
};

/// One run of protocol P in a batch: its spec, result and run status.
template <typename P>
struct Outcome {
  typename P::Spec spec;
  typename P::Result result;  ///< valid only when run.ok
  sim::RunOutcome run;
  /// Present when the grid ran with BatchOptions::collect_metrics.
  std::optional<MetricsSnapshot> metrics;
};

// --- codecs ----------------------------------------------------------------
//
// Specs and results encode through their protocol, so these free functions
// serve every protocol. Integers stay integers and doubles are written in
// their shortest exact form (util::json_write), so round trips are exact.

template <typename S>
concept ProtocolSpec = std::same_as<typename S::Protocol::Spec, S>;
template <typename R>
concept ProtocolResult = std::same_as<typename R::Protocol::Result, R>;

// Field lists — ordered (json key, member pointer) pairs — drive a
// struct's codec in both directions, so a key can never be written under
// one name and read under another.
void read_field(const util::Json& json, double& out);
void read_field(const util::Json& json, std::uint64_t& out);
void read_field(const util::Json& json, bool& out);
void read_field(const util::Json& json, std::string& out);

template <typename T, typename Fields>
void write_fields(util::Json& json, const T& value, const Fields& fields) {
  std::apply(
      [&](const auto&... field) {
        (json.set(field.first, value.*field.second), ...);
      },
      fields);
}

template <typename T, typename Fields>
void read_fields(const util::Json& json, T& value, const Fields& fields) {
  std::apply(
      [&](const auto&... field) {
        (read_field(json.at(field.first), value.*field.second), ...);
      },
      fields);
}

template <ProtocolResult R>
util::Json to_json(const R& result) {
  util::Json json = util::Json::object();
  write_fields(json, result, R::Protocol::fields);
  return json;
}

template <typename P>
typename P::Result result_from_json(const util::Json& json) {
  typename P::Result result;
  read_fields(json, result, P::fields);
  return result;
}

/// A spec's identity: its declarative fields. An attached trace (workload
/// and cmp specs) travels as its hash only; those deserialized specs must
/// be re-armed with their trace before running.
template <ProtocolSpec S>
util::Json to_json(const S& spec) {
  util::Json json = util::Json::object();
  json.set("kind", S::Protocol::kind);
  json.set("arch", core::to_string(spec.arch));
  S::Protocol::write_spec(json, spec);
  return json;
}

/// Throws ConfigError unless json's "kind" is `kind`.
void expect_kind(const util::Json& json, const char* kind);
core::Architecture arch_from_json(const util::Json& json);

template <typename P>
typename P::Spec spec_from_json(const util::Json& json) {
  expect_kind(json, P::kind);
  typename P::Spec spec;
  spec.arch = arch_from_json(json);
  P::read_spec(json, spec);
  return spec;
}

/// Canonical one-line identity of a spec, unique within a grid. Two specs
/// with equal keys must describe the same run.
template <ProtocolSpec S>
std::string spec_key(const S& spec) {
  return S::Protocol::spec_key(spec);
}

// Helpers the protocols' spec codecs share.
void set_custom(util::Json& json, const std::string& custom);
std::string custom_from_json(const util::Json& json);
/// `key` plus "|<custom>" for non-canonical networks.
std::string with_custom(std::string key, const std::string& custom);
util::Json windows_to_json(const traffic::SimWindows& windows);
traffic::SimWindows windows_from_json(const util::Json& json);
/// "<tag>|<arch>|<bench>|seed=<seed>[|<custom>]": the key head of the
/// benchmark-driven protocols (saturation, latency, power).
std::string bench_key(const char* tag, core::Architecture arch,
                      traffic::BenchmarkId bench, std::uint64_t seed,
                      const std::string& custom);

/// The network a spec runs on, as row labels and warnings name it: the
/// registry name in `custom` when set, else the architecture.
template <typename Spec>
std::string network_name(const Spec& spec) {
  return spec.custom.empty() ? std::string(core::to_string(spec.arch))
                             : spec.custom;
}

/// "<network>/<bench>": the benchmark-driven protocols' row label.
template <typename Spec>
std::string bench_label(const Spec& spec) {
  return network_name(spec) + "/" + traffic::to_string(spec.bench);
}

/// The spec fields the benchmark-driven protocols share, in wire order.
template <typename Spec>
void write_bench_spec(util::Json& json, const Spec& spec) {
  json.set("bench", traffic::to_string(spec.bench));
  json.set("seed", spec.seed);
  set_custom(json, spec.custom);
}

template <typename Spec>
void read_bench_spec(const util::Json& json, Spec& spec) {
  spec.bench = traffic::benchmark_from_string(json.at("bench").as_string());
  spec.seed = json.at("seed").as_u64();
  spec.custom = custom_from_json(json);
}

}  // namespace specnoc::stats
