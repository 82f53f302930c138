// Network latency (Fig. 6): open-loop exponential injection at an explicit
// rate; messages generated during the measurement window are tagged, and
// the run continues until all tagged messages have delivered every header
// ("up to the arrival of all headers"). The paper's operating point — 25%
// of *that network's* saturation — is operating_rate(own saturation, 0.25).
#pragma once

#include "stats/protocol.h"

namespace specnoc::stats {

struct LatencyProtocol;

struct LatencyResult {
  using Protocol = LatencyProtocol;
  double mean_latency_ns = 0.0;
  double p95_latency_ns = 0.0;
  double max_latency_ns = 0.0;
  std::uint64_t messages_measured = 0;
  double offered_flits_per_ns = 0.0;  ///< injected rate per source
  /// False if tagged messages were still pending at the drain cap (the
  /// network was saturated at the requested load).
  bool drained = true;
};

/// One open-loop latency run at an explicit injected rate. `seed` and
/// `custom` as in SaturationSpec.
struct LatencySpec {
  using Protocol = LatencyProtocol;
  core::Architecture arch = core::Architecture::kBaseline;
  traffic::BenchmarkId bench = traffic::BenchmarkId::kUniformRandom;
  double injected_flits_per_ns = 0.0;
  traffic::SimWindows windows;
  std::uint64_t seed = 0;
  std::string custom;
};

struct LatencyProtocol {
  using Spec = LatencySpec;
  using Result = LatencyResult;
  static constexpr const char* kind = "latency";
  static constexpr auto fields = std::tuple{
      std::pair{"mean_latency_ns", &Result::mean_latency_ns},
      std::pair{"p95_latency_ns", &Result::p95_latency_ns},
      std::pair{"max_latency_ns", &Result::max_latency_ns},
      std::pair{"messages_measured", &Result::messages_measured},
      std::pair{"offered_flits_per_ns", &Result::offered_flits_per_ns},
      std::pair{"drained", &Result::drained}};

  /// The drain loop steps event by event, which has no windowed
  /// equivalent; the runner builds every latency network sequential.
  static bool sequential(const Spec&) { return true; }
  static std::string spec_key(const Spec& spec) {
    return bench_key("lat", spec.arch, spec.bench, spec.seed, spec.custom) +
           "|rate=" + util::format_double(spec.injected_flits_per_ns) +
           "|w=" + std::to_string(spec.windows.warmup) + ":" +
           std::to_string(spec.windows.measure);
  }
  static void write_spec(util::Json& json, const Spec& spec) {
    write_bench_spec(json, spec);
    json.set("injected_flits_per_ns", spec.injected_flits_per_ns);
    json.set("windows", windows_to_json(spec.windows));
  }
  static void read_spec(const util::Json& json, Spec& spec) {
    read_bench_spec(json, spec);
    spec.injected_flits_per_ns = json.at("injected_flits_per_ns").as_double();
    spec.windows = windows_from_json(json.at("windows"));
  }
  static Result run(const Spec& spec, const RunContext& context);
};

using LatencyOutcome = Outcome<LatencyProtocol>;

}  // namespace specnoc::stats
