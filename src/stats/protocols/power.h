// Power (Table 1): open-loop injection at an explicit rate; power =
// switching energy over the measurement window / window duration. The
// paper's operating point — 25% of the *Baseline's* saturation for every
// architecture, the normalized energy-per-packet comparison — is
// operating_rate(Baseline saturation, 0.25).
#pragma once

#include "stats/protocol.h"

namespace specnoc::stats {

struct PowerProtocol;

struct PowerResult {
  using Protocol = PowerProtocol;
  double power_mw = 0.0;
  double node_power_mw = 0.0;
  double wire_power_mw = 0.0;
  double delivered_flits_per_ns = 0.0;
  double offered_flits_per_ns = 0.0;
  std::uint64_t throttled_flits = 0;
  std::uint64_t broadcast_ops = 0;
};

/// One open-loop power run at an explicit injected rate. `seed` and
/// `custom` as in SaturationSpec.
struct PowerSpec {
  using Protocol = PowerProtocol;
  core::Architecture arch = core::Architecture::kBaseline;
  traffic::BenchmarkId bench = traffic::BenchmarkId::kUniformRandom;
  double injected_flits_per_ns = 0.0;
  traffic::SimWindows windows;
  std::uint64_t seed = 0;
  std::string custom;
};

struct PowerProtocol {
  using Spec = PowerSpec;
  using Result = PowerResult;
  static constexpr const char* kind = "power";
  static constexpr auto fields = std::tuple{
      std::pair{"power_mw", &Result::power_mw},
      std::pair{"node_power_mw", &Result::node_power_mw},
      std::pair{"wire_power_mw", &Result::wire_power_mw},
      std::pair{"delivered_flits_per_ns", &Result::delivered_flits_per_ns},
      std::pair{"offered_flits_per_ns", &Result::offered_flits_per_ns},
      std::pair{"throttled_flits", &Result::throttled_flits},
      std::pair{"broadcast_ops", &Result::broadcast_ops}};

  /// Energy accumulation is event-order-dependent; the runner builds every
  /// power network sequential.
  static bool sequential(const Spec&) { return true; }
  static std::string spec_key(const Spec& spec) {
    return bench_key("pow", spec.arch, spec.bench, spec.seed, spec.custom) +
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

using PowerOutcome = Outcome<PowerProtocol>;

}  // namespace specnoc::stats
