// Saturation throughput (Table 1): backlogged sources; delivered
// flits/ns/source over a measurement window after warmup. Multicast
// deliveries count once per ejected copy, matching Table 1's higher
// multicast numbers.
#pragma once

#include "stats/protocol.h"

namespace specnoc::stats {

struct SaturationProtocol;

struct SaturationResult {
  using Protocol = SaturationProtocol;
  double delivered_flits_per_ns = 0.0;  ///< per source — the GF/s figure
  double injected_flits_per_ns = 0.0;   ///< per source
  /// delivered / injected (>1 for multicast traffic).
  double delivery_factor = 1.0;
  /// Injected packets per generated message (>1 only on the serializing
  /// Baseline, where a k-destination message becomes k unicast packets).
  double message_expansion = 1.0;
};

/// One cell of a saturation grid. `factory` (when set) overrides the
/// architecture's canonical network — used for custom design points;
/// `seed` = 0 means the runner's own seed. `custom` is a stable label for
/// the factory's network (e.g. "{0,2}" for a speculation-map design
/// point): it is part of the cell's serialized identity (spec_key), so
/// sharded sweeps require it to uniquely name any non-canonical factory.
/// Leave it empty for canonical architectures.
struct SaturationSpec {
  using Protocol = SaturationProtocol;
  core::Architecture arch = core::Architecture::kBaseline;
  traffic::BenchmarkId bench = traffic::BenchmarkId::kUniformRandom;
  std::uint64_t seed = 0;
  NetworkFactory factory;
  std::string custom;
};

struct SaturationProtocol {
  using Spec = SaturationSpec;
  using Result = SaturationResult;
  static constexpr const char* kind = "saturation";
  static constexpr auto fields = std::tuple{
      std::pair{"delivered_flits_per_ns", &Result::delivered_flits_per_ns},
      std::pair{"injected_flits_per_ns", &Result::injected_flits_per_ns},
      std::pair{"delivery_factor", &Result::delivery_factor},
      std::pair{"message_expansion", &Result::message_expansion}};

  /// Time-bounded driving runs partitioned networks too (DESIGN.md §9).
  static bool sequential(const Spec&) { return false; }
  static std::string label(const Spec& spec) {
    return bench_label(spec.arch, spec.bench);
  }
  static std::string spec_key(const Spec& spec) {
    return bench_key("sat", spec.arch, spec.bench, spec.seed, spec.custom);
  }
  static constexpr auto write_spec = write_bench_spec<Spec>;
  static constexpr auto read_spec = read_bench_spec<Spec>;
  static Result run(const Spec& spec, const RunContext& context);
};

using SaturationOutcome = Outcome<SaturationProtocol>;

/// Non-overloaded decoder, for callers that pass it as a function.
inline SaturationResult saturation_result_from_json(const util::Json& json) {
  return result_from_json<SaturationProtocol>(json);
}

}  // namespace specnoc::stats
