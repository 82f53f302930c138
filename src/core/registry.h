// ArchitectureRegistry: an open name -> network-builder map.
//
// The Architecture enum is closed: it names the six networks the paper
// evaluates (plus kCustomHybrid as an escape hatch), and every harness
// used to dispatch on it directly. The registry replaces that closed
// dispatch with a process-wide table of noc::MessageNetwork builders, so
// new design points and other topologies (the 2D-mesh variants are seeded
// next to the six canonical MoTs) plug into every harness and sharded
// sweep for free:
//
//  * Harnesses register design points under stable labels (e.g. the
//    speculation-level set "{0,2}") and put only the label in their
//    specs' `custom` field; ExperimentRunner builds every labelled spec's
//    network from the registry.
//  * Shard files serialize that label like any other spec field, so a
//    phase-2 worker or a --from render process reconstructs exactly the
//    same networks as long as it registered the same labels — which it
//    does, because registration happens in the harness main() before any
//    grid runs.
//
// Entries are builders, not bound factories: they take the caller's
// NetworkConfig, so one entry serves every radix/thread-count the
// harness sweeps.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/architecture.h"
#include "core/config.h"
#include "noc/message_network.h"

namespace specnoc::core {

/// Builds a fresh network for one run under the caller's config. Every
/// measurement constructs its own network, so builders must be safe to
/// invoke repeatedly and from worker threads.
using NetworkBuilder = std::function<std::unique_ptr<noc::MessageNetwork>(
    const NetworkConfig&)>;

class ArchitectureRegistry {
 public:
  struct Entry {
    /// The architecture reported in serialized spec identity. Canonical
    /// names report themselves; registered design points report
    /// kCustomHybrid (their real identity is the registered name).
    Architecture arch = Architecture::kCustomHybrid;
    NetworkBuilder build;
  };

  /// A fresh registry seeded with the six canonical architectures under
  /// their to_string() names, plus the 2D-mesh variants: "MeshXY" (XY
  /// tree multicast), "MeshXYSerial" (one unicast per destination),
  /// "MeshSpecCheckerboard" and "MeshSpecSparse" (speculative routers at
  /// even x+y, or at even x and even y). A mesh entry derives its shape
  /// from config.n — the squarest power-of-two grid, cols >= rows (4x2 at
  /// 8, 4x4 at 16, 8x8 at 64) — and takes only flits_per_packet,
  /// clock_period, sim_threads and partition from the config.
  ArchitectureRegistry();

  /// The process-wide instance every ExperimentRunner consults.
  static ArchitectureRegistry& global();

  /// Registers a named builder. Throws ConfigError on an empty name or a
  /// name that is already registered (re-binding a label would silently
  /// change the identity of previously serialized results).
  void add(const std::string& name, NetworkBuilder build,
           Architecture reported = Architecture::kCustomHybrid);

  /// Registers the common kind of design point: optimized nodes with
  /// speculation at exactly `levels` (SpeculationMap::from_levels). The
  /// map is derived per build, so the entry works at any radix whose
  /// trees have those levels.
  void add_speculation_levels(const std::string& name,
                              std::vector<std::uint32_t> levels);

  bool contains(const std::string& name) const;

  /// Registered names, sorted (deterministic listing for --list-arch).
  std::vector<std::string> names() const;

  /// Looks up `name` and builds a network. Throws ConfigError for
  /// unknown names, listing what is registered.
  std::unique_ptr<noc::MessageNetwork> build(
      const std::string& name, const NetworkConfig& config) const;

  /// The architecture `name` reports in spec identity.
  Architecture reported(const std::string& name) const;

 private:
  Entry entry(const std::string& name) const;

  mutable std::mutex mutex_;
  std::map<std::string, Entry> entries_;
};

}  // namespace specnoc::core
