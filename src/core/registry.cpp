#include "core/registry.h"

#include <bit>
#include <string>
#include <utility>

#include "core/mot_network.h"
#include "mesh/mesh_network.h"
#include "mot/topology.h"
#include "util/error.h"

namespace specnoc::core {
namespace {

/// Which routers of a mesh speculate (a MeshConfig::speculative_routers
/// mask); nullptr for none.
using SpeculationMask = std::uint64_t (*)(const mesh::MeshTopology&);

/// A mesh registry entry: the squarest power-of-two grid with config.n
/// endpoints (cols >= rows), built with only the packet size, clocking and
/// kernel settings taken from `config`; every other MeshConfig field keeps
/// its default. Throws ConfigError naming `name` for a radix no grid (or,
/// speculative, no 64-bit router mask) fits.
NetworkBuilder mesh_entry(std::string name, mesh::MulticastMode multicast,
                          SpeculationMask speculation) {
  return [name = std::move(name), multicast,
          speculation](const NetworkConfig& config) {
    const std::uint32_t n = config.n;
    const std::uint32_t max_n =
        speculation != nullptr ? 64 : noc::kMaxEndpoints;
    if (n < 2 || n > max_n || !std::has_single_bit(n)) {
      throw ConfigError("architecture '" + name + "' needs a power-of-two "
                        "radix in [2, " + std::to_string(max_n) +
                        "], got " + std::to_string(n));
    }
    mesh::MeshConfig mesh;
    mesh.cols = 1u << (std::bit_width(n) / 2);  // 2^ceil(log2(n) / 2)
    mesh.rows = n / mesh.cols;
    mesh.flits_per_packet = config.flits_per_packet;
    mesh.multicast = multicast;
    mesh.clock_period = config.clock_period;
    mesh.sim_threads = config.sim_threads;
    mesh.partition = config.partition;
    if (speculation != nullptr) {
      mesh.speculative_routers =
          speculation(mesh::MeshTopology(mesh.cols, mesh.rows));
    }
    return std::make_unique<mesh::MeshNetwork>(mesh);
  };
}

}  // namespace

ArchitectureRegistry::ArchitectureRegistry() {
  for (const auto arch : all_architectures()) {
    add(
        to_string(arch),
        [arch](const NetworkConfig& config) {
          return std::make_unique<MotNetwork>(arch, config);
        },
        arch);
  }
  const struct {
    const char* name;
    mesh::MulticastMode multicast;
    SpeculationMask speculation;
  } meshes[] = {
      {"MeshXY", mesh::MulticastMode::kTree, nullptr},
      {"MeshXYSerial", mesh::MulticastMode::kSerial, nullptr},
      {"MeshSpecCheckerboard", mesh::MulticastMode::kTree,
       &mesh::MeshNetwork::checkerboard_speculation},
      {"MeshSpecSparse", mesh::MulticastMode::kTree,
       &mesh::MeshNetwork::sparse_speculation},
  };
  for (const auto& entry : meshes) {
    add(entry.name,
        mesh_entry(entry.name, entry.multicast, entry.speculation));
  }
}

ArchitectureRegistry& ArchitectureRegistry::global() {
  static ArchitectureRegistry registry;
  return registry;
}

void ArchitectureRegistry::add(const std::string& name, NetworkBuilder build,
                               Architecture reported) {
  if (name.empty()) throw ConfigError("architecture name must be non-empty");
  if (!build) {
    throw ConfigError("architecture '" + name + "' needs a builder");
  }
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto [it, inserted] =
      entries_.emplace(name, Entry{reported, std::move(build)});
  if (!inserted) {
    throw ConfigError("architecture '" + name +
                      "' is already registered; re-binding a name would "
                      "change the identity of serialized results");
  }
}

void ArchitectureRegistry::add_speculation_levels(
    const std::string& name, std::vector<std::uint32_t> levels) {
  add(name, [levels = std::move(levels)](const NetworkConfig& config) {
    const mot::MotTopology topology(config.n);
    return std::make_unique<MotNetwork>(
        config, SpeculationMap::from_levels(topology, levels));
  });
}

bool ArchitectureRegistry::contains(const std::string& name) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return entries_.find(name) != entries_.end();
}

std::vector<std::string> ArchitectureRegistry::names() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::string> out;
  out.reserve(entries_.size());
  for (const auto& [name, entry] : entries_) out.push_back(name);
  return out;  // std::map iterates in sorted order
}

ArchitectureRegistry::Entry ArchitectureRegistry::entry(
    const std::string& name) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = entries_.find(name);
  if (it == entries_.end()) {
    std::string known;
    for (const auto& [known_name, entry] : entries_) {
      if (!known.empty()) known += ", ";
      known += known_name;
    }
    throw ConfigError("unknown architecture '" + name +
                      "' (registered: " + known + ")");
  }
  return it->second;
}

std::unique_ptr<noc::MessageNetwork> ArchitectureRegistry::build(
    const std::string& name, const NetworkConfig& config) const {
  return entry(name).build(config);
}

Architecture ArchitectureRegistry::reported(const std::string& name) const {
  return entry(name).arch;
}

}  // namespace specnoc::core
