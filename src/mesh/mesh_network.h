// MeshNetwork: a cols x rows 2D-mesh NoC with XY routing and
// dimension-ordered tree multicast — the comparison substrate for the
// paper's "alternative topologies (e.g. 2D-mesh)" future work.
#pragma once

#include <cstdint>
#include <vector>

#include "mesh/mesh_router.h"
#include "mesh/mesh_topology.h"
#include "noc/message_network.h"
#include "noc/partition.h"

namespace specnoc::mesh {

enum class MulticastMode : std::uint8_t {
  kTree,    ///< one packet, replicated along the XY multicast tree
  kSerial,  ///< one unicast packet per destination (baseline-style)
};

struct MeshConfig {
  std::uint32_t cols = 4;
  std::uint32_t rows = 4;
  std::uint32_t flits_per_packet = 5;
  MulticastMode multicast = MulticastMode::kTree;

  std::uint32_t router_buffer_flits = 2;
  TimePs sticky_timeout = 900;

  /// Bitmask of router ids built as speculative routers (local speculation
  /// carried to the mesh; see SpecMeshRouter). Two speculative routers must
  /// not be adjacent — redundant copies must meet a non-speculative filter
  /// one hop from where they are created — validated at build time.
  std::uint64_t speculative_routers = 0;

  /// Inter-router link: one mesh hop of a die comparable to the MoT's
  /// (1800 um across `cols` columns).
  LengthUm link_length_um = 450.0;
  double wire_delay_ps_per_um = 0.2;
  LengthUm interface_link_um = 100.0;

  TimePs source_issue_delay = 50;
  TimePs sink_consume_delay = 50;
  /// 0 = asynchronous routers; otherwise clocked (see core::NetworkConfig).
  TimePs clock_period = 0;

  /// PDES worker threads (1 = classic single-scheduler network, 0 = auto)
  /// and the row-band lane mapping; see core::NetworkConfig::sim_threads.
  unsigned sim_threads = 1;
  noc::PartitionStrategy partition = noc::PartitionStrategy::kAuto;
};

class MeshNetwork final : public noc::MessageNetwork {
 public:
  explicit MeshNetwork(MeshConfig config);

  noc::Network& net() override { return net_; }
  std::uint32_t endpoints() const override { return topology_.n(); }
  std::uint32_t flits_per_packet() const override {
    return config_.flits_per_packet;
  }
  noc::MessageId send_message(std::uint32_t src, noc::DestSet dests,
                              bool measured) override;

  sim::Scheduler& scheduler() { return net_.scheduler(); }
  const MeshTopology& topology() const { return topology_; }
  const MeshConfig& config() const { return config_; }

  MeshRouter& router(std::uint32_t id) { return *routers_.at(id); }
  bool speculative(std::uint32_t id) const {
    return id < 64 && ((config_.speculative_routers >> id) & 1u);
  }

  /// Sum of characterized switch areas.
  AreaUm2 total_node_area() const;

  /// Maximum-density legal speculative placement: routers with even x+y
  /// (a checkerboard), guaranteeing every neighbor is non-speculative.
  static std::uint64_t checkerboard_speculation(const MeshTopology& topology);
  /// A quarter-density legal placement: routers with even x and even y.
  static std::uint64_t sparse_speculation(const MeshTopology& topology);

 private:
  void build();

  MeshConfig config_;
  MeshTopology topology_;
  noc::Network net_;
  std::vector<MeshRouter*> routers_;
};

}  // namespace specnoc::mesh
