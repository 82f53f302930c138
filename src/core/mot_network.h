// MotNetwork: a fully built, runnable MoT NoC in one of the six
// architectures, plus its message-admission layer.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/architecture.h"
#include "core/config.h"
#include "core/speculation.h"
#include "mot/addressing.h"
#include "mot/layout.h"
#include "mot/topology.h"
#include "noc/message_network.h"
#include "noc/network.h"
#include "nodes/fanout_base.h"

namespace specnoc::core {

/// Builds and owns the simulated network. The public surface a user needs:
/// construct, send_message(), run the scheduler, observe via hooks.
class MotNetwork final : public noc::MessageNetwork {
 public:
  MotNetwork(Architecture arch, NetworkConfig config);

  /// Custom design point: an arbitrary (legal) speculation map with the
  /// optimized node designs — the wider hybrid design space the paper
  /// sketches for 16x16 networks (Figure 3(d)). Reported as kCustomHybrid.
  MotNetwork(NetworkConfig config, SpeculationMap speculation);

  noc::Network& net() override { return net_; }
  std::uint32_t endpoints() const override { return topology_.n(); }
  std::uint32_t flits_per_packet() const override {
    return config_.flits_per_packet;
  }
  sim::Scheduler& scheduler() { return net_.scheduler(); }
  const mot::MotTopology& topology() const { return topology_; }
  const SpeculationMap& speculation() const { return speculation_; }
  const mot::SourceRouteEncoder& encoder() const { return encoder_; }
  Architecture architecture() const { return arch_; }
  const NetworkConfig& config() const { return config_; }

  /// Sends a message from `src` to the destination set `dests` at the
  /// current simulation time. On the Baseline network a multicast message
  /// is expanded into one unicast packet per destination, queued
  /// back-to-back (serial multicast); every other architecture injects a
  /// single (multicast-capable) packet. Returns the message id.
  noc::MessageId send_message(std::uint32_t src, noc::DestSet dests,
                              bool measured) override;

  /// Header address bits for this architecture (Section 5.2(d)): the
  /// baseline's log2(n) single-bit scheme, or 2 bits per non-speculative
  /// node for the parallel-multicast schemes.
  std::uint32_t address_bits() const;

  /// Sum of the characterized areas of all switch nodes (fanout + fanin).
  AreaUm2 total_node_area() const;

 private:
  struct BuildPlan;

  void build();
  /// Builds source t, fanout tree t, sink t, fanin tree t, their
  /// tree-internal channels and the middle channels leaving fanout tree t
  /// (upstream ends only). `crossed` counts the cross channels placed so
  /// far in channels() order; trees must come in ascending order.
  void build_tree(const BuildPlan& plan, std::uint32_t t,
                  std::uint32_t& crossed);
  /// Attaches the middle channels that end at the leaves of fanin trees
  /// [first, last).
  void attach_middle_links(const BuildPlan& plan, std::uint32_t first,
                           std::uint32_t last);

  Architecture arch_;
  NetworkConfig config_;
  mot::MotTopology topology_;
  SpeculationMap speculation_;
  mot::SourceRouteEncoder encoder_;
  mot::HTreeLayout layout_;
  noc::Network net_;
};

}  // namespace specnoc::core
