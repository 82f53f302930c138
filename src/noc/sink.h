// Destination network interface: consumes flits and reports ejection.
#pragma once

#include <cstdint>
#include <string>

#include "noc/node.h"
#include "noc/packet.h"

namespace specnoc::noc {

/// A sink always accepts; it acks its input after `consume_delay`, modeling
/// the destination network-interface latency. Every ejected flit is reported
/// to the traffic observer, which is how latency and throughput are measured.
class SinkNode : public Node {
 public:
  SinkNode(sim::Scheduler& scheduler, SimHooks& hooks, std::uint32_t dest_id,
           TimePs consume_delay);

  std::uint32_t dest_id() const { return dest_id_; }
  std::uint64_t flits_consumed() const { return flits_consumed_; }

  /// "dst5".
  std::string name() const override;

  void deliver(const Flit& flit, std::uint32_t in_port) override;
  void on_output_ack(std::uint32_t out_port) override;

 private:
  std::uint32_t dest_id_;
  TimePs consume_delay_;
  std::uint64_t flits_consumed_ = 0;
  bool busy_ = false;
};

}  // namespace specnoc::noc
