// Source network interface: injects packets flit-by-flit into the network.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <string>

#include "noc/node.h"
#include "noc/packet.h"

namespace specnoc::noc {

/// A source holds a FIFO of flits from enqueued packets and drives its single
/// output channel with 2-phase handshakes. Serial multicast (Baseline)
/// naturally serializes here: the k unicast copies queue behind each other.
class SourceNode : public Node {
 public:
  /// `issue_delay` models the network-interface driver latency between the
  /// output channel becoming free and the next req edge.
  SourceNode(sim::Scheduler& scheduler, SimHooks& hooks, std::uint32_t src_id,
             TimePs issue_delay);

  std::uint32_t src_id() const { return src_id_; }

  /// "src3".
  std::string name() const override;

  /// Appends all flits of `packet` to the injection queue.
  void enqueue_packet(const Packet& packet);

  /// Packets whose flits have not all left the source yet.
  std::size_t queued_packets() const { return queued_packets_; }

  /// Total flits ever enqueued (offered load accounting).
  std::uint64_t flits_enqueued() const { return flits_enqueued_; }

  /// Registers a callback invoked whenever the queue drops below
  /// `low_water` packets — used by backlogged (saturation) traffic drivers.
  void set_refill(std::size_t low_water, std::function<void()> callback);

  void deliver(const Flit& flit, std::uint32_t in_port) override;
  void on_output_ack(std::uint32_t out_port) override;

 private:
  void try_issue();
  void issue_front();
  /// Invokes the refill callback until the queue reaches the low-water mark
  /// (or the callback stops producing packets).
  void pump_refill();

  std::uint32_t src_id_;
  TimePs issue_delay_;
  std::deque<Flit> queue_;
  std::size_t queued_packets_ = 0;
  std::uint64_t flits_enqueued_ = 0;
  bool output_free_ = true;
  bool issue_scheduled_ = false;
  std::size_t low_water_ = 0;
  std::function<void()> refill_;
};

}  // namespace specnoc::noc
