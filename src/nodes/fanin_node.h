// Fanin (arbitration) node: two input channels, one output channel.
//
// Reused unmodified across all six networks (the paper changes only fanout
// nodes). Arbitration is per flit but *packet-sticky*: once a header is
// granted, grants stay with that input until its tail passes, holding the
// output even through the winner's inter-flit gaps — wormhole behaviour,
// with the loser stalled for the winner's whole packet.
//
// The one departure from a strict wormhole lock is that the hold is
// *bounded*: if the open packet's next flit has not arrived within a
// watchdog timeout (config: fanin sticky timeout, default well above any
// normal inter-flit gap), the arbiter releases the output and serves the
// other input. This is a deadlock-recovery mechanism in the DISHA
// tradition, and it is necessary: with tree-replicated multicast, a
// packet's branches progress in lockstep through the fanout forks
// (C-element), so unbounded per-packet fanin locks couple *different*
// fanin trees, and two multicasts locking overlapping destination sets in
// opposite orders deadlock permanently — we reproduced exactly this with
// a strict-lock arbiter under sustained Multicast_static load, including
// with packet-sized VCT input buffers (see
// tests/integration/deadlock_test.cpp and DESIGN.md "Multicast deadlock
// freedom"). With the bounded hold every arbiter wait is finite, so the
// starvation cycles resolve; the rare post-timeout interleavings are
// disambiguated by a small source tag on each flit (log2 N bits), in the
// spirit of the baseline MoT NoC's self-contained single-word transfers
// (Horak et al., TCAD'11).
//
// Each input has a small asynchronous FIFO (default 2 flits) decoupling the
// input handshake from the arbiter grant.
#pragma once

#include <cstdint>
#include <string>

#include "util/ring.h"
#include "noc/channel.h"
#include "noc/node.h"
#include "noc/packet.h"
#include "nodes/characteristics.h"

namespace specnoc::nodes {

/// Three cache lines: the build-only node header, then the spec pointer,
/// the two input FIFOs and the arrival counter, with the flag byte and the
/// open input in the FIFOs' tail padding (pinned in
/// tests/nodes/footprint_test.cpp).
class alignas(64) FaninNode final : public noc::Node {
 public:
  /// Keeps a pointer to `spec`, which must outlive the node (builders pass
  /// the interned value; see util::intern). `input_buffer_flits` is
  /// each input FIFO's depth, at most util::kMaxRingCapacity.
  FaninNode(sim::Scheduler& scheduler, noc::SimHooks& hooks,
            const FaninSpec& spec, std::uint32_t input_buffer_flits = 2);

  void deliver(const noc::Flit& flit, std::uint32_t in_port) override;
  void on_output_ack(std::uint32_t out_port) override;

  const NodeCharacteristics& characteristics() const { return spec_->chars; }

  /// The output is labelled "up" in channel names ("fi5.l2i1>up").
  std::string output_port_name(std::uint32_t port) const override;

  /// Introspection (tests, diagnostics).
  bool output_port_free() const { return (flags_ & kOutputFree) != 0; }
  std::size_t buffered(std::uint32_t port) const {
    return fifo(port).size();
  }
  /// Input whose packet is currently streaming (-1 if none).
  int open_packet_input() const { return open_packet_input_; }

 private:
  struct BufferedFlit {
    noc::Flit flit;
    std::uint64_t seq;  ///< FCFS grant order
  };
  using Fifo = util::BoundedRing<BufferedFlit, 2>;

  // flags_: per input port p, a delivery is in the entry stage
  // (kChannelBusy << p) and the FIFO was full, so the channel ack is
  // postponed (kAckDeferred << p); the output is free, the arbiter has
  // recovered, a watchdog event is pending, and a grant was made since it
  // was armed. kWatchdogArmed admits one pending watchdog per node, so
  // kGrantedSinceArm tells that watchdog whether its hold is stale.
  static constexpr std::uint8_t kChannelBusy = 0b0000'0001;
  static constexpr std::uint8_t kAckDeferred = 0b0000'0100;
  static constexpr std::uint8_t kOutputFree = 0b0001'0000;
  static constexpr std::uint8_t kArbiterReady = 0b0010'0000;
  static constexpr std::uint8_t kWatchdogArmed = 0b0100'0000;
  static constexpr std::uint8_t kGrantedSinceArm = 0b1000'0000;

  Fifo& fifo(std::uint32_t port) { return port == 0 ? fifo0_ : fifo1_; }
  const Fifo& fifo(std::uint32_t port) const {
    return port == 0 ? fifo0_ : fifo1_;
  }

  void enqueue(const noc::Flit& flit, std::uint32_t port);
  void ack_input(std::uint32_t port);
  void try_grant();
  void forward_head(std::uint32_t port);

  const FaninSpec* spec_;  ///< interned, shared across nodes
  /// Input FIFOs; each one's capacity is the configured buffer depth
  /// (default 2: inline, no per-node heap). Two members rather than an
  /// array, so the byte after each holds a field.
  [[no_unique_address]] Fifo fifo0_;
  std::uint8_t flags_ = kOutputFree | kArbiterReady;
  [[no_unique_address]] Fifo fifo1_;
  std::int8_t open_packet_input_ = -1;  ///< sticky hold until tail passes
  std::uint64_t arrival_seq_ = 0;
};

}  // namespace specnoc::nodes
