// Shared machinery for all fanout node designs.
//
// A fanout node has one input channel and two output channels. The base
// class implements the handshake protocol common to all five designs:
//
//   deliver(flit)  [subclass route(): dirs, energy label]
//     --fwd latency (throttle latency for kDirNone)-->  process(flit, route)
//   forward on each required output as it becomes free
//   once ALL required req-outs are issued  --ack delay-->  input ack
//
// Issuing the input ack only after every required output has fired models
// the C-element join of the speculative node (both outputs) and the
// multi-output case of the non-speculative node; a throttle disposes of the
// flit with no output activity. Output channels free up independently when
// the respective downstream node acks, so a flit can be copied into one
// output register while the other is still waiting — matching the
// normally-opaque / normally-transparent output port modules of the paper.
#pragma once

#include <bit>

#include "noc/channel.h"
#include "noc/node.h"
#include "noc/packet.h"
#include "nodes/characteristics.h"

namespace specnoc::nodes {

/// Direction bitset: bit 0 = top output (port 0), bit 1 = bottom output.
using Dirs = std::uint8_t;
inline constexpr Dirs kDirNone = 0b00;
inline constexpr Dirs kDirTop = 0b01;
inline constexpr Dirs kDirBottom = 0b10;
inline constexpr Dirs kDirBoth = 0b11;

/// A channel pre-allocation probe to record with a forward (the
/// performance-optimized non-speculative node's; none for the others).
enum class Prealloc : std::uint8_t { kNone, kMiss, kHit };

/// A design's decision for one flit, made once at delivery and carried
/// in the processing event's capture.
struct Route {
  Dirs dirs = kDirNone;  ///< kDirNone throttles the flit
  noc::NodeOp op = noc::NodeOp::kRouteForward;  ///< the forward's label
  Prealloc prealloc = Prealloc::kNone;
};

/// Two cache lines: the build-only node header, then the run-time state —
/// spans, the waiting flit and one flag byte (pinned in
/// tests/nodes/footprint_test.cpp).
class alignas(64) FanoutNodeBase : public noc::Node {
 public:
  /// `top_span` / `bottom_span`: destination ranges reachable through each
  /// output (from MotTopology::subtree_span); they define ground-truth
  /// routing, equivalent to decoding this node's source-routing field.
  /// Ranges (not masks) keep per-node storage at 16 bytes regardless of
  /// radix — a radix-4096 network has ~16.7M fanout nodes. The node keeps a
  /// pointer to `chars`, which must outlive it: builders pass the value
  /// intern_characteristics() returned for the node's kind.
  FanoutNodeBase(sim::Scheduler& scheduler, noc::SimHooks& hooks,
                 noc::NodeKind kind, const NodeCharacteristics& chars,
                 noc::DestRange top_span, noc::DestRange bottom_span);

  void deliver(const noc::Flit& flit, std::uint32_t in_port) final;
  void on_output_ack(std::uint32_t out_port) final;

  const NodeCharacteristics& characteristics() const { return *chars_; }

  /// Introspection (tests, deadlock diagnostics).
  bool input_busy() const { return (flags_ & kInputBusy) != 0; }
  /// Outputs the current flit still has to be sent on.
  int sends_remaining() const {
    return std::popcount(static_cast<unsigned>(flags_ & kWaitingAny));
  }
  bool output_port_free(std::uint32_t dir) const {
    return (flags_ & (kFree << dir)) != 0;
  }
  bool output_has_waiting(std::uint32_t dir) const {
    return (flags_ & (kWaiting << dir)) != 0;
  }

 protected:
  /// Subclass hook: the design's decision for `flit`, taken when it is
  /// delivered. It sets the processing latency (throttle_latency for
  /// kDirNone, the forward latency otherwise), and after that latency the
  /// base forwards the flit on `dirs`, or throttles it, and records the
  /// operation.
  virtual Route route(const noc::Flit& flit) const = 0;

  /// Ground-truth direction set for a packet at this node (kDirNone for a
  /// misrouted packet whose destinations lie in neither subtree).
  Dirs true_dirs(const noc::Packet& packet) const;

 private:
  // flags_: output `dir` is free (kFree << dir) and has a copy of the
  // current flit waiting for it (kWaiting << dir); the input is busy.
  static constexpr std::uint8_t kFree = 0b0'0001;
  static constexpr std::uint8_t kWaiting = 0b0'0100;
  static constexpr std::uint8_t kWaitingAny = 0b0'1100;
  static constexpr std::uint8_t kInputBusy = 0b1'0000;

  /// Carries out `route` for the flit, one processing latency after its
  /// delivery.
  void process(const noc::Flit& flit, const Route& route);

  /// Sends the flit on every direction in `dirs` (waiting for busy outputs),
  /// then acks the input. `op` labels the energy event.
  void forward(const noc::Flit& flit, Dirs dirs, noc::NodeOp op);

  /// Consumes a misrouted flit: energy-throttle event, then input ack.
  void throttle(const noc::Flit& flit);

  void try_send(std::uint32_t dir);
  void ack_input();

  /// Shared (intern_characteristics), not a 48-byte copy per node.
  const NodeCharacteristics* chars_;
  noc::DestRange top_span_;
  noc::DestRange bottom_span_;
  /// The flit every output with kWaiting << dir still has to send: one
  /// copy, as the next flit waits for the input ack.
  noc::Flit waiting_;
  std::uint8_t flags_ = kFree | (kFree << 1);
};

}  // namespace specnoc::nodes
