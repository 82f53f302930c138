#include "nodes/fanin_node.h"

namespace specnoc::nodes {

FaninNode::FaninNode(sim::Scheduler& scheduler, noc::SimHooks& hooks,
                     const FaninSpec& spec, std::uint32_t input_buffer_flits)
    : Node(scheduler, hooks, noc::NodeKind::kFanin, 2, 1), spec_(&spec) {
  SPECNOC_EXPECTS(input_buffer_flits >= 1);
  SPECNOC_EXPECTS(spec.sticky_timeout > 0);
  fifo0_.reserve(input_buffer_flits);
  fifo1_.reserve(input_buffer_flits);
}

std::string FaninNode::output_port_name(std::uint32_t) const { return "up"; }

void FaninNode::deliver(const noc::Flit& flit, std::uint32_t in_port) {
  SPECNOC_EXPECTS(in_port < 2);
  const auto busy = static_cast<std::uint8_t>(kChannelBusy << in_port);
  SPECNOC_ASSERT((flags_ & busy) == 0);
  flags_ |= busy;
  // Entry stage: input latch + FIFO write take the forward latency.
  const NodeCharacteristics& chars = spec_->chars;
  sched().schedule(disciplined_delay(chars.fwd_header, chars.clock_period,
                                     sched().now()),
                   [this, flit, in_port] { enqueue(flit, in_port); });
}

void FaninNode::enqueue(const noc::Flit& flit, std::uint32_t port) {
  Fifo& queue = fifo(port);
  SPECNOC_ASSERT((flags_ & (kChannelBusy << port)) != 0);
  SPECNOC_ASSERT(queue.size() < queue.capacity());
  queue.push_back({flit, arrival_seq_++});
  if (queue.size() < queue.capacity()) {
    ack_input(port);
  } else {
    // Ack once a slot frees.
    flags_ |= static_cast<std::uint8_t>(kAckDeferred << port);
  }
  try_grant();
}

void FaninNode::ack_input(std::uint32_t port) {
  sched().schedule(spec_->chars.ack_delay, [this, port] {
    SPECNOC_ASSERT((flags_ & (kChannelBusy << port)) != 0);
    flags_ &= static_cast<std::uint8_t>(~(kChannelBusy << port));
    input(port).ack();
  });
}

void FaninNode::try_grant() {
  constexpr std::uint8_t kCanGrant = kOutputFree | kArbiterReady;
  if ((flags_ & kCanGrant) != kCanGrant) return;
  if (open_packet_input_ >= 0) {
    const auto owner = static_cast<std::uint32_t>(open_packet_input_);
    if (!fifo(owner).empty()) {
      // Wormhole: keep streaming the open packet.
      forward_head(owner);
      return;
    }
    // The open packet's next flit has not arrived. Hold the output for it
    // (strict wormhole), but only up to the watchdog timeout — an
    // unbounded hold deadlocks under lockstep multicast replication.
    if ((flags_ & kWatchdogArmed) == 0) {
      flags_ = static_cast<std::uint8_t>(
          (flags_ | kWatchdogArmed) & ~kGrantedSinceArm);
      sched().schedule(spec_->sticky_timeout, [this] {
        const bool stale = (flags_ & kGrantedSinceArm) != 0;
        flags_ &= static_cast<std::uint8_t>(~kWatchdogArmed);
        if (!stale && open_packet_input_ >= 0) {
          // Still starved: release the hold and serve whoever is waiting.
          open_packet_input_ = -1;
          record_watchdog_release();
        }
        // Always re-evaluate: a stale watchdog may be the only pending
        // wakeup for a newer hold (which this call re-arms).
        try_grant();
      });
    }
    return;
  }
  // No open packet: grant the earliest-queued head.
  int pick = -1;
  std::uint64_t best = 0;
  for (std::uint32_t p = 0; p < 2; ++p) {
    if (fifo(p).empty()) continue;
    const std::uint64_t seq = fifo(p).front().seq;
    if (pick < 0 || seq < best) {
      pick = static_cast<int>(p);
      best = seq;
    }
  }
  if (pick >= 0) {
    forward_head(static_cast<std::uint32_t>(pick));
  }
}

void FaninNode::forward_head(std::uint32_t port) {
  Fifo& queue = fifo(port);
  SPECNOC_ASSERT((flags_ & kOutputFree) != 0 &&
                 (flags_ & kArbiterReady) != 0 && !queue.empty());
  const noc::Flit flit = queue.front().flit;
  queue.pop_front();
  flags_ &= static_cast<std::uint8_t>(~kOutputFree);
  flags_ |= kGrantedSinceArm;  // any armed watchdog is now stale
  record_op(noc::NodeOp::kArbitrate);
  if (!fifo(port ^ 1u).empty()) record_contended_grant();
  output(0).send(flit);
  if (flit.is_header() && !noc::closes_packet(flit)) {
    open_packet_input_ = static_cast<std::int8_t>(port);
  } else if (noc::closes_packet(flit) &&
             open_packet_input_ == static_cast<int>(port)) {
    open_packet_input_ = -1;
  }
  const auto deferred = static_cast<std::uint8_t>(kAckDeferred << port);
  if ((flags_ & deferred) != 0) {
    // A slot just freed; complete the postponed input handshake.
    flags_ &= static_cast<std::uint8_t>(~deferred);
    ack_input(port);
  }
  // Mutex + switch recovery before the next grant (rate limiting; not on
  // the zero-load latency path).
  flags_ &= static_cast<std::uint8_t>(~kArbiterReady);
  const NodeCharacteristics& chars = spec_->chars;
  sched().schedule(disciplined_delay(chars.fwd_body + chars.ack_delay,
                                     chars.clock_period, sched().now()),
                   [this] {
                     flags_ |= kArbiterReady;
                     try_grant();
                   });
}

void FaninNode::on_output_ack(std::uint32_t out_port) {
  SPECNOC_EXPECTS(out_port == 0);
  SPECNOC_ASSERT(!output_port_free());
  flags_ |= kOutputFree;
  try_grant();
}

}  // namespace specnoc::nodes
