#include "nodes/fanin_node.h"

namespace specnoc::nodes {

FaninNode::FaninNode(sim::Scheduler& scheduler, noc::SimHooks& hooks,
                     const FaninSpec& spec, std::uint32_t input_buffer_flits)
    : Node(scheduler, hooks, noc::NodeKind::kFanin), spec_(&spec) {
  SPECNOC_EXPECTS(input_buffer_flits >= 1);
  SPECNOC_EXPECTS(spec.sticky_timeout > 0);
  in_[0].fifo.reserve(input_buffer_flits);
  in_[1].fifo.reserve(input_buffer_flits);
}

std::string FaninNode::output_port_name(std::uint32_t) const { return "up"; }

void FaninNode::deliver(const noc::Flit& flit, std::uint32_t in_port) {
  SPECNOC_EXPECTS(in_port < 2);
  InputState& in = in_[in_port];
  SPECNOC_ASSERT(!in.channel_busy);
  in.channel_busy = true;
  // Entry stage: input latch + FIFO write take the forward latency.
  const NodeCharacteristics& chars = spec_->chars;
  sched().schedule(disciplined_delay(chars.fwd_header, chars.clock_period,
                                     sched().now()),
                   [this, flit, in_port] { enqueue(flit, in_port); });
}

void FaninNode::enqueue(const noc::Flit& flit, std::uint32_t port) {
  InputState& in = in_[port];
  SPECNOC_ASSERT(in.channel_busy);
  SPECNOC_ASSERT(in.fifo.size() < in.fifo.capacity());
  in.fifo.push_back({flit, arrival_seq_++});
  if (in.fifo.size() < in.fifo.capacity()) {
    ack_input(port);
  } else {
    in.ack_deferred = true;  // ack once a slot frees
  }
  try_grant();
}

void FaninNode::ack_input(std::uint32_t port) {
  sched().schedule(spec_->chars.ack_delay, [this, port] {
    SPECNOC_ASSERT(in_[port].channel_busy);
    in_[port].channel_busy = false;
    input(port).ack();
  });
}

void FaninNode::try_grant() {
  if (!output_free_ || !arbiter_ready_) return;
  if (open_packet_input_ >= 0) {
    const auto owner = static_cast<std::uint32_t>(open_packet_input_);
    if (!in_[owner].fifo.empty()) {
      // Wormhole: keep streaming the open packet.
      forward_head(owner);
      return;
    }
    // The open packet's next flit has not arrived. Hold the output for it
    // (strict wormhole), but only up to the watchdog timeout — an
    // unbounded hold deadlocks under lockstep multicast replication.
    if (!watchdog_armed_) {
      watchdog_armed_ = true;
      const std::uint64_t epoch = grant_epoch_;
      sched().schedule(spec_->sticky_timeout, [this, epoch] {
        watchdog_armed_ = false;
        if (grant_epoch_ == epoch && open_packet_input_ >= 0) {
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
    if (in_[p].fifo.empty()) continue;
    const std::uint64_t seq = in_[p].fifo.front().seq;
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
  InputState& in = in_[port];
  SPECNOC_ASSERT(output_free_ && arbiter_ready_ && !in.fifo.empty());
  const noc::Flit flit = in.fifo.front().flit;
  in.fifo.pop_front();
  output_free_ = false;
  ++grant_epoch_;  // any armed watchdog is now stale
  record_op(noc::NodeOp::kArbitrate);
  if (!in_[port ^ 1u].fifo.empty()) record_contended_grant();
  output(0).send(flit);
  if (flit.is_header() && !noc::closes_packet(flit)) {
    open_packet_input_ = static_cast<int>(port);
  } else if (noc::closes_packet(flit) &&
             open_packet_input_ == static_cast<int>(port)) {
    open_packet_input_ = -1;
  }
  if (in.ack_deferred) {
    // A slot just freed; complete the postponed input handshake.
    in.ack_deferred = false;
    ack_input(port);
  }
  // Mutex + switch recovery before the next grant (rate limiting; not on
  // the zero-load latency path).
  arbiter_ready_ = false;
  const NodeCharacteristics& chars = spec_->chars;
  sched().schedule(disciplined_delay(chars.fwd_body + chars.ack_delay,
                                     chars.clock_period, sched().now()),
                   [this] {
                     arbiter_ready_ = true;
                     try_grant();
                   });
}

void FaninNode::on_output_ack(std::uint32_t out_port) {
  SPECNOC_EXPECTS(out_port == 0);
  SPECNOC_ASSERT(!output_free_);
  output_free_ = true;
  try_grant();
}

}  // namespace specnoc::nodes
