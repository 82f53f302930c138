#include "nodes/fanout_base.h"

namespace specnoc::nodes {

FanoutNodeBase::FanoutNodeBase(sim::Scheduler& scheduler,
                               noc::SimHooks& hooks, noc::NodeKind kind,
                               const NodeCharacteristics& chars,
                               noc::DestRange top_span,
                               noc::DestRange bottom_span)
    : Node(scheduler, hooks, kind), chars_(&chars), top_span_(top_span),
      bottom_span_(bottom_span) {
  SPECNOC_EXPECTS(chars.fwd_header >= 0 && chars.fwd_body >= 0 &&
                  chars.ack_delay >= 0);
  SPECNOC_EXPECTS(top_span.hi <= bottom_span.lo ||
                  bottom_span.hi <= top_span.lo);
}

void FanoutNodeBase::deliver(const noc::Flit& flit, std::uint32_t in_port) {
  SPECNOC_EXPECTS(in_port == 0);
  SPECNOC_ASSERT(!input_busy_);
  input_busy_ = true;
  sched().schedule(disciplined_delay(processing_latency(flit),
                                     chars_->clock_period, sched().now()),
                   [this, flit] { process(flit); });
}

void FanoutNodeBase::on_output_ack(std::uint32_t out_port) {
  SPECNOC_EXPECTS(out_port < 2);
  SPECNOC_ASSERT(out_[out_port].free == false);
  out_[out_port].free = true;
  try_send(out_port);
}

Dirs FanoutNodeBase::true_dirs(const noc::Packet& packet) const {
  Dirs dirs = kDirNone;
  if (packet.dests.intersects(top_span_)) dirs |= kDirTop;
  if (packet.dests.intersects(bottom_span_)) dirs |= kDirBottom;
  return dirs;
}

void FanoutNodeBase::forward(const noc::Flit& flit, Dirs dirs,
                             noc::NodeOp op) {
  SPECNOC_EXPECTS(dirs != kDirNone);
  SPECNOC_ASSERT(input_busy_);
  SPECNOC_ASSERT(sends_remaining_ == 0);
  record_op(op);
  sends_remaining_ = ((dirs & kDirTop) ? 1 : 0) + ((dirs & kDirBottom) ? 1 : 0);
  for (std::uint32_t dir = 0; dir < 2; ++dir) {
    if ((dirs & (1u << dir)) == 0) continue;
    SPECNOC_ASSERT(!out_[dir].has_waiting);
    out_[dir].has_waiting = true;
    out_[dir].waiting = flit;
    try_send(dir);
  }
}

void FanoutNodeBase::throttle(const noc::Flit& flit) {
  SPECNOC_ASSERT(input_busy_);
  record_op(noc::NodeOp::kThrottle);
  record_kill(flit);
  ack_input();
}

TimePs FanoutNodeBase::fwd_latency(const noc::Flit& flit) const {
  return flit.is_header() ? chars_->fwd_header : chars_->fwd_body;
}

TimePs FanoutNodeBase::processing_latency(const noc::Flit& flit) const {
  return fwd_latency(flit);
}

void FanoutNodeBase::try_send(std::uint32_t dir) {
  if (out_[dir].free && out_[dir].has_waiting) {
    const noc::Flit flit = out_[dir].waiting;
    out_[dir].has_waiting = false;
    send_now(dir, flit);
  }
}

void FanoutNodeBase::send_now(std::uint32_t dir, const noc::Flit& flit) {
  out_[dir].free = false;
  output(dir).send(flit);
  SPECNOC_ASSERT(sends_remaining_ > 0);
  if (--sends_remaining_ == 0) {
    ack_input();
  }
}

void FanoutNodeBase::ack_input() {
  sched().schedule(
      disciplined_delay(chars_->ack_delay, chars_->clock_period, sched().now()),
      [this] {
        SPECNOC_ASSERT(input_busy_);
        input_busy_ = false;
        input(0).ack();
      });
}

}  // namespace specnoc::nodes
