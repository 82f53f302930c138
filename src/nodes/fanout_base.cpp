#include "nodes/fanout_base.h"

namespace specnoc::nodes {

FanoutNodeBase::FanoutNodeBase(sim::Scheduler& scheduler,
                               noc::SimHooks& hooks, noc::NodeKind kind,
                               const NodeCharacteristics& chars,
                               noc::DestRange top_span,
                               noc::DestRange bottom_span)
    : Node(scheduler, hooks, kind, 1, 2), chars_(&chars), top_span_(top_span),
      bottom_span_(bottom_span) {
  SPECNOC_EXPECTS(chars.fwd_header >= 0 && chars.fwd_body >= 0 &&
                  chars.ack_delay >= 0);
  SPECNOC_EXPECTS(top_span.hi <= bottom_span.lo ||
                  bottom_span.hi <= top_span.lo);
}

void FanoutNodeBase::deliver(const noc::Flit& flit, std::uint32_t in_port) {
  SPECNOC_EXPECTS(in_port == 0);
  SPECNOC_ASSERT(!input_busy());
  flags_ |= kInputBusy;
  const Route decision = route(flit);
  const TimePs latency = decision.dirs == kDirNone
                             ? chars_->throttle_latency
                             : flit.is_header() ? chars_->fwd_header
                                                : chars_->fwd_body;
  sched().schedule(
      disciplined_delay(latency, chars_->clock_period, sched().now()),
      [this, flit, decision] { process(flit, decision); });
}

void FanoutNodeBase::process(const noc::Flit& flit, const Route& route) {
  if (route.dirs == kDirNone) {
    throttle(flit);
    return;
  }
  if (route.prealloc != Prealloc::kNone) {
    record_prealloc(route.prealloc == Prealloc::kHit);
  }
  forward(flit, route.dirs, route.op);
}

void FanoutNodeBase::on_output_ack(std::uint32_t out_port) {
  SPECNOC_EXPECTS(out_port < 2);
  SPECNOC_ASSERT(!output_port_free(out_port));
  flags_ |= static_cast<std::uint8_t>(kFree << out_port);
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
  SPECNOC_ASSERT(input_busy());
  SPECNOC_ASSERT(sends_remaining() == 0);
  record_op(op);
  // Every required output holds its copy before the first one is sent;
  // the input is acked once none is left waiting.
  waiting_ = flit;
  flags_ |= static_cast<std::uint8_t>(dirs * kWaiting);
  for (std::uint32_t dir = 0; dir < 2; ++dir) {
    if ((dirs & (1u << dir)) != 0) try_send(dir);
  }
}

void FanoutNodeBase::throttle(const noc::Flit& flit) {
  SPECNOC_ASSERT(input_busy());
  record_op(noc::NodeOp::kThrottle);
  record_kill(flit);
  ack_input();
}

void FanoutNodeBase::try_send(std::uint32_t dir) {
  const auto ready = static_cast<std::uint8_t>((kFree | kWaiting) << dir);
  if ((flags_ & ready) != ready) return;
  flags_ &= static_cast<std::uint8_t>(~ready);
  output(dir).send(waiting_);
  if ((flags_ & kWaitingAny) == 0) {
    ack_input();
  }
}

void FanoutNodeBase::ack_input() {
  sched().schedule(
      disciplined_delay(chars_->ack_delay, chars_->clock_period, sched().now()),
      [this] {
        SPECNOC_ASSERT(input_busy());
        flags_ &= static_cast<std::uint8_t>(~kInputBusy);
        input(0).ack();
      });
}

}  // namespace specnoc::nodes
