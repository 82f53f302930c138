#include "nodes/fanout_nodes.h"

namespace specnoc::nodes {

BaselineFanoutNode::BaselineFanoutNode(sim::Scheduler& scheduler,
                                       noc::SimHooks& hooks,
                                       const NodeCharacteristics& chars,
                                       noc::DestRange top_span,
                                       noc::DestRange bottom_span)
    : FanoutNodeBase(scheduler, hooks, noc::NodeKind::kFanoutBaseline,
                     chars, top_span, bottom_span) {}

void BaselineFanoutNode::process(const noc::Flit& flit) {
  const Dirs dirs = true_dirs(*flit.packet);
  // The baseline network admits unicast packets only, and has no
  // speculative nodes to misroute them, so exactly one direction is set.
  SPECNOC_ASSERT(dirs == kDirTop || dirs == kDirBottom);
  forward(flit, dirs, noc::NodeOp::kRouteForward);
}

SpecFanoutNode::SpecFanoutNode(sim::Scheduler& scheduler,
                               noc::SimHooks& hooks,
                               const NodeCharacteristics& chars,
                               noc::DestRange top_span,
                               noc::DestRange bottom_span)
    : FanoutNodeBase(scheduler, hooks, noc::NodeKind::kFanoutSpeculative,
                     chars, top_span, bottom_span) {}

void SpecFanoutNode::process(const noc::Flit& flit) {
  forward(flit, kDirBoth, noc::NodeOp::kBroadcast);
}

NonSpecFanoutNode::NonSpecFanoutNode(sim::Scheduler& scheduler,
                                     noc::SimHooks& hooks,
                                     const NodeCharacteristics& chars,
                                     noc::DestRange top_span,
                                     noc::DestRange bottom_span)
    : FanoutNodeBase(scheduler, hooks, noc::NodeKind::kFanoutNonSpeculative,
                     chars, top_span, bottom_span) {}

void NonSpecFanoutNode::process(const noc::Flit& flit) {
  const Dirs dirs = true_dirs(*flit.packet);
  if (dirs == kDirNone) {
    throttle(flit);
  } else {
    forward(flit, dirs, noc::NodeOp::kRouteForward);
  }
}

TimePs NonSpecFanoutNode::processing_latency(const noc::Flit& flit) const {
  return true_dirs(*flit.packet) == kDirNone
             ? characteristics().throttle_latency
             : fwd_latency(flit);
}

OptSpecFanoutNode::OptSpecFanoutNode(sim::Scheduler& scheduler,
                                     noc::SimHooks& hooks,
                                     const NodeCharacteristics& chars,
                                     noc::DestRange top_span,
                                     noc::DestRange bottom_span)
    : FanoutNodeBase(scheduler, hooks, noc::NodeKind::kFanoutOptSpeculative,
                     chars, top_span, bottom_span) {}

void OptSpecFanoutNode::process(const noc::Flit& flit) {
  if (flit.is_header() || flit.is_tail()) {
    // Normally-transparent ports: header and tail go both ways.
    forward(flit, kDirBoth, noc::NodeOp::kBroadcast);
    return;
  }
  // Body flits revert to non-speculative routing (power optimization).
  const Dirs dirs = true_dirs(*flit.packet);
  if (dirs == kDirNone) {
    throttle(flit);
  } else {
    forward(flit, dirs, noc::NodeOp::kRouteForward);
  }
}

TimePs OptSpecFanoutNode::processing_latency(const noc::Flit& flit) const {
  const bool body = !flit.is_header() && !flit.is_tail();
  if (body && true_dirs(*flit.packet) == kDirNone) {
    return characteristics().throttle_latency;
  }
  return fwd_latency(flit);
}

OptNonSpecFanoutNode::OptNonSpecFanoutNode(sim::Scheduler& scheduler,
                                           noc::SimHooks& hooks,
                                           const NodeCharacteristics& chars,
                                           noc::DestRange top_span,
                                           noc::DestRange bottom_span)
    : FanoutNodeBase(scheduler, hooks,
                     noc::NodeKind::kFanoutOptNonSpeculative, chars,
                     top_span, bottom_span) {}

void OptNonSpecFanoutNode::process(const noc::Flit& flit) {
  const Dirs dirs = true_dirs(*flit.packet);
  if (dirs == kDirNone) {
    throttle(flit);
    return;
  }
  if (flit.is_header()) {
    record_prealloc(false);
    forward(flit, dirs, noc::NodeOp::kRouteForward);
  } else {
    // Channel was pre-allocated by the header; body/tail fast-forward.
    record_prealloc(true);
    forward(flit, dirs, noc::NodeOp::kFastForward);
  }
}

TimePs OptNonSpecFanoutNode::processing_latency(const noc::Flit& flit) const {
  return true_dirs(*flit.packet) == kDirNone
             ? characteristics().throttle_latency
             : fwd_latency(flit);
}

}  // namespace specnoc::nodes
