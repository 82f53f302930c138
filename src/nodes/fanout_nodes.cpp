#include "nodes/fanout_nodes.h"

namespace specnoc::nodes {

BaselineFanoutNode::BaselineFanoutNode(sim::Scheduler& scheduler,
                                       noc::SimHooks& hooks,
                                       const NodeCharacteristics& chars,
                                       noc::DestRange top_span,
                                       noc::DestRange bottom_span)
    : FanoutNodeBase(scheduler, hooks, noc::NodeKind::kFanoutBaseline,
                     chars, top_span, bottom_span) {}

Route BaselineFanoutNode::route(const noc::Flit& flit) const {
  const Dirs dirs = true_dirs(*flit.packet);
  // The baseline network admits unicast packets only, and has no
  // speculative nodes to misroute them, so exactly one direction is set.
  SPECNOC_ASSERT(dirs == kDirTop || dirs == kDirBottom);
  return {dirs, noc::NodeOp::kRouteForward};
}

SpecFanoutNode::SpecFanoutNode(sim::Scheduler& scheduler,
                               noc::SimHooks& hooks,
                               const NodeCharacteristics& chars,
                               noc::DestRange top_span,
                               noc::DestRange bottom_span)
    : FanoutNodeBase(scheduler, hooks, noc::NodeKind::kFanoutSpeculative,
                     chars, top_span, bottom_span) {}

Route SpecFanoutNode::route(const noc::Flit&) const {
  return {kDirBoth, noc::NodeOp::kBroadcast};
}

NonSpecFanoutNode::NonSpecFanoutNode(sim::Scheduler& scheduler,
                                     noc::SimHooks& hooks,
                                     const NodeCharacteristics& chars,
                                     noc::DestRange top_span,
                                     noc::DestRange bottom_span)
    : FanoutNodeBase(scheduler, hooks, noc::NodeKind::kFanoutNonSpeculative,
                     chars, top_span, bottom_span) {}

Route NonSpecFanoutNode::route(const noc::Flit& flit) const {
  return {true_dirs(*flit.packet), noc::NodeOp::kRouteForward};
}

OptSpecFanoutNode::OptSpecFanoutNode(sim::Scheduler& scheduler,
                                     noc::SimHooks& hooks,
                                     const NodeCharacteristics& chars,
                                     noc::DestRange top_span,
                                     noc::DestRange bottom_span)
    : FanoutNodeBase(scheduler, hooks, noc::NodeKind::kFanoutOptSpeculative,
                     chars, top_span, bottom_span) {}

Route OptSpecFanoutNode::route(const noc::Flit& flit) const {
  if (flit.is_header() || flit.is_tail()) {
    // Normally-transparent ports: header and tail go both ways.
    return {kDirBoth, noc::NodeOp::kBroadcast};
  }
  // Body flits revert to non-speculative routing (power optimization).
  return {true_dirs(*flit.packet), noc::NodeOp::kRouteForward};
}

OptNonSpecFanoutNode::OptNonSpecFanoutNode(sim::Scheduler& scheduler,
                                           noc::SimHooks& hooks,
                                           const NodeCharacteristics& chars,
                                           noc::DestRange top_span,
                                           noc::DestRange bottom_span)
    : FanoutNodeBase(scheduler, hooks,
                     noc::NodeKind::kFanoutOptNonSpeculative, chars,
                     top_span, bottom_span) {}

Route OptNonSpecFanoutNode::route(const noc::Flit& flit) const {
  const Dirs dirs = true_dirs(*flit.packet);
  if (flit.is_header()) {
    return {dirs, noc::NodeOp::kRouteForward, Prealloc::kMiss};
  }
  // Channel was pre-allocated by the header; body/tail fast-forward.
  return {dirs, noc::NodeOp::kFastForward, Prealloc::kHit};
}

}  // namespace specnoc::nodes
