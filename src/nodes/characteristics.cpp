#include "nodes/characteristics.h"

#include "util/contract.h"
#include "util/intern.h"

namespace specnoc::nodes {

const NodeCharacteristics& intern_characteristics(
    const NodeCharacteristics& chars) {
  return util::intern(chars);
}

TimePs disciplined_delay(TimePs raw, TimePs clock_period, TimePs now) {
  SPECNOC_EXPECTS(raw >= 0 && clock_period >= 0 && now >= 0);
  if (clock_period == 0) {
    return raw;
  }
  const TimePs ready = now + raw;
  const TimePs edges = (ready + clock_period - 1) / clock_period;
  return edges * clock_period - now;
}

const NodeCharacteristics& default_characteristics(noc::NodeKind kind) {
  // {area um^2, fwd header ps, fwd body ps, ack delay ps, throttle ps}
  static const NodeCharacteristics kSourceNi{0.0, 50, 50, 50, 50};
  static const NodeCharacteristics kSinkNi{0.0, 50, 50, 50, 50};
  // Paper Section 5.2(a) for area and forward latency:
  static const NodeCharacteristics kBaseline{342.0, 263, 263, 150, 263};
  static const NodeCharacteristics kSpec{247.0, 52, 52, 120, 52};
  static const NodeCharacteristics kNonSpec{406.0, 299, 299, 150, 120};
  static const NodeCharacteristics kOptSpec{373.0, 120, 120, 130, 110};
  // fwd_body = fast-forward latency through the pre-allocated channel.
  static const NodeCharacteristics kOptNonSpec{366.0, 279, 100, 140, 110};
  // Assumed (not reported in the paper); see DESIGN.md.
  static const NodeCharacteristics kFanin{310.0, 120, 250, 150, 120};
  // 2D-mesh comparison substrate: a VC-less 5-port XY wormhole router
  // (area/timing assumed for a 45 nm single-cycle-class router).
  static const NodeCharacteristics kMeshRouter{2600.0, 350, 350, 150, 350};
  // Speculative mesh router (our extension of local speculation to the
  // mesh): no 4-way route computation or allocation on the through path.
  static const NodeCharacteristics kMeshRouterSpec{1900.0, 150, 150, 120,
                                                   150};

  switch (kind) {
    case noc::NodeKind::kSource: return kSourceNi;
    case noc::NodeKind::kSink: return kSinkNi;
    case noc::NodeKind::kFanoutBaseline: return kBaseline;
    case noc::NodeKind::kFanoutSpeculative: return kSpec;
    case noc::NodeKind::kFanoutNonSpeculative: return kNonSpec;
    case noc::NodeKind::kFanoutOptSpeculative: return kOptSpec;
    case noc::NodeKind::kFanoutOptNonSpeculative: return kOptNonSpec;
    case noc::NodeKind::kFanin: return kFanin;
    case noc::NodeKind::kMeshRouter: return kMeshRouter;
    case noc::NodeKind::kMeshRouterSpec: return kMeshRouterSpec;
  }
  SPECNOC_UNREACHABLE("unknown node kind");
}

}  // namespace specnoc::nodes
