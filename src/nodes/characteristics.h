// Per-node-type physical characteristics (area, latency, handshake delays).
//
// Area and forward latency for the five fanout node designs are the paper's
// own Nangate-45nm post-mapping measurements (Section 5.2(a)). The fanin
// arbiter is not characterized in the paper; we assume values comparable to
// the baseline fanout (it is identical in all six networks, so its constants
// cancel in every comparison). Ack-generation delays and the opt
// non-speculative fast-forward latency are modeling assumptions, documented
// in DESIGN.md and overridable per run.
#pragma once

#include "noc/hooks.h"
#include "util/units.h"

namespace specnoc::nodes {

struct NodeCharacteristics {
  AreaUm2 area_um2 = 0.0;
  /// Input-to-output forward latency for header flits.
  TimePs fwd_header = 0;
  /// Forward latency for body/tail flits (differs only for the
  /// performance-optimized non-speculative node's fast-forward path).
  TimePs fwd_body = 0;
  /// Delay from the last req-out to the ack edge on the input channel.
  TimePs ack_delay = 0;
  /// Latency of the kill path for a misrouted flit: the 2-bit address
  /// compare plus the Ack Module, with no route computation or output
  /// channel allocation ("throttling with almost no hardware overhead",
  /// paper Section 1). Only meaningful for the non-speculative designs and
  /// the optimized speculative node's body-flit path.
  TimePs throttle_latency = 0;
  /// 0 = asynchronous (self-timed, the paper's design). Non-zero models a
  /// synchronous implementation of the same switch: every internal delay
  /// completes at the next clock edge — the quantization overhead the
  /// paper's asynchronous design avoids (its 'sub-cycle' operation).
  TimePs clock_period = 0;

  friend bool operator==(const NodeCharacteristics& a,
                         const NodeCharacteristics& b) {
    return a.area_um2 == b.area_um2 && a.fwd_header == b.fwd_header &&
           a.fwd_body == b.fwd_body && a.ack_delay == b.ack_delay &&
           a.throttle_latency == b.throttle_latency &&
           a.clock_period == b.clock_period;
  }
  friend bool operator!=(const NodeCharacteristics& a,
                         const NodeCharacteristics& b) {
    return !(a == b);
  }
};

/// Process-wide interner: returns a stable reference to a value equal to
/// `chars`, deduplicated. Switch nodes keep a pointer to the characteristics
/// they are constructed with instead of a 48-byte copy — a network has
/// millions of nodes but only a handful of distinct characteristics values
/// (per kind, plus per-run overrides), so builders intern each kind's value
/// once and hand that reference to every node of the kind. This shrinks
/// every node and puts the hot latency constants on shared cache lines.
/// Thread-safe; interned values are never freed (util::intern).
const NodeCharacteristics& intern_characteristics(
    const NodeCharacteristics& chars);

/// What every fanin arbiter of a network shares: its characteristics and
/// the sticky-hold watchdog timeout (nodes/fanin_node.h). Builders intern
/// one value (util::intern) and each arbiter keeps a pointer to it, so
/// neither the latency constants nor the timeout are copied into a million
/// nodes.
struct FaninSpec {
  NodeCharacteristics chars;
  /// How long an arbiter holds its output for the open packet's missing
  /// next flit before releasing it.
  TimePs sticky_timeout = 1200;

  friend bool operator==(const FaninSpec&, const FaninSpec&) = default;
};

/// Delay from `now` until work of raw duration `raw` completes under the
/// given clocking discipline: the raw delay itself when asynchronous
/// (clock_period == 0), or the distance to the first clock edge at least
/// `raw` after `now` when synchronous.
TimePs disciplined_delay(TimePs raw, TimePs clock_period, TimePs now);

/// Default characteristics for each node kind (paper values where reported).
const NodeCharacteristics& default_characteristics(noc::NodeKind kind);

}  // namespace specnoc::nodes
