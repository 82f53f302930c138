// The five fanout node designs (paper Sections 2 and 4).
//
// All share FanoutNodeBase's handshake machinery and differ only in how they
// decide what to do with a flit:
//
//   BaselineFanoutNode     unicast route; 1-bit address; no multicast.
//   SpecFanoutNode         unoptimized speculative: always broadcast.
//   NonSpecFanoutNode      unoptimized non-speculative: decode 2-bit symbol
//                          (top/bottom/both/throttle) for every flit.
//   OptSpecFanoutNode      power-optimized speculative: broadcast header and
//                          tail, route body flits on the true direction(s).
//   OptNonSpecFanoutNode   performance-optimized non-speculative: route the
//                          header, pre-allocate the channel(s) and
//                          fast-forward body/tail flits.
//
// Route decisions derive from the packet's destination set via the subtree
// masks — behaviourally identical to decoding the node's source-routing
// field (mot::SourceRouteEncoder computes the same symbol; tests assert the
// equivalence).
#pragma once

#include "nodes/fanout_base.h"

namespace specnoc::nodes {

/// Baseline fanout node [Horak et al., TCAD'11]: supports only unicast
/// packets; route computation on every flit.
class BaselineFanoutNode final : public FanoutNodeBase {
 public:
  BaselineFanoutNode(sim::Scheduler& scheduler, noc::SimHooks& hooks,
                     const NodeCharacteristics& chars,
                     noc::DestRange top_span, noc::DestRange bottom_span);

 private:
  Route route(const noc::Flit& flit) const override;
};

/// Unoptimized speculative node: no address storage, no route computation;
/// every flit is broadcast on both outputs (C-element joins the acks).
class SpecFanoutNode final : public FanoutNodeBase {
 public:
  SpecFanoutNode(sim::Scheduler& scheduler, noc::SimHooks& hooks,
                 const NodeCharacteristics& chars,
                 noc::DestRange top_span, noc::DestRange bottom_span);

 private:
  Route route(const noc::Flit& flit) const override;
};

/// Unoptimized non-speculative node: decodes its 2-bit symbol for every
/// flit; throttles misrouted packets (including every body/tail flit of a
/// packet whose header was throttled — the Address Storage Unit holds the
/// kill decision until the tail).
class NonSpecFanoutNode final : public FanoutNodeBase {
 public:
  NonSpecFanoutNode(sim::Scheduler& scheduler, noc::SimHooks& hooks,
                    const NodeCharacteristics& chars,
                    noc::DestRange top_span, noc::DestRange bottom_span);

 private:
  Route route(const noc::Flit& flit) const override;
};

/// Power-optimized speculative node: the header is broadcast and its routing
/// information latched; body flits follow only the true direction(s) — a
/// body flit of a fully misrouted packet is throttled outright. The output
/// ports return to their normally-transparent state on the tail, so the
/// tail is broadcast again (paper Section 4(c)).
class OptSpecFanoutNode final : public FanoutNodeBase {
 public:
  OptSpecFanoutNode(sim::Scheduler& scheduler, noc::SimHooks& hooks,
                    const NodeCharacteristics& chars,
                    noc::DestRange top_span, noc::DestRange bottom_span);

 private:
  Route route(const noc::Flit& flit) const override;
};

/// Performance-optimized non-speculative node: header routing pre-allocates
/// the output channel(s); body/tail flits fast-forward through them with the
/// shorter fwd_body latency. The tail releases the allocation.
class OptNonSpecFanoutNode final : public FanoutNodeBase {
 public:
  OptNonSpecFanoutNode(sim::Scheduler& scheduler, noc::SimHooks& hooks,
                       const NodeCharacteristics& chars,
                       noc::DestRange top_span, noc::DestRange bottom_span);

 private:
  Route route(const noc::Flit& flit) const override;
};

}  // namespace specnoc::nodes
