#include "mesh/mesh_router.h"

#include <bit>

namespace specnoc::mesh {

MeshRouter::MeshRouter(sim::Scheduler& scheduler, noc::SimHooks& hooks,
                       const nodes::NodeCharacteristics& chars,
                       const MeshTopology& topology, std::uint32_t router_id,
                       std::uint32_t input_buffer_flits,
                       TimePs sticky_timeout)
    : MeshRouter(scheduler, hooks, noc::NodeKind::kMeshRouter, chars,
                 topology, router_id, input_buffer_flits, sticky_timeout) {}

MeshRouter::MeshRouter(sim::Scheduler& scheduler, noc::SimHooks& hooks,
                       noc::NodeKind kind,
                       const nodes::NodeCharacteristics& chars,
                       const MeshTopology& topology, std::uint32_t router_id,
                       std::uint32_t input_buffer_flits,
                       TimePs sticky_timeout)
    : Node(scheduler, hooks, kind, kNumPorts, kNumPorts),
      topology_(topology), id_(router_id), chars_(&chars),
      buffer_capacity_(input_buffer_flits),
      sticky_timeout_(sticky_timeout) {
  SPECNOC_EXPECTS(router_id < topology.n());
  SPECNOC_EXPECTS(input_buffer_flits >= 1);
  SPECNOC_EXPECTS(sticky_timeout > 0);
}

std::string MeshRouter::name() const {
  return (kind() == noc::NodeKind::kMeshRouterSpec ? "sr" : "r") +
         std::to_string(topology_.x_of(id_)) + "," +
         std::to_string(topology_.y_of(id_));
}

std::string MeshRouter::output_port_name(std::uint32_t port) const {
  return to_string(static_cast<Port>(port));
}

bool MeshRouter::valid_tree_arrival(const noc::Flit& flit,
                                    std::uint32_t in_port) const {
  if (in_port == static_cast<std::uint32_t>(Port::kLocal)) {
    return true;  // fresh injection from this router's own NI
  }
  // The flit arrived on side `in_port`, i.e. from the neighbor in that
  // direction; the edge is on the packet's XY tree iff that neighbor
  // routes toward us.
  const auto side = static_cast<Port>(in_port);
  if (!topology_.has_neighbor(id_, side)) {
    return false;
  }
  const std::uint32_t upstream = topology_.neighbor(id_, side);
  const PortMask up_dirs = topology_.route_dirs(
      upstream, flit.packet->src, flit.packet->dests);
  return (up_dirs & port_bit(opposite(side))) != 0;
}

PortMask MeshRouter::compute_needed(const noc::Flit& flit,
                                    std::uint32_t in_port) const {
  if (!valid_tree_arrival(flit, in_port)) {
    return 0;  // redundant copy from a speculative neighbor: throttle
  }
  return topology_.route_dirs(id_, flit.packet->src, flit.packet->dests);
}

PortMask MeshRouter::speculative_ports(const noc::Flit&, std::uint32_t) const {
  return 0;  // conventional routers do not speculate
}

void MeshRouter::deliver(const noc::Flit& flit, std::uint32_t in_port) {
  SPECNOC_EXPECTS(in_port < kNumPorts);
  InputState& in = in_[in_port];
  SPECNOC_ASSERT(!in.channel_busy);
  in.channel_busy = true;
  in.spec_sent = 0;
  in.spec_window_open = true;
  // Opportunistic early copies (speculative routers only): fire on idle
  // ports after the short speculation latency, never waited on.
  const PortMask spec_request = speculative_ports(flit, in_port);
  if (spec_request != 0) {
    sched().schedule(
        nodes::disciplined_delay(speculation_latency(), chars_->clock_period,
                                 sched().now()),
        [this, flit, in_port, spec_request] {
          in_[in_port].spec_sent =
              fire_speculative(flit, in_port, spec_request);
        });
  }
  const PortMask needed = compute_needed(flit, in_port);
  const TimePs raw =
      needed == 0 ? chars_->throttle_latency : chars_->fwd_header;
  sched().schedule(
      nodes::disciplined_delay(raw, chars_->clock_period, sched().now()),
      [this, flit, in_port, needed] {
        // The conventional path now owns the flit; a speculative event
        // firing after this instant must not re-send it.
        in_[in_port].spec_window_open = false;
        // Tree ports already covered by an early copy are done.
        const PortMask remaining =
            static_cast<PortMask>(needed & ~in_[in_port].spec_sent);
        if (needed == 0) {
          throttle(flit, in_port);
        } else if (remaining == 0) {
          // Fully covered speculatively: dispose of the flit directly.
          record_op(noc::NodeOp::kFastForward);
          record_prealloc(true);
          ack_input(in_port);
        } else {
          enqueue(flit, in_port, remaining);
        }
      });
}

PortMask MeshRouter::fire_speculative(const noc::Flit& flit,
                                      std::uint32_t in_port,
                                      PortMask request) {
  // Two guards. The window: once the conventional path has taken the
  // flit (possible under custom timings where fwd latency < speculation
  // latency), a late early-copy would duplicate it. The backlog: an early
  // copy must not overtake an earlier flit of the same input still queued
  // for a busy port.
  if (!in_[in_port].spec_window_open || !in_[in_port].fifo.empty()) {
    return 0;
  }
  PortMask sent = 0;
  for (std::uint32_t out = 0; out < kNumPorts; ++out) {
    if ((request & (1u << out)) == 0) continue;
    if (out_[out].busy || !out_[out].ready) continue;  // skip, never wait
    // A sticky hold (open_input) means a granted packet is streaming; do
    // not splice early copies into its inter-flit gaps.
    if (out_[out].open_input >= 0) continue;
    transmit(flit, out);
    sent = static_cast<PortMask>(sent | (1u << out));
  }
  if (sent != 0) {
    record_op(noc::NodeOp::kBroadcast);
  }
  return sent;
}

void MeshRouter::transmit(const noc::Flit& flit, std::uint32_t out) {
  OutputState& output_state = out_[out];
  SPECNOC_ASSERT(!output_state.busy && output_state.ready);
  output_state.busy = true;
  ++output_state.grant_epoch;
  output(out).send(flit);
  output_state.ready = false;
  sched().schedule(nodes::disciplined_delay(chars_->fwd_body + chars_->ack_delay,
                                            chars_->clock_period,
                                            sched().now()),
                   [this, out] {
                     out_[out].ready = true;
                     try_serve(out);
                   });
}

void MeshRouter::throttle(const noc::Flit& flit, std::uint32_t port) {
  record_op(noc::NodeOp::kThrottle);
  record_kill(flit);
  ++throttled_;
  ack_input(port);
}

void MeshRouter::enqueue(const noc::Flit& flit, std::uint32_t port,
                         PortMask needed) {
  InputState& in = in_[port];
  SPECNOC_ASSERT(in.channel_busy);
  SPECNOC_ASSERT(in.fifo.size() < buffer_capacity_);
  record_op(std::popcount(needed) > 1 ? noc::NodeOp::kBroadcast
                                      : noc::NodeOp::kRouteForward);
  in.fifo.push_back({flit, arrival_seq_++, needed});
  if (in.fifo.size() < buffer_capacity_) {
    ack_input(port);
  } else {
    in.ack_deferred = true;
  }
  for (std::uint32_t out = 0; out < kNumPorts; ++out) {
    if (needed & (1u << out)) {
      try_serve(out);
    }
  }
}

void MeshRouter::ack_input(std::uint32_t port) {
  sched().schedule(nodes::disciplined_delay(chars_->ack_delay,
                                            chars_->clock_period,
                                            sched().now()),
                   [this, port] {
                     SPECNOC_ASSERT(in_[port].channel_busy);
                     in_[port].channel_busy = false;
                     input(port).ack();
                   });
}

bool MeshRouter::head_needs(std::uint32_t in, std::uint32_t out) const {
  const InputState& input_state = in_[in];
  return !input_state.fifo.empty() &&
         (input_state.fifo.front().needed & (1u << out)) != 0;
}

void MeshRouter::try_serve(std::uint32_t out) {
  OutputState& output_state = out_[out];
  if (output_state.busy || !output_state.ready) return;
  if (output_state.open_input >= 0) {
    const auto owner = static_cast<std::uint32_t>(output_state.open_input);
    if (head_needs(owner, out)) {
      send_part(owner, out);
      return;
    }
    // Hold the output for the open packet's next flit, bounded by the
    // watchdog (multicast lockstep can starve it permanently otherwise).
    if (!output_state.watchdog_armed) {
      output_state.watchdog_armed = true;
      const std::uint64_t epoch = output_state.grant_epoch;
      sched().schedule(sticky_timeout_, [this, out, epoch] {
        OutputState& os = out_[out];
        os.watchdog_armed = false;
        if (os.grant_epoch == epoch && os.open_input >= 0) {
          os.open_input = -1;
          record_watchdog_release();
        }
        try_serve(out);
      });
    }
    return;
  }
  // No open packet on this output: FCFS among heads that need it.
  int pick = -1;
  std::uint64_t best = 0;
  for (std::uint32_t in = 0; in < kNumPorts; ++in) {
    if (!head_needs(in, out)) continue;
    const std::uint64_t seq = in_[in].fifo.front().seq;
    if (pick < 0 || seq < best) {
      pick = static_cast<int>(in);
      best = seq;
    }
  }
  if (pick >= 0) {
    send_part(static_cast<std::uint32_t>(pick), out);
  }
}

void MeshRouter::send_part(std::uint32_t in, std::uint32_t out) {
  InputState& input_state = in_[in];
  OutputState& output_state = out_[out];
  SPECNOC_ASSERT(!output_state.busy && output_state.ready);
  SPECNOC_ASSERT(head_needs(in, out));
  BufferedFlit& head = input_state.fifo.front();
  const noc::Flit flit = head.flit;

  record_op(noc::NodeOp::kArbitrate);
  for (std::uint32_t other = 0; other < kNumPorts; ++other) {
    if (other != in && head_needs(other, out)) {
      record_contended_grant();
      break;
    }
  }
  transmit(flit, out);

  // Sticky open/close per output.
  if (flit.is_header() && !noc::closes_packet(flit)) {
    output_state.open_input = static_cast<int>(in);
  } else if (noc::closes_packet(flit) &&
             output_state.open_input == static_cast<int>(in)) {
    output_state.open_input = -1;
  }

  head.needed = static_cast<PortMask>(head.needed & ~(1u << out));
  if (head.needed == 0) {
    input_state.fifo.pop_front();
    if (input_state.ack_deferred) {
      input_state.ack_deferred = false;
      ack_input(in);
    }
    // The next head may be waiting for outputs that are currently idle.
    if (!input_state.fifo.empty()) {
      const PortMask dirs = input_state.fifo.front().needed;
      for (std::uint32_t o = 0; o < kNumPorts; ++o) {
        if ((dirs & (1u << o)) && o != out) {
          try_serve(o);
        }
      }
    }
  }

}

void MeshRouter::on_output_ack(std::uint32_t out_port) {
  SPECNOC_EXPECTS(out_port < kNumPorts);
  SPECNOC_ASSERT(out_[out_port].busy);
  out_[out_port].busy = false;
  try_serve(out_port);
}

SpecMeshRouter::SpecMeshRouter(sim::Scheduler& scheduler,
                               noc::SimHooks& hooks,
                               const nodes::NodeCharacteristics& chars,
                               const MeshTopology& topology,
                               std::uint32_t router_id,
                               std::uint32_t input_buffer_flits,
                               TimePs sticky_timeout,
                               TimePs speculation_latency)
    : MeshRouter(scheduler, hooks, noc::NodeKind::kMeshRouterSpec, chars,
                 topology, router_id, input_buffer_flits, sticky_timeout),
      speculation_latency_(speculation_latency) {
  SPECNOC_EXPECTS(speculation_latency > 0);
}

PortMask SpecMeshRouter::speculative_ports(const noc::Flit&,
                                           std::uint32_t in_port) const {
  // Every connected mesh direction except the arrival side; the Local
  // ejection port is never speculated on (mesh paths are not unique, so
  // membership-based ejection would deliver duplicates — see class
  // comment).
  PortMask mask = 0;
  for (const Port port :
       {Port::kNorth, Port::kEast, Port::kSouth, Port::kWest}) {
    if (static_cast<std::uint32_t>(port) == in_port) continue;
    if (topology().has_neighbor(router_id(), port)) {
      mask |= port_bit(port);
    }
  }
  return mask;
}

}  // namespace specnoc::mesh
