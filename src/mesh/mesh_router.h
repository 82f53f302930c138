// 5-port XY wormhole mesh router with dimension-ordered tree multicast.
//
// Each input port has a small asynchronous FIFO; each output port has its
// own arbiter with the same discipline as the MoT fanin node: packet-sticky
// (a granted packet streams contiguously and holds the output through
// inter-flit gaps) with a watchdog-bounded hold for deadlock recovery —
// dimension-ordered routing makes *unicast* deadlock-free, but multicast
// replication couples branches through the fork, exactly as in the MoT
// networks (see nodes/fanin_node.h and DESIGN.md).
//
// A multicast flit may need several outputs (East/West continuation plus
// North/South/Local branches at its column); the flit leaves its input FIFO
// once every required output has accepted a copy.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <string>

#include "mesh/mesh_topology.h"
#include "noc/channel.h"
#include "noc/node.h"
#include "noc/packet.h"
#include "nodes/characteristics.h"

namespace specnoc::mesh {

class MeshRouter : public noc::Node {
 public:
  /// Keeps a pointer to `chars`, which must outlive the router (builders
  /// pass the interned value; see nodes::intern_characteristics).
  MeshRouter(sim::Scheduler& scheduler, noc::SimHooks& hooks,
             const nodes::NodeCharacteristics& chars,
             const MeshTopology& topology, std::uint32_t router_id,
             std::uint32_t input_buffer_flits = 2,
             TimePs sticky_timeout = 900);

  void deliver(const noc::Flit& flit, std::uint32_t in_port) final;
  void on_output_ack(std::uint32_t out_port) final;

  std::uint32_t router_id() const { return id_; }

  /// "r<x>,<y>" from the router's coordinates; "sr<x>,<y>" when
  /// speculative.
  std::string name() const override;
  /// The port's direction name ("r1,2>east").
  std::string output_port_name(std::uint32_t port) const override;

  /// Introspection for tests.
  std::size_t buffered(std::uint32_t port) const {
    return in_[port].fifo.size();
  }
  std::uint64_t throttled_flits() const { return throttled_; }

 protected:
  /// Kind override + policy hooks for the speculative variant.
  MeshRouter(sim::Scheduler& scheduler, noc::SimHooks& hooks,
             noc::NodeKind kind, const nodes::NodeCharacteristics& chars,
             const MeshTopology& topology, std::uint32_t router_id,
             std::uint32_t input_buffer_flits, TimePs sticky_timeout);

  /// Which outputs this flit takes (empty = misrouted: consume + ack).
  /// The default (non-speculative) router accepts a flit only when it
  /// arrived over its packet's unique XY-tree parent edge (or from the
  /// local NI), and forwards along the tree — which both implements normal
  /// XY routing and throttles any redundant copies created by speculative
  /// neighbors one hop away.
  virtual PortMask compute_needed(const noc::Flit& flit,
                                  std::uint32_t in_port) const;

  /// Opportunistic-speculation hook: ports to attempt an early copy on,
  /// `speculation_latency()` after delivery, sent only where the output is
  /// idle at that instant (never waited on — see SpecMeshRouter). Ports
  /// covered by an early copy are deducted from the flit's `needed` set.
  virtual PortMask speculative_ports(const noc::Flit& flit,
                                     std::uint32_t in_port) const;
  virtual TimePs speculation_latency() const { return 0; }

  /// True when the flit's arrival edge is its packet's XY-tree parent edge
  /// at this router (always true for local injections).
  bool valid_tree_arrival(const noc::Flit& flit, std::uint32_t in_port) const;

  const MeshTopology& topology() const { return topology_; }
  const nodes::NodeCharacteristics& characteristics() const {
    return *chars_;
  }

 private:
  struct BufferedFlit {
    noc::Flit flit;
    std::uint64_t seq;
    PortMask needed;  ///< outputs this flit must still be sent on
  };

  struct InputState {
    bool channel_busy = false;
    bool ack_deferred = false;
    PortMask spec_sent = 0;       ///< early copies issued for the entry flit
    bool spec_window_open = false;  ///< entry flit not yet processed
    std::deque<BufferedFlit> fifo;
  };

  struct OutputState {
    bool busy = false;         ///< flit in flight, downstream not acked
    bool ready = true;         ///< crossbar/arbiter recovery done
    int open_input = -1;       ///< sticky packet hold
    bool watchdog_armed = false;
    std::uint64_t grant_epoch = 0;
  };

  void enqueue(const noc::Flit& flit, std::uint32_t port, PortMask needed);
  void throttle(const noc::Flit& flit, std::uint32_t port);
  void ack_input(std::uint32_t port);
  void try_serve(std::uint32_t out);
  void send_part(std::uint32_t in, std::uint32_t out);
  /// True if input `in`'s head still needs output `out`.
  bool head_needs(std::uint32_t in, std::uint32_t out) const;
  /// Fires an early copy on every requested output that is idle right now;
  /// returns the set actually sent. Skipped entirely while the input has
  /// a backlog (prevents intra-packet reordering).
  PortMask fire_speculative(const noc::Flit& flit, std::uint32_t in_port,
                            PortMask request);
  /// Raw transmit on an idle output (shared by speculative and granted
  /// sends): marks it busy and schedules the recovery timer.
  void transmit(const noc::Flit& flit, std::uint32_t out);

  const MeshTopology& topology_;
  std::uint32_t id_;
  const nodes::NodeCharacteristics* chars_;  ///< interned, shared
  std::uint32_t buffer_capacity_;
  TimePs sticky_timeout_;
  std::array<InputState, kNumPorts> in_;
  std::array<OutputState, kNumPorts> out_;
  std::uint64_t arrival_seq_ = 0;
  std::uint64_t throttled_ = 0;
};

/// Speculative mesh router — local speculation carried to the 2D mesh (the
/// paper's future work), in the form that path-diverse topologies admit:
/// *opportunistic* speculation.
///
/// A short sub-cycle path (speculation_latency, default 150 ps — the MoT
/// speculative node's class) fires a copy of every arriving flit on every
/// connected mesh port except its arrival side, but only where the output
/// is idle at that instant; busy ports are simply skipped. In parallel the
/// conventional path (fwd latency) computes the packet's true XY-tree
/// directions; tree ports already covered by an early copy are done, and
/// only uncovered tree ports are waited on. Redundant early copies are
/// throttled one hop away by the surrounding non-speculative routers
/// (placement must keep speculative routers non-adjacent — validated by
/// MeshNetwork).
///
/// Why not the MoT's pure "always broadcast and wait for all outputs"
/// (C-element) design: on the MoT each fanout tree is a per-source,
/// acyclic, otherwise-idle resource, so waiting on both outputs is safe.
/// On a mesh, (a) waiting on *all* ports couples a flit's progress to
/// channels outside the XY turn model, closing buffer-wait cycles — we
/// observed hard deadlock within microseconds under multicast load; and
/// (b) mesh paths are not unique, so a sideways redundant copy can re-enter
/// a packet's multicast tree and duplicate deliveries unless ejection keeps
/// the conventional tree-edge check. Opportunistic speculation keeps the
/// paper's sub-cycle early-forwarding benefit in the common (uncongested)
/// case while inheriting the plain mesh's deadlock-freedom — a genuine
/// finding of carrying local speculation off the MoT (see DESIGN.md).
class SpecMeshRouter final : public MeshRouter {
 public:
  SpecMeshRouter(sim::Scheduler& scheduler, noc::SimHooks& hooks,
                 const nodes::NodeCharacteristics& chars,
                 const MeshTopology& topology, std::uint32_t router_id,
                 std::uint32_t input_buffer_flits = 2,
                 TimePs sticky_timeout = 900,
                 TimePs speculation_latency = 150);

 protected:
  PortMask speculative_ports(const noc::Flit& flit,
                             std::uint32_t in_port) const override;
  TimePs speculation_latency() const override {
    return speculation_latency_;
  }

 private:
  TimePs speculation_latency_;
};

}  // namespace specnoc::mesh
