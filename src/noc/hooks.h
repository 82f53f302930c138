// Observation hooks: traffic accounting, switching-energy accounting, and
// speculation-mechanism metrics.
//
// The NoC layer emits events through these interfaces; the stats and power
// layers implement them. Hooks are nullable so bare simulations pay nothing.
#pragma once

#include <array>
#include <cstdint>
#include <initializer_list>
#include <string>
#include <vector>

#include "util/units.h"
#include "noc/flit.h"
#include "noc/packet.h"

namespace specnoc::noc {

class Channel;
class Node;

/// What kind of switch a node models; used to look up its characteristics
/// (area, latency, energy) and to label energy events.
enum class NodeKind : std::uint8_t {
  kSource,
  kSink,
  kFanoutBaseline,
  kFanoutSpeculative,
  kFanoutNonSpeculative,
  kFanoutOptSpeculative,
  kFanoutOptNonSpeculative,
  kFanin,
  kMeshRouter,  ///< 5-port XY router of the 2D-mesh comparison substrate
  kMeshRouterSpec,  ///< speculative mesh router (local speculation on mesh)
};

const char* to_string(NodeKind kind);

/// Inverse of to_string(NodeKind); throws ConfigError on unknown names.
NodeKind node_kind_from_string(const std::string& name);

/// Every NodeKind enumerator, in declaration order. Keep in sync with the
/// enum; tests/noc/enum_names_test.cpp fails when an enumerator is
/// missing here or in to_string().
constexpr std::array<NodeKind, 10> all_node_kinds() {
  return {NodeKind::kSource,
          NodeKind::kSink,
          NodeKind::kFanoutBaseline,
          NodeKind::kFanoutSpeculative,
          NodeKind::kFanoutNonSpeculative,
          NodeKind::kFanoutOptSpeculative,
          NodeKind::kFanoutOptNonSpeculative,
          NodeKind::kFanin,
          NodeKind::kMeshRouter,
          NodeKind::kMeshRouterSpec};
}

/// Aggregation class of a channel, given by the network builder that wires
/// it (in the noc::ChannelSpec it places the channel with). Enumerators are declared in the
/// alphabetical order of their to_string() names, the order metrics list
/// classes in.
enum class ChannelClass : std::uint8_t {
  kFanin,
  kFanout,
  kMeshEject,
  kMeshHop,
  kMeshInject,
  kMiddle,
  kOther,
  kSinkIf,
  kSourceIf,
};

/// "fanin", "fanout", "mesh_eject", ..., "source_if".
const char* to_string(ChannelClass klass);

/// Every ChannelClass enumerator, in declaration (= name) order.
constexpr std::array<ChannelClass, 9> all_channel_classes() {
  return {ChannelClass::kFanin,      ChannelClass::kFanout,
          ChannelClass::kMeshEject,  ChannelClass::kMeshHop,
          ChannelClass::kMeshInject, ChannelClass::kMiddle,
          ChannelClass::kOther,      ChannelClass::kSinkIf,
          ChannelClass::kSourceIf};
}

/// Structural position of a node inside its network, attached by the network
/// builder so observers can aggregate events by tree level. `level < 0`
/// means the node is not part of a levelled tree (network interfaces, mesh
/// routers).
struct NodeSite {
  std::uint32_t tree = 0;   ///< owning fanout/fanin tree, or mesh router id
  std::int32_t level = -1;  ///< tree level, 0 = root; -1 = unlevelled
  std::uint32_t index = 0;  ///< node index within its level
};

/// A switching operation inside a node. Energy cost = node base energy x an
/// op-specific activity factor (see power/energy_model.h).
enum class NodeOp : std::uint8_t {
  kRouteForward,   ///< route computation + forward on 1-2 channels (non-spec)
  kBroadcast,      ///< transparent broadcast on both channels (speculative)
  kFastForward,    ///< pre-allocated body/tail forward (opt non-spec)
  kThrottle,       ///< misrouted flit consumed and acked
  kArbitrate,      ///< fanin arbitration + forward
  kSourceSend,     ///< network-interface send
  kSinkConsume,    ///< network-interface receive
};

const char* to_string(NodeOp op);

/// Every NodeOp enumerator, in declaration order (see all_node_kinds()).
constexpr std::array<NodeOp, 7> all_node_ops() {
  return {NodeOp::kRouteForward, NodeOp::kBroadcast, NodeOp::kFastForward,
          NodeOp::kThrottle,     NodeOp::kArbitrate, NodeOp::kSourceSend,
          NodeOp::kSinkConsume};
}

/// Traffic-side events, implemented by the stats layer. SimHooks holds a
/// single traffic pointer; observers that want the stream too chain behind
/// one another (workload::TraceRecorder::set_downstream, for one).
class TrafficObserver {
 public:
  virtual ~TrafficObserver() = default;

  /// A flit was consumed by destination `dest` at time `when`.
  virtual void on_flit_ejected(const Packet& packet, std::uint32_t dest,
                               FlitKind kind, TimePs when) = 0;

  /// A packet's header left its source queue and entered the network.
  virtual void on_packet_injected(const Packet& packet, TimePs when) = 0;
};

/// Switching-activity events, implemented by the power layer.
class EnergyObserver {
 public:
  virtual ~EnergyObserver() = default;

  /// A node performed `op` on one flit.
  virtual void on_node_op(const Node& node, NodeOp op, TimePs when) = 0;

  /// One flit traversed a channel of the given wire length.
  virtual void on_channel_flit(LengthUm length, TimePs when) = 0;
};

/// Speculation-mechanism events, implemented by the metrics layer
/// (stats::MetricsRegistry, stats::PerfettoTracer). Every node event
/// carries the emitting node, whose kind() and site() key the aggregation.
///
/// Concurrency: unlike the traffic and energy streams, which a partitioned
/// run serializes behind one mutex, metrics calls are forwarded unlocked,
/// so during a multi-threaded partitioned run they may arrive concurrently
/// from different workers (sim::current_worker() names the caller's). An
/// observer attached to such a run must tolerate that, as
/// stats::MetricsRegistry does with per-worker shards. PerfettoTracer is
/// sequential-only: trace mode forces sim_threads = 1.
class MetricsObserver {
 public:
  virtual ~MetricsObserver() = default;

  /// A misrouted (redundant speculative) flit was consumed and acked — the
  /// paper's kill/throttle. Fires once per throttled flit.
  virtual void on_flit_killed(const Node& node, const Flit& flit,
                              TimePs when) = 0;

  /// An opt-node pre-allocation check: `hit` means a body/tail flit rode
  /// the channel its header already allocated (fast-forward path); a miss
  /// is the header itself doing the route computation. Speculative mesh
  /// routers reuse the event for flits whose route was fully covered by
  /// earlier speculative copies.
  virtual void on_prealloc(const Node& node, bool hit, TimePs when) = 0;

  /// An arbiter granted a flit while at least one other input was also
  /// waiting (the grant actually resolved contention).
  virtual void on_contended_grant(const Node& node, TimePs when) = 0;

  /// A packet-sticky arbiter hold was broken by the starvation watchdog.
  virtual void on_watchdog_release(const Node& node, TimePs when) = 0;

  /// The channel's upstream was backpressure-stalled from `start` to `end`:
  /// a send filled the pipe to capacity and the upstream had to wait for
  /// the ack that freed a slot. On a cross-partition channel the call comes
  /// when that ack's credit mail is applied after its window, on the worker
  /// thread that owns the credit's consumer lane (the channel's upstream
  /// lane), while other workers apply their own mail.
  virtual void on_channel_stall(const Channel& channel, TimePs start,
                                TimePs end) = 0;
};

/// Fans one metrics-event stream out to several observers, in registration
/// order (deterministic: observers always see events in the same order).
/// SimHooks holds a single metrics pointer; point it at a tee when more
/// than one consumer wants the stream — e.g. a stats::MetricsRegistry
/// aggregating run totals while a stats::TelemetrySampler slices the same
/// events into time epochs.
class TeeMetricsObserver final : public MetricsObserver {
 public:
  TeeMetricsObserver() = default;
  TeeMetricsObserver(std::initializer_list<MetricsObserver*> observers)
      : observers_(observers) {}

  void add(MetricsObserver* observer) { observers_.push_back(observer); }

  void on_flit_killed(const Node& node, const Flit& flit,
                      TimePs when) override {
    for (MetricsObserver* observer : observers_) {
      observer->on_flit_killed(node, flit, when);
    }
  }

  void on_prealloc(const Node& node, bool hit, TimePs when) override {
    for (MetricsObserver* observer : observers_) {
      observer->on_prealloc(node, hit, when);
    }
  }

  void on_contended_grant(const Node& node, TimePs when) override {
    for (MetricsObserver* observer : observers_) {
      observer->on_contended_grant(node, when);
    }
  }

  void on_watchdog_release(const Node& node, TimePs when) override {
    for (MetricsObserver* observer : observers_) {
      observer->on_watchdog_release(node, when);
    }
  }

  void on_channel_stall(const Channel& channel, TimePs start,
                        TimePs end) override {
    for (MetricsObserver* observer : observers_) {
      observer->on_channel_stall(channel, start, end);
    }
  }

 private:
  std::vector<MetricsObserver*> observers_;
};

/// Bundle handed to every node and channel at construction.
struct SimHooks {
  TrafficObserver* traffic = nullptr;
  EnergyObserver* energy = nullptr;
  MetricsObserver* metrics = nullptr;
};

}  // namespace specnoc::noc
