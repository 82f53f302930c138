// A point-to-point 2-phase bundled-data channel, optionally pipelined.
//
// capacity == 1 models a plain wire segment between two latches: one
// transaction outstanding; send() raises req, the flit arrives downstream
// after the forward wire delay, and the channel frees only after the
// downstream node acks and the ack edge travels back. Per-hop cycle time is
// then node forward latency + ack generation + round-trip wire delay — the
// throughput-limiting quantity in the paper's asynchronous pipelines.
//
// capacity > 1 models a long wire pipelined with asynchronous latch FIFOs
// (standard GALS practice for cross-die channels; the MoT "middle" channels
// between fanout and fanin leaves are built this way). The channel then
// accepts up to `capacity` flits; the upstream ack is returned as soon as a
// slot remains. Giving middle channels >= packet-length capacity is also
// what makes parallel multicast deadlock-free: a branch blocked at a fanin
// arbiter absorbs its whole packet, so replicated branches never hold the
// fanout fork hostage while waiting for each other's fanin locks
// (see DESIGN.md "Multicast deadlock freedom").
//
// A channel whose endpoints sit on different lanes of a partitioned network
// is split (make_cross_partition): the upstream half counts credits on the
// upstream lane, the downstream half delivers on the downstream lane, and
// each flit or ack crossing between them is one sim::Mail. Mail posted in
// a window is applied after the window's first barrier, by the worker that
// owns the receiving lane, in key order (sim::PartitionedScheduler); the
// flit or credit then continues as ordinary events on that lane.
#pragma once

#include <cstdint>
#include <string>

#include "sim/scheduler.h"
#include "util/ring.h"
#include "util/units.h"
#include "noc/flit.h"
#include "noc/hooks.h"

namespace specnoc::sim {
struct Mail;
}  // namespace specnoc::sim

namespace specnoc::noc {

class Node;

/// Physical parameters of one channel.
struct ChannelParams {
  TimePs delay_fwd = 0;        ///< req/data wire delay end-to-end
  TimePs delay_ack = 0;        ///< ack wire delay (per handshake)
  LengthUm length = 0.0;       ///< wire length, for switching energy
  std::uint32_t capacity = 1;  ///< flits buffered in-flight (FIFO stages)

  friend bool operator==(const ChannelParams&,
                         const ChannelParams&) = default;
};

/// What channels share: physical parameters and the metrics aggregation
/// class. A MoT has at most one distinct (class, params) pair per class
/// and tree level among millions of channels, so Network::add_channel
/// interns one record per pair (util::intern) and each channel holds a
/// pointer to it instead of a copy. The record must outlive every channel
/// that points to it.
struct ChannelSpec {
  ChannelParams params;
  ChannelClass klass = ChannelClass::kOther;

  friend bool operator==(const ChannelSpec&, const ChannelSpec&) = default;
};

/// Two cache lines per channel: the shared record behind one pointer,
/// 8-bit port numbers and a 16-bit-counter ring put the whole handshake
/// state in 128 bytes (pinned in tests/nodes/footprint_test.cpp). A
/// channel stores no hooks: it reaches its network's through whichever
/// endpoint node called it (both hold the same hooks).
class alignas(64) Channel {
 public:
  /// Keeps a pointer to `spec`, which must outlive the channel.
  Channel(sim::Scheduler& scheduler, const ChannelSpec& spec);
  Channel(const Channel&) = delete;
  Channel& operator=(const Channel&) = delete;

  /// Port numbers are stored in 8 bits.
  static constexpr std::uint32_t kMaxPorts = 256;

  /// Wires the channel between `up`'s output port and `down`'s input port
  /// (both below kMaxPorts).
  void connect(Node& up, std::uint32_t up_port, Node& down,
               std::uint32_t down_port);
  /// The two halves of connect(), for builders that wire a channel's ends
  /// at different times (possibly on different threads, ordered by a
  /// join): each writes only the channel and its own endpoint node.
  void connect_upstream(Node& up, std::uint32_t up_port);
  void connect_downstream(Node& down, std::uint32_t down_port);

  /// True when the upstream node may send (previous send acked and a slot
  /// is available).
  bool free() const { return !send_outstanding_; }

  /// Launches a flit. Precondition: free() and connected.
  void send(const Flit& flit);

  /// Called by the downstream node when it has disposed of the delivered
  /// flit; frees the head slot.
  void ack();

  const ChannelParams& params() const { return spec_->params; }
  /// Display name for traces and diagnostics, derived from the class and
  /// the endpoints on every call (channels store no name): "src3->root",
  /// "root->dst5", "mid.s3.d5", "ni4>r", "r>ni4", and otherwise the
  /// upstream node's name, '>', and its output port's name ("fo3.l1i0>1",
  /// "fi5.l2i1>up", "r1,2>east"). An unconnected channel is named by its
  /// class.
  std::string name() const;
  /// Aggregation class, from the shared record.
  ChannelClass klass() const { return spec_->klass; }
  Node* upstream() const { return up_; }
  Node* downstream() const { return down_; }
  std::uint32_t upstream_port() const { return up_port_; }
  std::uint32_t downstream_port() const { return down_port_; }

  /// Flits currently inside the channel (queued or delivered-unacked).
  std::uint32_t occupancy() const;

  /// Introspection (tests, deadlock diagnostics).
  bool awaiting_node_ack() const { return awaiting_node_ack_; }

  /// Total flits that have traversed this channel (activity statistics).
  std::uint64_t flits_carried() const { return flits_carried_; }

  /// Splits the channel across a partition boundary: the upstream half
  /// (send/credit accounting) stays on the constructing scheduler, which
  /// must be lane `up_lane` of a sim::PartitionedScheduler, while delivery
  /// runs on `down_lane`. Flits and downstream acks travel as sim::Mail
  /// keyed 2 * `index` and 2 * `index` + 1; `index` is the channel's
  /// position among its network's cross channels in channels() order, so
  /// that order is the canonical cross-partition merge order. Must be
  /// called before any traffic flows.
  void make_cross_partition(std::uint32_t up_lane, std::uint32_t down_lane,
                            std::uint32_t index);
  bool cross_partition() const { return up_lane_ != down_lane_; }
  /// Key of the flit mail of a cross channel (its credits use key + 1);
  /// 0 on an intra-lane channel.
  std::uint32_t mail_key() const { return mail_key_; }

  /// sim::MailHandler for cross-channel mail: a flit arriving at the
  /// downstream half, or a credit arriving at the upstream half.
  static void apply_mail(const sim::Mail& mail);

 private:
  struct QueuedFlit {
    Flit flit;
    TimePs ready_at;  ///< when it reaches the far end of the wire
  };

  void try_deliver();
  void release_upstream();
  sim::Scheduler& down_sched() const;
  void post(std::uint32_t producer, std::uint32_t consumer, std::uint32_t key,
            TimePs time, const Flit& flit);
  void send_cross(const Flit& flit);
  void apply_credit(TimePs when);

  sim::Scheduler& scheduler_;
  const ChannelSpec* spec_;  ///< shared per (class, params)
  Node* up_ = nullptr;
  Node* down_ = nullptr;

  /// In-flight flits; never holds more than params().capacity entries (the
  /// send()/credit preconditions bound occupancy), so the default capacity-2
  /// pipelines stay heap-free.
  util::BoundedRing<QueuedFlit, 2> queue_;
  bool head_scheduled_ = false;    ///< delivery event pending for the head
  bool awaiting_node_ack_ = false; ///< a flit is at the node, not yet acked
  bool send_outstanding_ = false;  ///< upstream has not been re-acked yet
  bool stalled_ = false;           ///< last send filled the pipe to capacity
  std::uint8_t up_port_ = 0;       ///< both ports fit the padding after
  std::uint8_t down_port_ = 0;     ///< the bools (see kMaxPorts)
  TimePs stall_start_ = 0;         ///< when the pipe went full
  std::uint64_t flits_carried_ = 0;

  // Cross-partition state, inline (a third of the channels at radix 1024
  // cross lanes: every MoT middle channel whose trees sit on different
  // lanes). The upstream lane owns send_outstanding_, in_flight_ and the
  // pending release, kept in stalled_/stall_start_ (the send that found
  // the pipe full and when); the downstream lane owns queue_ and the
  // delivery handshake. Intra-lane channels keep both lanes equal.
  std::uint32_t up_lane_ = 0;
  std::uint32_t down_lane_ = 0;
  std::uint32_t mail_key_ = 0;   ///< forward mail key; credits use +1
  std::uint32_t in_flight_ = 0;  ///< flits sent whose credit is not applied
};

}  // namespace specnoc::noc
