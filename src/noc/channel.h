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
// is a PipeChannel split in two (make_cross_partition): the upstream half
// counts credits on the upstream lane, the downstream half delivers on the
// downstream lane, and each flit or ack crossing between them is one
// sim::Mail. Mail posted in a window is applied after the window's first
// barrier, by the worker that owns the receiving lane, in key order
// (sim::PartitionedScheduler); the flit or credit then continues as
// ordinary events on that lane.
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
/// and tree level among millions of channels, so a network builder
/// interns one record per pair (util::intern) and each channel holds a
/// pointer to it instead of a copy. The record must outlive every channel
/// that points to it.
struct ChannelSpec {
  ChannelParams params;
  ChannelClass klass = ChannelClass::kOther;

  friend bool operator==(const ChannelSpec&, const ChannelSpec&) = default;
};

class PipeChannel;

/// The handshake protocol every channel runs, over the 40-byte core both
/// layouts share: the spec, the endpoints, the stall start and the two
/// 16-bit words. A channel is one of two exact-fit layouts (pinned in
/// tests/nodes/footprint_test.cpp), chosen by noc::Network:
///
///   * WireChannel, 64 bytes, one cache line: the core alone. A plain
///     wire segment (capacity 1) between two nodes of one lane.
///   * PipeChannel, 96 bytes at 32-byte alignment: the core, the mail key,
///     the in-flight credit count and a ring of capacity - 1 queued flits.
///     Every other link: pipelined ones and those that cross lanes.
///
/// A flit's delivery event carries the flit (`[this, flit]`, 24 bytes of
/// an event's 32), so only the flits behind the head wait in the ring and
/// a wire needs none. The head cannot change between the event's
/// scheduling and its firing, which makes this the same protocol as
/// queueing the head until it fires. Which layout a channel has is one
/// bit in its words; send(), ack() and delivery are one code path for
/// both.
///
/// Hooks, schedulers and port numbers come from the endpoint nodes (both
/// hold the same hooks). Each half keeps one 16-bit word of flags and the
/// other half's lane, so a split channel's mail never reads the far node.
class Channel {
 public:
  Channel(const Channel&) = delete;
  Channel& operator=(const Channel&) = delete;

  /// Lanes are stored in 12 bits; Network::enable_partitions rejects more.
  /// That covers one lane per tree at the largest radix (kMaxEndpoints).
  static constexpr std::uint32_t kMaxLanes = 1u << 12;

  /// Wires the channel between `up`'s output port and `down`'s input port
  /// (each endpoint's partition below kMaxLanes).
  void connect(Node& up, std::uint32_t up_port, Node& down,
               std::uint32_t down_port);
  /// The two halves of connect(), for builders that wire a channel's ends
  /// at different times (possibly on different threads, ordered by a
  /// join): each writes only the channel and its own endpoint node.
  void connect_upstream(Node& up, std::uint32_t up_port);
  void connect_downstream(Node& down, std::uint32_t down_port);

  /// True when the upstream node may send (previous send acked and a slot
  /// is available).
  bool free() const { return (up_word_ & kSendOutstanding) == 0; }

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
  /// The endpoints' ports, found in their port tables.
  std::uint32_t upstream_port() const;
  std::uint32_t downstream_port() const;

  /// True for the PipeChannel layout.
  bool pipe() const { return (down_word_ & kPipe) != 0; }

  /// Flits currently inside the channel: the queued ones, plus the head
  /// while its delivery is scheduled or it awaits the node's ack.
  std::uint32_t occupancy() const;

  /// Introspection (tests, deadlock diagnostics).
  bool awaiting_node_ack() const {
    return (down_word_ & kAwaitingNodeAck) != 0;
  }

  /// Splits a pipe across a partition boundary (a wire cannot be split):
  /// the upstream half (send/credit accounting) runs on the upstream
  /// node's lane, which must be a lane of a sim::PartitionedScheduler, and
  /// delivery on the downstream node's, whose partition differs (it may be
  /// connected later). Flits and downstream acks travel as sim::Mail keyed
  /// 2 * `index` and 2 * `index` + 1; `index` is the channel's position
  /// among its network's cross channels in channels() order, so that order
  /// is the canonical cross-partition merge order. Must be called after
  /// connect_upstream() and before any traffic flows.
  void make_cross_partition(std::uint32_t index);
  bool cross_partition() const { return (up_word_ & kCross) != 0; }
  /// Lanes of the two halves: copies of the endpoints' partitions (equal
  /// unless the channel is split), kept so that neither half reads the
  /// far node during a run. Each is stored in the other half's word, so
  /// during a partitioned run only that half may read it.
  std::uint32_t upstream_lane() const { return down_word_ >> kLaneShift; }
  std::uint32_t downstream_lane() const { return up_word_ >> kLaneShift; }
  /// Key of the flit mail of a cross channel (its credits use key + 1);
  /// 0 on an intra-lane channel.
  std::uint32_t mail_key() const;

  /// sim::MailHandler for cross-channel mail: a flit arriving at the
  /// downstream half, or a credit arriving at the upstream half.
  static void apply_mail(const sim::Mail& mail);

 protected:
  /// Keeps a pointer to `spec`, which must outlive the channel. `pipe`
  /// tells the derived layout.
  Channel(const ChannelSpec& spec, bool pipe);
  ~Channel() = default;

 private:
  friend class PipeChannel;

  // The two halves of a split channel run on different workers, so each
  // owns one 16-bit word: the build-time cross and layout bits, two
  // flags, and above them the lane of the other half, which consumes the
  // mail it posts.
  static constexpr std::uint16_t kCross = 1u << 0;
  static constexpr std::uint16_t kPipe = 1u << 1;
  // up_word_: the upstream has not been re-acked yet; the last send
  // filled the pipe to capacity.
  static constexpr std::uint16_t kSendOutstanding = 1u << 2;
  static constexpr std::uint16_t kStalled = 1u << 3;
  // down_word_: a delivery event carries the head; the head is at the
  // node, not yet acked.
  static constexpr std::uint16_t kHeadScheduled = 1u << 2;
  static constexpr std::uint16_t kAwaitingNodeAck = 1u << 3;
  static constexpr unsigned kLaneShift = 4;
  static_assert(kMaxLanes << kLaneShift == 1u << 16);

  static void set(std::uint16_t& word, std::uint16_t bits) {
    word = static_cast<std::uint16_t>(word | bits);
  }
  static void clear(std::uint16_t& word, std::uint16_t bits) {
    word = static_cast<std::uint16_t>(word & ~bits);
  }

  /// This channel as the pipe it is: the caller has seen kPipe or kCross
  /// in the word its half owns (the halves of a split pipe run on
  /// different workers, so neither reads the other's word).
  PipeChannel& as_pipe();
  const PipeChannel& as_pipe() const;

  // Each takes the lane it runs on from its caller, whose node is hot.
  /// A flit reaching the downstream end at `ready_at`: it becomes the head
  /// if nothing is ahead of it, and queues in the ring otherwise.
  void arrive(sim::Scheduler& down, const Flit& flit, TimePs ready_at);
  /// Makes the next queued flit the head, unless a head is in flight.
  void try_deliver(sim::Scheduler& down);
  void deliver_at(sim::Scheduler& down, TimePs at, const Flit& flit);
  void release_upstream(sim::Scheduler& up);

  const ChannelSpec* spec_;  ///< shared per (class, params)
  Node* up_ = nullptr;
  Node* down_ = nullptr;
  /// When the pipe went full; owned by the upstream half.
  TimePs stall_start_ = 0;
  /// kCross, kPipe, kHeadScheduled, kAwaitingNodeAck; the upstream lane.
  std::uint16_t down_word_ = 0;
  /// kCross, kPipe, kSendOutstanding, kStalled; the downstream lane.
  std::uint16_t up_word_ = 0;
};

/// A plain wire segment: capacity 1, both ends on one lane. Holds nothing
/// beyond the core; one cache line.
class alignas(64) WireChannel final : public Channel {
 public:
  /// `spec` must have capacity 1 (and outlive the channel).
  explicit WireChannel(const ChannelSpec& spec);
};

/// A pipelined link (capacity > 1), or any link whose ends sit on
/// different lanes. Its two halves own disjoint state: the upstream lane
/// the in-flight count (and the core's up word and stall start), the
/// downstream lane the ring (and the down word).
class alignas(32) PipeChannel final : public Channel {
 public:
  /// Keeps a pointer to `spec`, which must outlive the channel.
  explicit PipeChannel(const ChannelSpec& spec);

 private:
  friend class Channel;

  struct QueuedFlit {
    Flit flit;
    TimePs ready_at;  ///< when it reaches the far end of the wire
  };

  void post(sim::Scheduler& lane, std::uint32_t producer,
            std::uint32_t consumer, std::uint32_t key, TimePs time,
            const Flit& flit);
  void send_cross(sim::Scheduler& lane, const Flit& flit);
  void apply_credit(TimePs when);

  /// Forward mail key of a cross channel (credits use + 1); it fills the
  /// core's tail padding.
  std::uint32_t mail_key_ = 0;
  /// Flits sent whose credit is not applied (<= capacity <= 65535).
  std::uint16_t in_flight_ = 0;
  /// Flits behind the head, never more than capacity - 1 (the send() and
  /// credit preconditions bound occupancy), so the default capacity-2
  /// pipes stay heap-free.
  util::BoundedRing<QueuedFlit, 1> ring_;
};

}  // namespace specnoc::noc
