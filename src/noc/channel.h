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

/// 96 bytes per channel, which at 32-byte alignment always span exactly two
/// cache lines (pinned in tests/nodes/footprint_test.cpp). The shared
/// record sits behind one pointer; hooks, schedulers and port numbers come
/// from the endpoint nodes (both hold the same hooks). Each half keeps one
/// 16-bit word of flags and the other half's lane, so a split channel's
/// mail never reads the far node; the words, the in-flight credit count
/// and the mail key fill the ring's tail padding and the word after it.
class alignas(32) Channel {
 public:
  /// Keeps a pointer to `spec`, which must outlive the channel.
  explicit Channel(const ChannelSpec& spec);
  Channel(const Channel&) = delete;
  Channel& operator=(const Channel&) = delete;

  /// Lanes are stored in 13 bits; Network::enable_partitions rejects more.
  static constexpr std::uint32_t kMaxLanes = 1u << 13;

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

  /// Flits currently inside the channel (queued or delivered-unacked).
  std::uint32_t occupancy() const;

  /// Introspection (tests, deadlock diagnostics).
  bool awaiting_node_ack() const {
    return (down_word_ & kAwaitingNodeAck) != 0;
  }

  /// Splits the channel across a partition boundary: the upstream half
  /// (send/credit accounting) runs on the upstream node's lane, which must
  /// be a lane of a sim::PartitionedScheduler, and delivery on the
  /// downstream node's, whose partition differs (it may be connected
  /// later). Flits and downstream acks travel as sim::Mail keyed 2 *
  /// `index` and 2 * `index` + 1; `index` is the channel's position among
  /// its network's cross channels in channels() order, so that order is
  /// the canonical cross-partition merge order. Must be called after
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
  std::uint32_t mail_key() const { return mail_key_; }

  /// sim::MailHandler for cross-channel mail: a flit arriving at the
  /// downstream half, or a credit arriving at the upstream half.
  static void apply_mail(const sim::Mail& mail);

 private:
  struct QueuedFlit {
    Flit flit;
    TimePs ready_at;  ///< when it reaches the far end of the wire
  };

  // The two halves of a split channel run on different workers, so each
  // owns one 16-bit word: the build-time cross bit, two flags, and above
  // them the lane of the other half, which consumes the mail it posts.
  static constexpr std::uint16_t kCross = 1u << 0;
  // up_word_: the upstream has not been re-acked yet; the last send
  // filled the pipe to capacity.
  static constexpr std::uint16_t kSendOutstanding = 1u << 1;
  static constexpr std::uint16_t kStalled = 1u << 2;
  // down_word_: a delivery event is pending for the head; a flit is at
  // the node, not yet acked.
  static constexpr std::uint16_t kHeadScheduled = 1u << 1;
  static constexpr std::uint16_t kAwaitingNodeAck = 1u << 2;
  static constexpr unsigned kLaneShift = 3;

  static void set(std::uint16_t& word, std::uint16_t bits) {
    word = static_cast<std::uint16_t>(word | bits);
  }
  static void clear(std::uint16_t& word, std::uint16_t bits) {
    word = static_cast<std::uint16_t>(word & ~bits);
  }

  // Each takes the lane it runs on from its caller, whose node is hot.
  void try_deliver(sim::Scheduler& down);
  void release_upstream(sim::Scheduler& up);
  void post(sim::Scheduler& lane, std::uint32_t producer,
            std::uint32_t consumer, std::uint32_t key, TimePs time,
            const Flit& flit);
  void send_cross(sim::Scheduler& lane, const Flit& flit);
  void apply_credit(TimePs when);

  const ChannelSpec* spec_;  ///< shared per (class, params)
  Node* up_ = nullptr;
  Node* down_ = nullptr;

  /// In-flight flits; never holds more than params().capacity entries (the
  /// send()/credit preconditions bound occupancy), so the default capacity-2
  /// pipelines stay heap-free. Its 2 bytes of tail padding hold down_word_.
  [[no_unique_address]] util::BoundedRing<QueuedFlit, 2> queue_;
  /// kCross, kHeadScheduled, kAwaitingNodeAck; the upstream lane.
  std::uint16_t down_word_ = 0;
  /// kCross, kSendOutstanding, kStalled; the downstream lane.
  std::uint16_t up_word_ = 0;

  // Split-channel state (a third of the channels at radix 1024 cross
  // lanes: every MoT middle channel whose trees sit on different lanes).
  // The upstream lane owns up_word_, in_flight_ and the pending release,
  // kept in kStalled/stall_start_ (the send that found the pipe full and
  // when); the downstream lane owns queue_, down_word_ and the delivery
  // handshake.
  /// Flits sent whose credit is not applied (<= capacity <= 65535).
  std::uint16_t in_flight_ = 0;
  std::uint32_t mail_key_ = 0;  ///< forward mail key; credits use +1
  TimePs stall_start_ = 0;  ///< when the pipe went full
};

}  // namespace specnoc::noc
