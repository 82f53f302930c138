#include "noc/channel.h"

#include <algorithm>
#include <cstring>
#include <type_traits>
#include <utility>

#include "sim/partitioned_scheduler.h"
#include "noc/node.h"

namespace specnoc::noc {

const char* to_string(ChannelClass klass) {
  switch (klass) {
    case ChannelClass::kFanin: return "fanin";
    case ChannelClass::kFanout: return "fanout";
    case ChannelClass::kMeshEject: return "mesh_eject";
    case ChannelClass::kMeshHop: return "mesh_hop";
    case ChannelClass::kMeshInject: return "mesh_inject";
    case ChannelClass::kMiddle: return "middle";
    case ChannelClass::kOther: return "other";
    case ChannelClass::kSinkIf: return "sink_if";
    case ChannelClass::kSourceIf: return "source_if";
  }
  return "?";
}

Channel::Channel(const ChannelSpec& spec, bool pipe) : spec_(&spec) {
  SPECNOC_EXPECTS(spec.params.delay_fwd >= 0 && spec.params.delay_ack >= 0);
  SPECNOC_EXPECTS(spec.params.capacity >= 1);
  if (pipe) {
    set(down_word_, kPipe);
    set(up_word_, kPipe);
  }
}

WireChannel::WireChannel(const ChannelSpec& spec) : Channel(spec, false) {
  SPECNOC_EXPECTS(spec.params.capacity == 1);
}

PipeChannel::PipeChannel(const ChannelSpec& spec) : Channel(spec, true) {
  ring_.reserve(spec.params.capacity - 1);
}

PipeChannel& Channel::as_pipe() {
  return static_cast<PipeChannel&>(*this);
}

const PipeChannel& Channel::as_pipe() const {
  return static_cast<const PipeChannel&>(*this);
}

std::string Channel::name() const {
  if (up_ == nullptr) return to_string(klass());
  switch (klass()) {
    case ChannelClass::kSourceIf:
      return up_->name() + "->root";
    case ChannelClass::kSinkIf:
      return "root->" + down_->name();
    case ChannelClass::kMiddle:
      return "mid.s" + std::to_string(up_->site().tree) + ".d" +
             std::to_string(down_->site().tree);
    case ChannelClass::kMeshInject:
      return "ni" + std::to_string(down_->site().tree) + ">r";
    case ChannelClass::kMeshEject:
      return "r>ni" + std::to_string(up_->site().tree);
    default:
      return up_->name() + ">" + up_->output_port_name(upstream_port());
  }
}

void Channel::connect(Node& up, std::uint32_t up_port, Node& down,
                      std::uint32_t down_port) {
  connect_upstream(up, up_port);
  connect_downstream(down, down_port);
}

void Channel::connect_upstream(Node& up, std::uint32_t up_port) {
  SPECNOC_EXPECTS(up_ == nullptr && up.partition() < kMaxLanes);
  up_ = &up;
  set(down_word_, static_cast<std::uint16_t>(up.partition() << kLaneShift));
  up.attach_output(up_port, *this);
}

void Channel::connect_downstream(Node& down, std::uint32_t down_port) {
  SPECNOC_EXPECTS(down_ == nullptr);
  // A split channel's halves must sit on different lanes.
  SPECNOC_EXPECTS(!cross_partition() ||
                  down.partition() != up_->partition());
  SPECNOC_EXPECTS(down.partition() < kMaxLanes);
  down_ = &down;
  set(up_word_, static_cast<std::uint16_t>(down.partition() << kLaneShift));
  down.attach_input(down_port, *this);
}

void Channel::make_cross_partition(std::uint32_t index) {
  SPECNOC_EXPECTS(pipe() && !cross_partition() && occupancy() == 0 &&
                  free());
  SPECNOC_EXPECTS(up_ != nullptr && up_->lane().partitioned() != nullptr);
  SPECNOC_EXPECTS(down_ == nullptr ||
                  down_->partition() != up_->partition());
  set(up_word_, kCross);
  set(down_word_, kCross);
  as_pipe().mail_key_ = 2 * index;
}

std::uint32_t Channel::mail_key() const {
  return pipe() ? as_pipe().mail_key_ : 0;
}

std::uint32_t Channel::upstream_port() const {
  return up_->output_port_of(*this);
}

std::uint32_t Channel::downstream_port() const {
  return down_->input_port_of(*this);
}

std::uint32_t Channel::occupancy() const {
  const std::uint32_t head =
      (down_word_ & (kHeadScheduled | kAwaitingNodeAck)) != 0 ? 1 : 0;
  return head + (pipe() ? as_pipe().ring_.size() : 0);
}

void Channel::send(const Flit& flit) {
  SPECNOC_EXPECTS(down_ != nullptr);
  SPECNOC_EXPECTS(free());
  set(up_word_, kSendOutstanding);
  const ChannelSpec& spec = *spec_;
  // send() and apply_credit() run for the upstream node, on its lane, and
  // ack() for the downstream one; each reaches the hooks through its
  // caller.
  Node& up = *up_;
  sim::Scheduler& lane = up.lane();
  const TimePs now = lane.now();
  const SimHooks& hooks = up.hooks();
  if (hooks.energy != nullptr) {
    hooks.energy->on_channel_flit(spec.params.length, now);
  }
  if (cross_partition()) {
    as_pipe().send_cross(lane, flit);
    return;
  }
  const std::uint32_t occupied = occupancy() + 1;  // with this flit
  SPECNOC_EXPECTS(occupied <= spec.params.capacity);
  // If a slot remains behind this flit, the first FIFO stage hands the ack
  // straight back; otherwise the upstream waits for the head to drain.
  if (occupied < spec.params.capacity) {
    release_upstream(lane);
  } else {
    set(up_word_, kStalled);
    stall_start_ = now;
  }
  // An intra-lane channel delivers on the same lane.
  arrive(lane, flit, now + spec.params.delay_fwd);
}

void PipeChannel::post(sim::Scheduler& lane, std::uint32_t producer,
                       std::uint32_t consumer, std::uint32_t key,
                       TimePs time, const Flit& flit) {
  static_assert(std::is_trivially_copyable_v<Flit> &&
                sizeof(Flit) <= sizeof(sim::Mail::payload));
  sim::Mail mail;
  mail.target = static_cast<Channel*>(this);
  mail.time = time;
  mail.key = key;
  std::memcpy(mail.payload.data(), &flit, sizeof(Flit));
  lane.partitioned()->post(producer, consumer, mail);
}

void PipeChannel::send_cross(sim::Scheduler& lane, const Flit& flit) {
  const TimePs now = lane.now();
  const ChannelParams& params = spec_->params;
  // The producer lane is the (hot) upstream node's; the consumer's is
  // stored in this half's word.
  post(lane, up_->partition(), downstream_lane(), mail_key_,
       now + params.delay_fwd, flit);
  // Credit-counted mirror of the sequential occupancy check: the flit finds
  // a free FIFO slot iff fewer than `capacity` flits are in flight. Credits
  // from the current window are still in the mail; deferring the release
  // to the credit yields the identical release time
  // max(send, ack) + delay_ack either way.
  if (++in_flight_ < params.capacity) {
    release_upstream(lane);
  } else {
    SPECNOC_ASSERT((up_word_ & kStalled) == 0 &&
                   in_flight_ == params.capacity);
    set(up_word_, kStalled);
    stall_start_ = now;
  }
}

void Channel::apply_mail(const sim::Mail& mail) {
  PipeChannel& channel = static_cast<Channel*>(mail.target)->as_pipe();
  if (mail.key != channel.mail_key_) {
    channel.apply_credit(mail.time);
    return;
  }
  // A flit reaching the downstream half; it queues while an earlier flit
  // is still ahead of it.
  Flit flit;
  std::memcpy(&flit, mail.payload.data(), sizeof(Flit));
  channel.arrive(channel.down_->lane(), flit, mail.time);
}

void PipeChannel::apply_credit(TimePs when) {
  SPECNOC_ASSERT(in_flight_ > 0);
  --in_flight_;
  // Only a send that found the pipe full waits for a credit, and no other
  // send can follow it before its release, so the first credit frees it.
  if ((up_word_ & kStalled) == 0) return;
  clear(up_word_, kStalled);
  // The upstream genuinely stalled only if the freeing ack came after the
  // send. (A same-picosecond tie is counted as no stall; the sequential
  // kernel's answer would depend on intra-tick event order, which has no
  // cross-lane equivalent — see DESIGN.md.)
  MetricsObserver* metrics = up_->hooks().metrics;
  if (when > stall_start_ && metrics != nullptr) {
    metrics->on_channel_stall(*this, stall_start_, when);
  }
  const TimePs at = std::max(stall_start_, when) + spec_->params.delay_ack;
  SPECNOC_ASSERT(!free());
  up_->lane().schedule_at(at, [this] {
    clear(up_word_, kSendOutstanding);
    up_->on_output_ack(upstream_port());
  });
}

void Channel::arrive(sim::Scheduler& down, const Flit& flit,
                     TimePs ready_at) {
  if ((down_word_ & (kHeadScheduled | kAwaitingNodeAck)) == 0) {
    // Nothing ahead (so nothing queued either): the flit is the head.
    deliver_at(down, std::max(down.now(), ready_at), flit);
  } else {
    SPECNOC_ASSERT(pipe());  // a wire's send() waits for its head's ack
    as_pipe().ring_.push_back({flit, ready_at});
  }
}

void Channel::try_deliver(sim::Scheduler& down) {
  if ((down_word_ & (kHeadScheduled | kAwaitingNodeAck)) != 0 || !pipe()) {
    return;  // a head is in flight, or a wire: nothing queues behind it
  }
  util::BoundedRing<PipeChannel::QueuedFlit, 1>& ring = as_pipe().ring_;
  if (ring.empty()) return;
  const PipeChannel::QueuedFlit next = ring.front();
  ring.pop_front();
  deliver_at(down, std::max(down.now(), next.ready_at), next.flit);
}

void Channel::deliver_at(sim::Scheduler& down, TimePs at, const Flit& flit) {
  set(down_word_, kHeadScheduled);
  down.schedule_at(at, [this, flit] {
    SPECNOC_ASSERT((down_word_ & (kHeadScheduled | kAwaitingNodeAck)) ==
                   kHeadScheduled);
    clear(down_word_, kHeadScheduled);
    set(down_word_, kAwaitingNodeAck);
    down_->deliver(flit, downstream_port());
  });
}

void Channel::ack() {
  SPECNOC_EXPECTS(awaiting_node_ack());
  clear(down_word_, kAwaitingNodeAck);
  sim::Scheduler& lane = down_->lane();
  if ((down_word_ & kCross) != 0) {  // the downstream half's own copy
    // Every ack is a credit for the upstream half, applied after the
    // window by the upstream lane's worker.
    PipeChannel& pipe = as_pipe();
    pipe.post(lane, down_->partition(), upstream_lane(), pipe.mail_key_ + 1,
              lane.now(), Flit{});
  } else if (!free() && occupancy() + 1 == spec_->params.capacity) {
    // The upstream was stalled on a full pipe; this ack frees a slot.
    if ((up_word_ & kStalled) != 0) {
      clear(up_word_, kStalled);
      if (MetricsObserver* metrics = down_->hooks().metrics) {
        metrics->on_channel_stall(*this, stall_start_, lane.now());
      }
    }
    // An intra-lane channel's upstream runs on the same lane.
    release_upstream(lane);
  }
  try_deliver(lane);
}

void Channel::release_upstream(sim::Scheduler& up) {
  SPECNOC_ASSERT(!free());
  up.schedule(spec_->params.delay_ack, [this] {
    clear(up_word_, kSendOutstanding);
    up_->on_output_ack(upstream_port());
  });
}

}  // namespace specnoc::noc
