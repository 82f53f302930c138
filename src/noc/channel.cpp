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

Channel::Channel(sim::Scheduler& scheduler, const ChannelSpec& spec)
    : scheduler_(scheduler), spec_(&spec) {
  SPECNOC_EXPECTS(spec.params.delay_fwd >= 0 && spec.params.delay_ack >= 0);
  SPECNOC_EXPECTS(spec.params.capacity >= 1);
  queue_.reserve(spec.params.capacity);
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
      return up_->name() + ">" + up_->output_port_name(up_port_);
  }
}

void Channel::connect(Node& up, std::uint32_t up_port, Node& down,
                      std::uint32_t down_port) {
  connect_upstream(up, up_port);
  connect_downstream(down, down_port);
}

void Channel::connect_upstream(Node& up, std::uint32_t up_port) {
  SPECNOC_EXPECTS(up_ == nullptr && up_port < kMaxPorts);
  up_ = &up;
  up_port_ = static_cast<std::uint8_t>(up_port);
  up.attach_output(up_port, *this);
}

void Channel::connect_downstream(Node& down, std::uint32_t down_port) {
  SPECNOC_EXPECTS(down_ == nullptr && down_port < kMaxPorts);
  down_ = &down;
  down_port_ = static_cast<std::uint8_t>(down_port);
  down.attach_input(down_port, *this);
}

void Channel::make_cross_partition(std::uint32_t up_lane,
                                   std::uint32_t down_lane,
                                   std::uint32_t index) {
  SPECNOC_EXPECTS(!cross_partition() && queue_.empty() && !send_outstanding_);
  SPECNOC_EXPECTS(up_lane != down_lane);
  SPECNOC_EXPECTS(scheduler_.partitioned() != nullptr &&
                  &scheduler_.partitioned()->lane(up_lane) == &scheduler_);
  up_lane_ = up_lane;
  down_lane_ = down_lane;
  mail_key_ = 2 * index;
}

sim::Scheduler& Channel::down_sched() const {
  return cross_partition() ? scheduler_.partitioned()->lane(down_lane_)
                           : scheduler_;
}

std::uint32_t Channel::occupancy() const {
  return queue_.size() + (awaiting_node_ack_ ? 1u : 0u);
}

void Channel::send(const Flit& flit) {
  SPECNOC_EXPECTS(down_ != nullptr);
  SPECNOC_EXPECTS(!send_outstanding_);
  send_outstanding_ = true;
  ++flits_carried_;
  const ChannelSpec& spec = *spec_;
  // send() and apply_credit() run for the upstream node, ack() for the
  // downstream one; each reaches the hooks through its caller.
  const SimHooks& hooks = up_->hooks();
  if (hooks.energy != nullptr) {
    hooks.energy->on_channel_flit(spec.params.length, scheduler_.now());
  }
  if (cross_partition()) {
    send_cross(flit);
    return;
  }
  SPECNOC_EXPECTS(occupancy() < spec.params.capacity);
  queue_.push_back({flit, scheduler_.now() + spec.params.delay_fwd});
  // If a slot remains behind this flit, the first FIFO stage hands the ack
  // straight back; otherwise the upstream waits for the head to drain.
  if (occupancy() < spec.params.capacity) {
    release_upstream();
  } else {
    stalled_ = true;
    stall_start_ = scheduler_.now();
  }
  try_deliver();
}

void Channel::post(std::uint32_t producer, std::uint32_t consumer,
                   std::uint32_t key, TimePs time, const Flit& flit) {
  static_assert(std::is_trivially_copyable_v<Flit> &&
                sizeof(Flit) <= sizeof(sim::Mail::payload));
  sim::Mail mail;
  mail.target = this;
  mail.time = time;
  mail.key = key;
  std::memcpy(mail.payload.data(), &flit, sizeof(Flit));
  scheduler_.partitioned()->post(producer, consumer, mail);
}

void Channel::send_cross(const Flit& flit) {
  const TimePs now = scheduler_.now();
  const ChannelParams& params = spec_->params;
  post(up_lane_, down_lane_, mail_key_, now + params.delay_fwd, flit);
  // Credit-counted mirror of the sequential occupancy check: the flit finds
  // a free FIFO slot iff fewer than `capacity` flits are in flight. Credits
  // from the current window are still in the mail; deferring the release
  // to the credit yields the identical release time
  // max(send, ack) + delay_ack either way.
  if (++in_flight_ < params.capacity) {
    release_upstream();
  } else {
    SPECNOC_ASSERT(!stalled_ && in_flight_ == params.capacity);
    stalled_ = true;
    stall_start_ = now;
  }
}

void Channel::apply_mail(const sim::Mail& mail) {
  Channel& channel = *static_cast<Channel*>(mail.target);
  if (mail.key != channel.mail_key_) {
    channel.apply_credit(mail.time);
    return;
  }
  // A flit reaching the downstream half; try_deliver is a no-op while an
  // earlier flit is still ahead of it.
  Flit flit;
  std::memcpy(&flit, mail.payload.data(), sizeof(Flit));
  channel.queue_.push_back({flit, mail.time});
  channel.try_deliver();
}

void Channel::apply_credit(TimePs when) {
  SPECNOC_ASSERT(in_flight_ > 0);
  --in_flight_;
  // Only a send that found the pipe full waits for a credit, and no other
  // send can follow it before its release, so the first credit frees it.
  if (!stalled_) return;
  stalled_ = false;
  // The upstream genuinely stalled only if the freeing ack came after the
  // send. (A same-picosecond tie is counted as no stall; the sequential
  // kernel's answer would depend on intra-tick event order, which has no
  // cross-lane equivalent — see DESIGN.md.)
  MetricsObserver* metrics = up_->hooks().metrics;
  if (when > stall_start_ && metrics != nullptr) {
    metrics->on_channel_stall(*this, stall_start_, when);
  }
  const TimePs at = std::max(stall_start_, when) + spec_->params.delay_ack;
  SPECNOC_ASSERT(send_outstanding_);
  scheduler_.schedule_at(at, [this] {
    send_outstanding_ = false;
    up_->on_output_ack(up_port_);
  });
}

void Channel::try_deliver() {
  if (head_scheduled_ || awaiting_node_ack_ || queue_.empty()) {
    return;
  }
  head_scheduled_ = true;
  sim::Scheduler& down = down_sched();
  const TimePs at = std::max(down.now(), queue_.front().ready_at);
  down.schedule_at(at, [this] {
    SPECNOC_ASSERT(head_scheduled_ && !awaiting_node_ack_);
    SPECNOC_ASSERT(!queue_.empty());
    head_scheduled_ = false;
    awaiting_node_ack_ = true;
    const Flit flit = queue_.front().flit;
    queue_.pop_front();
    down_->deliver(flit, down_port_);
  });
}

void Channel::ack() {
  SPECNOC_EXPECTS(awaiting_node_ack_);
  awaiting_node_ack_ = false;
  if (cross_partition()) {
    // Every ack is a credit for the upstream half, applied after the
    // window by the upstream lane's worker.
    post(down_lane_, up_lane_, mail_key_ + 1, down_sched().now(), Flit{});
  } else if (send_outstanding_ &&
             occupancy() + 1 == spec_->params.capacity) {
    // The upstream was stalled on a full pipe; this ack frees a slot.
    if (stalled_) {
      stalled_ = false;
      if (MetricsObserver* metrics = down_->hooks().metrics) {
        metrics->on_channel_stall(*this, stall_start_, scheduler_.now());
      }
    }
    release_upstream();
  }
  try_deliver();
}

void Channel::release_upstream() {
  SPECNOC_ASSERT(send_outstanding_);
  scheduler_.schedule(spec_->params.delay_ack, [this] {
    send_outstanding_ = false;
    up_->on_output_ack(up_port_);
  });
}

}  // namespace specnoc::noc
