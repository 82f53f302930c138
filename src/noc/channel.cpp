#include "noc/channel.h"

#include <algorithm>
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

ChannelClass channel_class_of(std::string_view name) {
  const auto has_prefix = [name](std::string_view prefix) {
    return name.substr(0, prefix.size()) == prefix;
  };
  if (has_prefix("src")) return ChannelClass::kSourceIf;
  if (has_prefix("root->")) return ChannelClass::kSinkIf;
  if (has_prefix("mid.")) return ChannelClass::kMiddle;
  if (has_prefix("fo")) return ChannelClass::kFanout;
  if (has_prefix("fi")) return ChannelClass::kFanin;
  if (has_prefix("ni")) return ChannelClass::kMeshInject;
  if (has_prefix("r>ni") || has_prefix("sr>ni")) {
    return ChannelClass::kMeshEject;
  }
  if (has_prefix("r") || has_prefix("sr")) return ChannelClass::kMeshHop;
  return ChannelClass::kOther;
}

Channel::Channel(sim::Scheduler& scheduler, SimHooks& hooks,
                 ChannelParams params, std::string name)
    : scheduler_(scheduler), hooks_(hooks), params_(params),
      name_(std::move(name)), klass_(channel_class_of(name_)) {
  SPECNOC_EXPECTS(params_.delay_fwd >= 0 && params_.delay_ack >= 0);
  SPECNOC_EXPECTS(params_.capacity >= 1);
  queue_.reserve(params_.capacity);
  down_sched_ = &scheduler_;
}

void Channel::connect(Node& up, std::uint32_t up_port, Node& down,
                      std::uint32_t down_port) {
  SPECNOC_EXPECTS(up_ == nullptr && down_ == nullptr);
  up_ = &up;
  down_ = &down;
  up_port_ = up_port;
  down_port_ = down_port;
  up.attach_output(up_port, *this);
  down.attach_input(down_port, *this);
}

void Channel::make_cross_partition(sim::PartitionedScheduler& psched,
                                   std::uint32_t up_lane,
                                   std::uint32_t down_lane) {
  SPECNOC_EXPECTS(cross_ == nullptr && queue_.empty() && !send_outstanding_);
  SPECNOC_EXPECTS(up_lane != down_lane);
  cross_ = std::make_unique<CrossState>();
  cross_->psched = &psched;
  cross_->up_lane = up_lane;
  cross_->down_lane = down_lane;
  down_sched_ = &psched.lane(down_lane);
  cross_->fwd_drain = psched.add_drain([this] { drain_forward(); });
  cross_->credit_drain = psched.add_drain([this] { drain_credits(); });
}

std::uint32_t Channel::occupancy() const {
  return queue_.size() + (awaiting_node_ack_ ? 1u : 0u);
}

void Channel::send(const Flit& flit) {
  SPECNOC_EXPECTS(down_ != nullptr);
  SPECNOC_EXPECTS(!send_outstanding_);
  send_outstanding_ = true;
  ++flits_carried_;
  if (hooks_.energy != nullptr) {
    hooks_.energy->on_channel_flit(params_.length, scheduler_.now());
  }
  if (cross_ != nullptr) {
    send_cross(flit);
    return;
  }
  SPECNOC_EXPECTS(occupancy() < params_.capacity);
  queue_.push_back({flit, scheduler_.now() + params_.delay_fwd});
  // If a slot remains behind this flit, the first FIFO stage hands the ack
  // straight back; otherwise the upstream waits for the head to drain.
  if (occupancy() < params_.capacity) {
    release_upstream();
  } else {
    stalled_ = true;
    stall_start_ = scheduler_.now();
  }
  try_deliver();
}

void Channel::send_cross(const Flit& flit) {
  const TimePs now = scheduler_.now();
  CrossState& x = *cross_;
  if (x.fwd_box.empty()) x.psched->note_dirty(x.up_lane, x.fwd_drain);
  x.fwd_box.push_back({flit, now + params_.delay_fwd});
  const std::uint64_t k = ++x.sends;
  // Credit-counted mirror of the sequential occupancy check: the k-th flit
  // finds a free FIFO slot iff at least k - capacity + 1 downstream acks
  // have already happened. Acks from the current window are still in the
  // mailbox; deferring the release to the credit drain yields the identical
  // release time max(send, ack) + delay_ack either way.
  if (x.credits_seen + params_.capacity >= k + 1) {
    release_upstream();
  } else {
    SPECNOC_ASSERT(!x.release_pending);
    x.release_pending = true;
    x.release_needs = k + 1 - params_.capacity;
    x.release_send_time = now;
  }
}

void Channel::drain_forward() {
  CrossState& x = *cross_;
  for (const QueuedFlit& queued : x.fwd_box) queue_.push_back(queued);
  x.fwd_box.clear();
  try_deliver();
}

void Channel::drain_credits() {
  CrossState& x = *cross_;
  for (const TimePs when : x.credit_box) {
    ++x.credits_seen;
    if (!x.release_pending || x.credits_seen != x.release_needs) continue;
    x.release_pending = false;
    // The upstream genuinely stalled only if the freeing ack came after the
    // send. (A same-picosecond tie is counted as no stall; the sequential
    // kernel's answer would depend on intra-tick event order, which has no
    // cross-lane equivalent — see DESIGN.md.)
    if (when > x.release_send_time && hooks_.metrics != nullptr) {
      hooks_.metrics->on_channel_stall(*this, x.release_send_time, when);
    }
    const TimePs at = std::max(x.release_send_time, when) + params_.delay_ack;
    SPECNOC_ASSERT(send_outstanding_);
    scheduler_.schedule_at(at, [this] {
      send_outstanding_ = false;
      up_->on_output_ack(up_port_);
    });
  }
  x.credit_box.clear();
}

void Channel::try_deliver() {
  if (head_scheduled_ || awaiting_node_ack_ || queue_.empty()) {
    return;
  }
  head_scheduled_ = true;
  const TimePs at = std::max(down_sched_->now(), queue_.front().ready_at);
  down_sched_->schedule_at(at, [this] {
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
  if (cross_ != nullptr) {
    // Every ack is a credit for the upstream half, consumed at the next
    // window barrier.
    CrossState& x = *cross_;
    if (x.credit_box.empty()) x.psched->note_dirty(x.down_lane, x.credit_drain);
    x.credit_box.push_back(down_sched_->now());
  } else if (send_outstanding_ && occupancy() + 1 == params_.capacity) {
    // The upstream was stalled on a full pipe; this ack frees a slot.
    if (stalled_) {
      stalled_ = false;
      if (hooks_.metrics != nullptr) {
        hooks_.metrics->on_channel_stall(*this, stall_start_,
                                         scheduler_.now());
      }
    }
    release_upstream();
  }
  try_deliver();
}

void Channel::release_upstream() {
  SPECNOC_ASSERT(send_outstanding_);
  scheduler_.schedule(params_.delay_ack, [this] {
    send_outstanding_ = false;
    up_->on_output_ack(up_port_);
  });
}

}  // namespace specnoc::noc
