#include "noc/source.h"

#include "noc/channel.h"

namespace specnoc::noc {

SourceNode::SourceNode(sim::Scheduler& scheduler, SimHooks& hooks,
                       std::uint32_t src_id, TimePs issue_delay)
    : Node(scheduler, hooks, NodeKind::kSource, 0, 1),
      src_id_(src_id), issue_delay_(issue_delay) {
  SPECNOC_EXPECTS(issue_delay >= 0);
}

std::string SourceNode::name() const {
  return "src" + std::to_string(src_id_);
}

void SourceNode::enqueue_packet(const Packet& packet) {
  SPECNOC_EXPECTS(packet.src == src_id_);
  for (std::uint32_t seq = 0; seq < packet.num_flits; ++seq) {
    queue_.push_back(make_flit(packet, seq));
  }
  flits_enqueued_ += packet.num_flits;
  ++queued_packets_;
  try_issue();
}

void SourceNode::set_refill(std::size_t low_water,
                            std::function<void()> callback) {
  low_water_ = low_water;
  refill_ = std::move(callback);
  pump_refill();
}

void SourceNode::pump_refill() {
  if (!refill_) return;
  while (queued_packets_ < low_water_) {
    const std::size_t before = queued_packets_;
    refill_();
    if (queued_packets_ == before) break;  // callback declined to produce
  }
}

void SourceNode::deliver(const Flit&, std::uint32_t) {
  SPECNOC_UNREACHABLE("sources have no input channels");
}

void SourceNode::on_output_ack(std::uint32_t out_port) {
  SPECNOC_EXPECTS(out_port == 0);
  output_free_ = true;
  try_issue();
}

void SourceNode::try_issue() {
  if (!output_free_ || queue_.empty() || issue_scheduled_) {
    return;
  }
  issue_scheduled_ = true;
  sched().schedule(issue_delay_, [this] { issue_front(); });
}

void SourceNode::issue_front() {
  SPECNOC_ASSERT(issue_scheduled_ && output_free_ && !queue_.empty());
  issue_scheduled_ = false;
  const Flit flit = queue_.front();
  queue_.pop_front();
  output_free_ = false;
  record_op(NodeOp::kSourceSend);
  if (flit.is_header() && hooks().traffic != nullptr) {
    hooks().traffic->on_packet_injected(*flit.packet, sched().now());
  }
  if (flit.is_tail() || flit.packet->num_flits == 1) {
    SPECNOC_ASSERT(queued_packets_ > 0);
    --queued_packets_;
  }
  output(0).send(flit);
  pump_refill();
}

}  // namespace specnoc::noc
