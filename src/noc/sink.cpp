#include "noc/sink.h"

#include "noc/channel.h"

namespace specnoc::noc {

SinkNode::SinkNode(sim::Scheduler& scheduler, SimHooks& hooks,
                   std::uint32_t dest_id, TimePs consume_delay)
    : Node(scheduler, hooks, NodeKind::kSink, 1, 0),
      dest_id_(dest_id), consume_delay_(consume_delay) {
  SPECNOC_EXPECTS(consume_delay >= 0);
}

std::string SinkNode::name() const {
  return "dst" + std::to_string(dest_id_);
}

void SinkNode::deliver(const Flit& flit, std::uint32_t in_port) {
  SPECNOC_EXPECTS(in_port == 0);
  SPECNOC_ASSERT(!busy_);
  busy_ = true;
  sched().schedule(consume_delay_, [this, flit] {
    record_op(NodeOp::kSinkConsume);
    ++flits_consumed_;
    if (hooks().traffic != nullptr) {
      hooks().traffic->on_flit_ejected(*flit.packet, dest_id_, flit.kind,
                                       sched().now());
    }
    busy_ = false;
    input(0).ack();
  });
}

void SinkNode::on_output_ack(std::uint32_t) {
  SPECNOC_UNREACHABLE("sinks have no output channels");
}

}  // namespace specnoc::noc
