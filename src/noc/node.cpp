#include "noc/node.h"

#include "noc/channel.h"
#include "util/error.h"

namespace specnoc::noc {

const char* to_string(NodeKind kind) {
  switch (kind) {
    case NodeKind::kSource: return "source";
    case NodeKind::kSink: return "sink";
    case NodeKind::kFanoutBaseline: return "fanout.baseline";
    case NodeKind::kFanoutSpeculative: return "fanout.spec";
    case NodeKind::kFanoutNonSpeculative: return "fanout.nonspec";
    case NodeKind::kFanoutOptSpeculative: return "fanout.opt_spec";
    case NodeKind::kFanoutOptNonSpeculative: return "fanout.opt_nonspec";
    case NodeKind::kFanin: return "fanin";
    case NodeKind::kMeshRouter: return "mesh.router";
    case NodeKind::kMeshRouterSpec: return "mesh.router.spec";
  }
  return "?";
}

NodeKind node_kind_from_string(const std::string& name) {
  for (const NodeKind kind : all_node_kinds()) {
    if (name == to_string(kind)) return kind;
  }
  throw ConfigError("unknown node kind '" + name + "'");
}

const char* to_string(NodeOp op) {
  switch (op) {
    case NodeOp::kRouteForward: return "route_forward";
    case NodeOp::kBroadcast: return "broadcast";
    case NodeOp::kFastForward: return "fast_forward";
    case NodeOp::kThrottle: return "throttle";
    case NodeOp::kArbitrate: return "arbitrate";
    case NodeOp::kSourceSend: return "source_send";
    case NodeOp::kSinkConsume: return "sink_consume";
  }
  return "?";
}

void PortList::put(std::uint32_t port, Channel& channel) {
  if (port >= cap_) {
    const std::uint32_t new_cap = port + 1 > cap_ * 2 ? port + 1 : cap_ * 2;
    Channel** fresh = new Channel*[new_cap]();
    Channel** old = data();
    for (std::uint32_t i = 0; i < size_; ++i) fresh[i] = old[i];
    if (cap_ > kInline) delete[] heap_;
    heap_ = fresh;
    cap_ = new_cap;
  } else if (port >= size_) {
    Channel** slots = data();
    for (std::uint32_t i = size_; i <= port; ++i) slots[i] = nullptr;
  }
  SPECNOC_EXPECTS(data()[port] == nullptr);
  data()[port] = &channel;
  if (port >= size_) size_ = port + 1;
}

Node::Node(sim::Scheduler& scheduler, SimHooks& hooks, NodeKind kind)
    : scheduler_(scheduler), hooks_(hooks), kind_(kind) {}

std::string Node::name() const {
  std::string prefix;
  switch (kind_) {
    case NodeKind::kFanoutBaseline:
    case NodeKind::kFanoutSpeculative:
    case NodeKind::kFanoutNonSpeculative:
    case NodeKind::kFanoutOptSpeculative:
    case NodeKind::kFanoutOptNonSpeculative:
      prefix = "fo";
      break;
    case NodeKind::kFanin:
      prefix = "fi";
      break;
    default:
      prefix = to_string(kind_);
      break;
  }
  prefix += std::to_string(site_.tree);
  if (site_.level < 0) return prefix;
  return prefix + ".l" + std::to_string(site_.level) + "i" +
         std::to_string(site_.index);
}

std::string Node::output_port_name(std::uint32_t port) const {
  return std::to_string(port);
}

void Node::attach_input(std::uint32_t port, Channel& channel) {
  inputs_.put(port, channel);
}

void Node::attach_output(std::uint32_t port, Channel& channel) {
  outputs_.put(port, channel);
}

Channel& Node::input(std::uint32_t port) {
  Channel* channel = inputs_.get(port);
  SPECNOC_EXPECTS(channel != nullptr);
  return *channel;
}

Channel& Node::output(std::uint32_t port) {
  Channel* channel = outputs_.get(port);
  SPECNOC_EXPECTS(channel != nullptr);
  return *channel;
}

bool Node::has_output(std::uint32_t port) const {
  return outputs_.get(port) != nullptr;
}

void Node::record_op(NodeOp op) {
  if (hooks_.energy != nullptr) {
    hooks_.energy->on_node_op(*this, op, scheduler_.now());
  }
}

void Node::record_kill(const Flit& flit) {
  if (hooks_.metrics != nullptr) {
    hooks_.metrics->on_flit_killed(*this, flit, scheduler_.now());
  }
}

void Node::record_prealloc(bool hit) {
  if (hooks_.metrics != nullptr) {
    hooks_.metrics->on_prealloc(*this, hit, scheduler_.now());
  }
}

void Node::record_contended_grant() {
  if (hooks_.metrics != nullptr) {
    hooks_.metrics->on_contended_grant(*this, scheduler_.now());
  }
}

void Node::record_watchdog_release() {
  if (hooks_.metrics != nullptr) {
    hooks_.metrics->on_watchdog_release(*this, scheduler_.now());
  }
}

}  // namespace specnoc::noc
