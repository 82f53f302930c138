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

Node::Node(sim::Scheduler& scheduler, SimHooks& hooks, NodeKind kind,
           std::uint32_t inputs, std::uint32_t outputs)
    : scheduler_(scheduler), hooks_(hooks), kind_(kind),
      inputs_(static_cast<std::uint8_t>(inputs)),
      outputs_(static_cast<std::uint8_t>(outputs)) {
  SPECNOC_EXPECTS(inputs <= kMaxPorts && outputs <= kMaxPorts);
  if (inline_ports()) {
    inline_[0] = inline_[1] = inline_[2] = nullptr;
  } else {
    heap_ = new Channel*[inputs + outputs]();
  }
}

Node::~Node() {
  if (!inline_ports()) delete[] heap_;
}

void Node::set_site(const NodeSite& site) {
  SPECNOC_EXPECTS(site.level >= kMinLevel && site.level <= kMaxLevel);
  tree_ = site.tree;
  level_ = static_cast<std::int8_t>(site.level);
  index_ = site.index;
}

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
  prefix += std::to_string(tree_);
  if (level_ < 0) return prefix;
  return prefix + ".l" + std::to_string(level_) + "i" +
         std::to_string(index_);
}

std::string Node::output_port_name(std::uint32_t port) const {
  return std::to_string(port);
}

void Node::attach(std::uint32_t slot, Channel& channel) {
  Channel*& entry = inline_ports() ? inline_[slot] : heap_[slot];
  SPECNOC_EXPECTS(entry == nullptr);
  entry = &channel;
}

void Node::attach_input(std::uint32_t port, Channel& channel) {
  SPECNOC_EXPECTS(port < inputs_);
  attach(port, channel);
}

void Node::attach_output(std::uint32_t port, Channel& channel) {
  SPECNOC_EXPECTS(port < outputs_);
  attach(inputs_ + port, channel);
}

Channel& Node::input(std::uint32_t port) {
  Channel* channel = input_channel(port);
  SPECNOC_EXPECTS(channel != nullptr);
  return *channel;
}

Channel& Node::output(std::uint32_t port) {
  Channel* channel = output_channel(port);
  SPECNOC_EXPECTS(channel != nullptr);
  return *channel;
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
