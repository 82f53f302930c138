// Node base class: anything with handshake-controlled input/output channels.
#pragma once

#include <cstdint>
#include <string>

#include "sim/scheduler.h"
#include "noc/flit.h"
#include "noc/hooks.h"

namespace specnoc::noc {

class Channel;

/// Small-buffer channel-pointer array. Every tree node has degree <= 2, so
/// ports 0..1 live inline and only the 5-port mesh routers touch the heap —
/// at 1024 endpoints the old per-node vectors were ~4M small allocations.
class PortList {
 public:
  PortList() { inline_[0] = inline_[1] = nullptr; }
  ~PortList() {
    if (cap_ > kInline) delete[] heap_;
  }
  PortList(const PortList&) = delete;
  PortList& operator=(const PortList&) = delete;

  /// Highest attached port + 1.
  std::uint32_t size() const { return size_; }

  /// Channel at `port` (nullptr when unattached or out of range).
  Channel* get(std::uint32_t port) const {
    return port < size_ ? data()[port] : nullptr;
  }

  /// Attaches `channel` at `port`; the slot must be empty (out-of-line:
  /// wiring happens once, at build time).
  void put(std::uint32_t port, Channel& channel);

 private:
  static constexpr std::uint32_t kInline = 2;

  Channel* const* data() const {
    return cap_ <= kInline ? inline_ : heap_;
  }
  Channel** data() { return cap_ <= kInline ? inline_ : heap_; }

  union {
    Channel* inline_[kInline];
    Channel** heap_;
  };
  std::uint32_t size_ = 0;
  std::uint32_t cap_ = kInline;
};

/// Base class for switches and network interfaces.
///
/// The handshake contract between Channel and Node:
///  * `deliver(flit, port)` is called by the input channel when the flit's
///    req edge (plus wire delay) reaches the node. The channel guarantees it
///    never delivers a new flit on a port before the node acked the previous
///    one (2-phase protocol: one outstanding transaction per channel).
///  * The node calls `Channel::ack()` on that input channel once it has
///    issued req-out on every required output (or throttled the flit) — the
///    paper's ack-after-forward protocol.
///  * `on_output_ack(port)` is called (after ack wire delay) when the
///    downstream node acked the flit previously sent on output `port`; the
///    output channel is free again.
class Node {
 public:
  Node(sim::Scheduler& scheduler, SimHooks& hooks, NodeKind kind);
  virtual ~Node() = default;
  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  NodeKind kind() const { return kind_; }

  /// Display name for traces and diagnostics, derived from structure on
  /// every call (nodes store no name). The base form covers the MoT tree
  /// switches, "fo3.l1i0" / "fi5.l2i1" (kind prefix, then site tree, level
  /// and index), and names any other node "<kind><site.tree>"; network
  /// interfaces and mesh routers override it.
  virtual std::string name() const;

  /// Label of output `port` in the names of the channels it drives
  /// ("fo3.l1i0>1"); the port number unless a subclass names its ports.
  virtual std::string output_port_name(std::uint32_t port) const;

  /// Structural position inside the network, set by the network builder.
  const NodeSite& site() const { return site_; }
  void set_site(const NodeSite& site) { site_ = site; }

  /// Scheduler lane this node's events run on. Equals the network's global
  /// scheduler unless the network was built with partitions enabled.
  sim::Scheduler& lane() { return scheduler_; }

  /// The network's observation hooks; channels reach them through their
  /// endpoint nodes.
  SimHooks& hooks() { return hooks_; }

  /// Partition this node belongs to (0 when partitioning is disabled).
  std::uint32_t partition() const { return partition_; }
  void set_partition(std::uint32_t partition) { partition_ = partition; }

  virtual void deliver(const Flit& flit, std::uint32_t in_port) = 0;
  virtual void on_output_ack(std::uint32_t out_port) = 0;

  /// Wiring, called by Network::connect.
  void attach_input(std::uint32_t port, Channel& channel);
  void attach_output(std::uint32_t port, Channel& channel);

  std::uint32_t num_inputs() const { return inputs_.size(); }
  std::uint32_t num_outputs() const { return outputs_.size(); }

 protected:
  sim::Scheduler& sched() { return scheduler_; }
  Channel& input(std::uint32_t port);
  Channel& output(std::uint32_t port);
  bool has_output(std::uint32_t port) const;

  /// Emits a node-op energy event if an energy observer is attached.
  void record_op(NodeOp op);

  /// Metrics emit helpers; each is a no-op unless a metrics observer is
  /// attached (hooks are nullable, so bare simulations pay one branch).
  void record_kill(const Flit& flit);
  void record_prealloc(bool hit);
  void record_contended_grant();
  void record_watchdog_release();

 private:
  sim::Scheduler& scheduler_;
  SimHooks& hooks_;
  NodeKind kind_;
  std::uint32_t partition_ = 0;
  NodeSite site_;
  PortList inputs_;
  PortList outputs_;
};

}  // namespace specnoc::noc
