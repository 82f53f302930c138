// Node base class: anything with handshake-controlled input/output channels.
#pragma once

#include <cstdint>
#include <string>

#include "sim/scheduler.h"
#include "noc/flit.h"
#include "noc/hooks.h"
#include "util/contract.h"

namespace specnoc::noc {

class Channel;

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
///
/// The base is one 64-byte header that only the build writes: lane, hooks,
/// partition, packed site, kind and a port table of fixed size. Inputs and
/// outputs share one channel-pointer array; up to kInlinePorts of them are
/// stored inline (every tree switch and network interface), more (the 5 + 5
/// mesh routers) on the heap. Workers read other lanes' headers (a split
/// channel's lanes are its endpoints' partitions), so subclasses keep their
/// run-time state after it.
class Node {
 public:
  /// A node of `kind` with `inputs` input and `outputs` output ports (each
  /// at most kMaxPorts).
  Node(sim::Scheduler& scheduler, SimHooks& hooks, NodeKind kind,
       std::uint32_t inputs, std::uint32_t outputs);
  virtual ~Node();
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
  /// Stored packed: the level in 8 bits (kMinLevel..kMaxLevel).
  NodeSite site() const { return {tree_, level_, index_}; }
  void set_site(const NodeSite& site);

  static constexpr std::int32_t kMinLevel = -1;
  static constexpr std::int32_t kMaxLevel = 127;
  /// Port counts are stored in 8 bits.
  static constexpr std::uint32_t kMaxPorts = 255;

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

  std::uint32_t num_inputs() const { return inputs_; }
  std::uint32_t num_outputs() const { return outputs_; }

  /// The channel attached at input / output `port` (nullptr when none is,
  /// or `port` is out of range).
  Channel* input_channel(std::uint32_t port) const {
    return port < inputs_ ? ports()[port] : nullptr;
  }
  Channel* output_channel(std::uint32_t port) const {
    return port < outputs_ ? ports()[inputs_ + port] : nullptr;
  }
  /// The port `channel` is attached at, which it must be (channels find
  /// their port numbers here instead of storing them).
  std::uint32_t input_port_of(const Channel& channel) const {
    return find_port(ports(), inputs_, channel);
  }
  std::uint32_t output_port_of(const Channel& channel) const {
    return find_port(ports() + inputs_, outputs_, channel);
  }

 protected:
  sim::Scheduler& sched() { return scheduler_; }
  Channel& input(std::uint32_t port);
  Channel& output(std::uint32_t port);
  bool has_output(std::uint32_t port) const {
    return output_channel(port) != nullptr;
  }

  /// Emits a node-op energy event if an energy observer is attached.
  void record_op(NodeOp op);

  /// Metrics emit helpers; each is a no-op unless a metrics observer is
  /// attached (hooks are nullable, so bare simulations pay one branch).
  void record_kill(const Flit& flit);
  void record_prealloc(bool hit);
  void record_contended_grant();
  void record_watchdog_release();

 private:
  static constexpr std::uint32_t kInlinePorts = 3;

  bool inline_ports() const { return inputs_ + outputs_ <= kInlinePorts; }
  Channel* const* ports() const {
    return inline_ports() ? inline_ : heap_;
  }
  static std::uint32_t find_port(Channel* const* slots, std::uint32_t count,
                                 const Channel& channel) {
    std::uint32_t port = 0;
    while (slots[port] != &channel) {
      ++port;
      SPECNOC_ASSERT(port < count);
    }
    return port;
  }
  /// Attaches `channel` at slot `slot` of the port table (empty before).
  void attach(std::uint32_t slot, Channel& channel);

  sim::Scheduler& scheduler_;
  SimHooks& hooks_;
  std::uint32_t partition_ = 0;
  std::uint32_t tree_ = 0;   ///< NodeSite, packed
  std::uint32_t index_ = 0;
  std::int8_t level_ = -1;
  NodeKind kind_;
  std::uint8_t inputs_;
  std::uint8_t outputs_;
  /// Inputs, then outputs.
  union {
    Channel* inline_[kInlinePorts];
    Channel** heap_;
  };
};

}  // namespace specnoc::noc
