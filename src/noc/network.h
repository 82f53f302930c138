// Network: owns the scheduler, all nodes, all channels, and packet storage.
#pragma once

#include <cstddef>
#include <memory>
#include <utility>

#include "sim/partitioned_scheduler.h"
#include "sim/scheduler.h"
#include "noc/arena.h"
#include "noc/channel.h"
#include "noc/hooks.h"
#include "noc/node.h"
#include "noc/packet.h"
#include "noc/sink.h"
#include "noc/source.h"
#include "util/contract.h"

namespace specnoc::noc {

/// Container and factory for a simulated network. Topology layers (mot/core)
/// populate it; experiment layers drive its scheduler and hooks.
///
/// Partitioned mode: a builder may call enable_partitions() before creating
/// any nodes, then name each node's partition as it places it. Nodes are
/// then constructed on their partition's scheduler lane, channels whose
/// endpoints live in different partitions are split into halves that
/// exchange sim::Mail (Channel::make_cross_partition), and run()/run_until()
/// execute the lanes through the conservative window protocol of
/// sim::PartitionedScheduler. Without enable_partitions() everything runs
/// on the single global scheduler exactly as before.
class Network {
 public:
  Network() = default;
  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  sim::Scheduler& scheduler() { return scheduler_; }
  SimHooks& hooks() { return hooks_; }
  PacketStore& packets() { return packets_; }

  /// Switches the network into partitioned mode with `lanes` scheduler
  /// lanes and the given conservative lookahead (the minimum latency of any
  /// cross-partition channel, computed by the builder from its channel
  /// delay plan). Must be called before any node exists. `lanes` == 1 is a
  /// no-op (the network stays sequential); more than Channel::kMaxLanes
  /// lanes, or `lookahead` <= 0 with more than one lane, is a ConfigError —
  /// a zero-lookahead topology cannot be partitioned conservatively.
  void enable_partitions(std::uint32_t lanes, TimePs lookahead);

  bool partitioned() const { return psched_ != nullptr; }
  std::uint32_t partitions() const {
    return psched_ != nullptr ? psched_->lanes() : 1;
  }
  sim::PartitionedScheduler* partitioned_scheduler() { return psched_.get(); }

  /// Scheduler lane `i` (the global scheduler when not partitioned).
  sim::Scheduler& lane(std::uint32_t i) {
    return psched_ != nullptr ? psched_->lane(i) : scheduler_;
  }

  /// Worker threads for partitioned runs; 0 = hardware concurrency. The
  /// effective count is additionally clamped to the partition count. Has no
  /// effect on sequential networks.
  void set_worker_threads(unsigned threads);
  unsigned worker_threads() const { return worker_threads_; }
  /// Workers a run uses: worker_threads() clamped to the partition count
  /// (1 on a sequential network). A structural build uses as many.
  unsigned effective_threads() const;

  /// Unified run surface: dispatches to the global scheduler or to the
  /// partitioned window executor. Drivers and experiments should use these
  /// rather than scheduler().run*() so `--threads` takes effect.
  void run();
  void run_until(TimePs t);
  TimePs now() const;
  std::uint64_t executed() const;
  std::size_t pending() const;
  std::size_t overflow_pending() const;

  /// Installs an observation-only epoch callback on whichever kernel this
  /// network runs on (the global scheduler, or the partitioned executor's
  /// window barrier — see the respective set_epoch_hook contracts). Used by
  /// stats::TelemetrySampler; enabling it changes no simulated byte.
  void set_epoch_hook(TimePs epoch_ps, sim::Scheduler::EpochHook hook);
  void clear_epoch_hook();

  /// The layout rule, applied by this class alone: a channel is a
  /// PipeChannel iff it buffers more than one flit or its ends sit on
  /// different lanes (`cross`), and a WireChannel otherwise.
  static bool pipe_layout(const ChannelSpec& spec, bool cross) {
    return spec.params.capacity > 1 || cross;
  }

  // Building. A builder derives every object's position from structure and
  // sizes everything up front on one thread — one reserve_nodes() per node
  // type, add_nodes() for each run of nodes() order, and add_channels() for
  // each run of channels() order followed by one reserve_channels() — and
  // then places each object at its slot with place_node()/place_channel(),
  // on one thread or from several workers at once for distinct slots.
  // Placement takes no lock, creates no pool and interns nothing; nodes()
  // and channels() may be walked once every slot is filled.

  /// Reserves T's pool for exactly `count` nodes, labelled by `kind`.
  template <typename T>
  void reserve_nodes(NodeKind kind, std::size_t count) {
    arena_.reserve<T>(count, to_string(kind));
  }

  /// Appends slots [first, first + count) of T's reserved pool to nodes()
  /// order (extending the last run when they follow it in the same pool).
  template <typename T>
  void add_nodes(std::size_t first, std::size_t count) {
    nodes_.append(arena_.run<Node, T>(first, count));
  }

  /// Declares the next `count` channels of channels() order, each with
  /// `spec`; `cross` tells whether their ends sit on different lanes
  /// (false on a sequential network). Their layout, pipe_layout(), picks
  /// the pool whose next slots they take. Requires a network without
  /// placed channels.
  void add_channels(const ChannelSpec& spec, std::size_t count, bool cross);

  /// Sizes both channel pools exactly for the channels add_channels()
  /// declared; call once, after the last declaration.
  void reserve_channels();

  /// Constructs a node of type T (scheduler and hooks first) at `slot` of
  /// its reserved pool, on `partition`'s lane.
  template <typename T, typename... Args>
  T& place_node(std::size_t slot, std::uint32_t partition, Args&&... args) {
    SPECNOC_EXPECTS(partition < partitions());
    T* node = arena_.create_at<T>(slot, lane(partition), hooks_,
                                  std::forward<Args>(args)...);
    node->set_partition(partition);
    return *node;
  }

  /// The node place_node() constructed at `slot` of T's pool.
  template <typename T>
  T& placed_node(std::size_t slot) {
    return *arena_.at<T>(slot);
  }

  /// Constructs channels()[`index`], in the layout its declaration chose,
  /// pointing to the caller-interned `spec`, wired between two nodes of
  /// one partition.
  Channel& place_channel(std::size_t index, const ChannelSpec& spec,
                         Node& up, std::uint32_t up_port, Node& down,
                         std::uint32_t down_port);

  /// Constructs channels()[`index`] with only its upstream end wired; the
  /// downstream end, on `down_partition`, is attached later with
  /// Channel::connect_downstream(). A channel between two partitions
  /// (which its declaration must have said) is split with mail index
  /// `cross_index`: the caller's structural count of the cross channels
  /// before it in channels() order. Its min latency must be at least the
  /// lookahead enable_partitions() declared.
  Channel& place_channel(std::size_t index, const ChannelSpec& spec,
                         Node& up, std::uint32_t up_port,
                         std::uint32_t down_partition,
                         std::uint32_t cross_index);

  /// The channel placed at `index`: its (pool, slot) found among the
  /// channels() runs, its address computed.
  Channel& placed_channel(std::size_t index) {
    return *channels_.at(index);
  }

  /// Network interfaces by endpoint: a builder places endpoint i's
  /// interfaces at slot i of their pools.
  SourceNode& source(std::uint32_t i) { return placed_node<SourceNode>(i); }
  SinkNode& sink(std::uint32_t i) { return placed_node<SinkNode>(i); }
  std::uint32_t num_sources() const {
    return static_cast<std::uint32_t>(arena_.slots<SourceNode>());
  }
  std::uint32_t num_sinks() const {
    return static_cast<std::uint32_t>(arena_.slots<SinkNode>());
  }

  /// All nodes in add_nodes() order, read from the arena slabs.
  NetworkArena::RunView<Node> nodes() const { return nodes_.view(); }
  /// All channels in add_channels() order, as runs over the wire and pipe
  /// pools.
  NetworkArena::RunView<Channel> channels() const {
    return channels_.view();
  }

  /// Slab accounting for metrics (per-kind object counts and bytes).
  const NetworkArena& arena() const { return arena_; }

 private:
  sim::Scheduler scheduler_;
  SimHooks hooks_;
  PacketStore packets_;
  NetworkArena arena_;  ///< owns every node and channel
  NetworkArena::RunList<Node> nodes_;
  NetworkArena::RunList<Channel> channels_;
  std::size_t declared_wires_ = 0;  ///< add_channels() slots per pool
  std::size_t declared_pipes_ = 0;

  std::unique_ptr<sim::PartitionedScheduler> psched_;
  unsigned worker_threads_ = 1;
};

}  // namespace specnoc::noc
