#include "core/mot_network.h"

#include <algorithm>
#include <array>
#include <bit>
#include <string>

#include "nodes/characteristics.h"
#include "nodes/fanin_node.h"
#include "nodes/fanout_nodes.h"
#include "util/contract.h"
#include "util/error.h"
#include "util/fork_join.h"
#include "util/intern.h"
#include "util/ring.h"

namespace specnoc::core {

MotNetwork::MotNetwork(Architecture arch, NetworkConfig config)
    : arch_(arch), config_(std::move(config)), topology_(config_.n),
      speculation_(speculation_for(arch, topology_)),
      encoder_(topology_, speculation_.flags()),
      layout_(topology_, config_.layout) {
  build();
}

MotNetwork::MotNetwork(NetworkConfig config, SpeculationMap speculation)
    : arch_(Architecture::kCustomHybrid), config_(std::move(config)),
      topology_(config_.n), speculation_(std::move(speculation)),
      encoder_(topology_, speculation_.flags()),
      layout_(topology_, config_.layout) {
  if (speculation_.topology().n() != topology_.n()) {
    throw ConfigError("speculation map radix does not match network radix");
  }
  build();
}

namespace {

constexpr std::size_t kNodeKinds = noc::all_node_kinds().size();

std::size_t kind_index(noc::NodeKind kind) {
  return static_cast<std::size_t>(kind);
}

/// Calls `f.template operator()<T>()` with T the fanout node class of
/// `kind`.
template <typename F>
void with_fanout_class(noc::NodeKind kind, F&& f) {
  switch (kind) {
    case noc::NodeKind::kFanoutBaseline:
      f.template operator()<nodes::BaselineFanoutNode>();
      break;
    case noc::NodeKind::kFanoutSpeculative:
      f.template operator()<nodes::SpecFanoutNode>();
      break;
    case noc::NodeKind::kFanoutNonSpeculative:
      f.template operator()<nodes::NonSpecFanoutNode>();
      break;
    case noc::NodeKind::kFanoutOptSpeculative:
      f.template operator()<nodes::OptSpecFanoutNode>();
      break;
    case noc::NodeKind::kFanoutOptNonSpeculative:
      f.template operator()<nodes::OptNonSpecFanoutNode>();
      break;
    default:
      SPECNOC_UNREACHABLE("not a fanout node kind");
  }
}

/// Rejects a FIFO depth the bounded rings cannot hold.
void check_depth(const char* what, std::uint32_t flits) {
  if (flits < 1 || flits > util::kMaxRingCapacity) {
    throw ConfigError(std::string(what) + " must be in [1, " +
                      std::to_string(util::kMaxRingCapacity) + "], got " +
                      std::to_string(flits));
  }
}

}  // namespace

/// What every per-tree build step shares, fixed on the building thread
/// before any worker starts: interning takes a process-wide lock, and the
/// pools and nodes() runs are set up there too. nodes() order is sources,
/// sinks, fanout trees, fanin trees (each tree in heap order). It also
/// holds the channel index layout, which is channels() order: source
/// links, fanout-internal links, middle links (by source, then
/// destination), fanin-internal links and sink links (each class by
/// tree).
struct MotNetwork::BuildPlan {
  std::uint32_t n = 0;
  std::uint32_t per_tree = 0;  ///< switches per tree: n - 1
  std::uint32_t lanes = 1;

  /// Fanout switch kind by heap id (every tree has the same speculation
  /// map), the switch's rank among its tree's switches of that kind, and
  /// how many of each kind a tree has: fanout switch h of tree t sits in
  /// slot t * of_kind[kind] + rank[h] of its kind's pool.
  std::vector<noc::NodeKind> kind;
  std::vector<std::uint32_t> rank;
  std::array<std::uint32_t, kNodeKinds> of_kind{};
  std::array<const nodes::NodeCharacteristics*, kNodeKinds> chars{};
  const nodes::FaninSpec* fanin = nullptr;

  const noc::ChannelSpec* source_link = nullptr;
  const noc::ChannelSpec* sink_link = nullptr;
  const noc::ChannelSpec* middle_link = nullptr;
  std::vector<const noc::ChannelSpec*> fanout_link;  ///< [upper level]
  std::vector<const noc::ChannelSpec*> fanin_link;   ///< [upper level]

  std::size_t fanout_links() const { return n; }
  std::size_t middle_links() const {
    return fanout_links() + std::size_t{n} * (per_tree - 1);
  }
  std::size_t fanin_links() const {
    return middle_links() + std::size_t{n} * n;
  }
  std::size_t sink_links() const {
    return fanin_links() + std::size_t{n} * (per_tree - 1);
  }

  /// Lanes own contiguous tree blocks: tree t is on lane t * lanes / n,
  /// so lane l holds trees [first_tree(l), first_tree(l + 1)).
  std::uint32_t lane_of(std::uint32_t tree) const {
    return tree * lanes / n;
  }
  std::uint32_t first_tree(std::uint32_t lane) const {
    return (lane * n + lanes - 1) / lanes;
  }

  /// Cross channels among the middle links of sources [0, t), which come
  /// first in channels() order: source s's links cross to every
  /// destination outside its own lane. (No other channel crosses: a
  /// source, its fanout tree, a sink and its fanin tree share a lane.)
  std::uint32_t crossed_before(std::uint32_t t) const {
    std::uint32_t crossed = 0;
    for (std::uint32_t s = 0; s < t; ++s) {
      const std::uint32_t lane = lane_of(s);
      crossed += n - (first_tree(lane + 1) - first_tree(lane));
    }
    return crossed;
  }
};

void MotNetwork::build() {
  const std::uint32_t n = topology_.n();
  const std::uint32_t levels = topology_.levels();
  check_depth("middle_channel_flits", config_.middle_channel_flits);
  check_depth("fanin_buffer_flits", config_.fanin_buffer_flits);

  // Partition plan. A source's entire fanout tree and a destination's
  // entire fanin tree are intra-partition by construction; only the middle
  // channels can cross partitions, so their minimum wire latency is the
  // conservative lookahead. sim_threads == 1 keeps the classic
  // single-scheduler network (byte-for-byte identical to pre-PDES builds);
  // a zero-latency wire model (wire_delay_ps_per_um == 0) has no usable
  // lookahead and also falls back to sequential execution.
  std::uint32_t lanes = 1;
  switch (config_.partition) {
    case noc::PartitionStrategy::kNone:
      lanes = 1;
      break;
    case noc::PartitionStrategy::kAuto:
    case noc::PartitionStrategy::kTree:
      lanes = n;
      break;
    case noc::PartitionStrategy::kQuadrant:
      lanes = std::min<std::uint32_t>(4, n);
      break;
    case noc::PartitionStrategy::kRows:
      throw ConfigError(
          "partition strategy 'rows' applies to mesh networks only (valid "
          "strategies for MoT: auto, none, tree, quadrant)");
  }
  // Middle links are pipelined to `middle_channel_flits` stages; their
  // delays, and so the lookahead, are the layout's.
  noc::ChannelParams middle = layout_.middle_channel();
  middle.capacity = config_.middle_channel_flits;
  const TimePs lookahead = std::min(middle.delay_fwd, middle.delay_ack);
  if (config_.sim_threads == 1 || lookahead <= 0) lanes = 1;
  net_.enable_partitions(lanes, lanes > 1 ? lookahead : 1);
  net_.set_worker_threads(config_.sim_threads);

  BuildPlan plan;
  plan.n = n;
  plan.per_tree = topology_.nodes_per_tree();
  plan.lanes = net_.partitions();

  // Switch characteristics, interned once per node kind: every node of a
  // kind shares one value.
  const auto intern_chars = [&](noc::NodeKind kind) {
    const nodes::NodeCharacteristics*& slot = plan.chars[kind_index(kind)];
    if (slot == nullptr) {
      nodes::NodeCharacteristics chars = config_.chars_for(kind);
      chars.clock_period = config_.clock_period;
      slot = &nodes::intern_characteristics(chars);
    }
    return slot;
  };
  // Pools are reserved (and so allocated) in nodes() order: sources,
  // sinks, the fanout kinds as they first appear in a tree, fanin; then
  // channels.
  std::vector<noc::NodeKind> fanout_kinds;
  for (std::uint32_t level = 0; level < levels; ++level) {
    for (std::uint32_t i = 0; i < topology_.nodes_at_level(level); ++i) {
      const noc::NodeKind kind =
          fanout_kind(arch_, speculation_.speculative(level, i));
      if (plan.of_kind[kind_index(kind)] == 0) fanout_kinds.push_back(kind);
      intern_chars(kind);
      plan.kind.push_back(kind);
      plan.rank.push_back(plan.of_kind[kind_index(kind)]++);
    }
  }
  plan.fanin = &util::intern(nodes::FaninSpec{
      *intern_chars(noc::NodeKind::kFanin), config_.fanin_sticky_timeout});
  const auto link = [](const noc::ChannelParams& params,
                       noc::ChannelClass klass) {
    return &util::intern(noc::ChannelSpec{params, klass});
  };
  plan.source_link =
      link(layout_.interface_channel(), noc::ChannelClass::kSourceIf);
  plan.sink_link =
      link(layout_.interface_channel(), noc::ChannelClass::kSinkIf);
  plan.middle_link = link(middle, noc::ChannelClass::kMiddle);
  for (std::uint32_t level = 0; level + 1 < levels; ++level) {
    plan.fanout_link.push_back(
        link(layout_.tree_channel(level), noc::ChannelClass::kFanout));
    plan.fanin_link.push_back(
        link(layout_.tree_channel(level), noc::ChannelClass::kFanin));
  }

  // Exact counts: 2n interfaces, n fanout plus n fanin trees of per_tree
  // switches; each tree has per_tree - 1 internal links, plus n source, n
  // sink and n * n middle links.
  net_.reserve_nodes<noc::SourceNode>(noc::NodeKind::kSource, n);
  net_.reserve_nodes<noc::SinkNode>(noc::NodeKind::kSink, n);
  for (const noc::NodeKind kind : fanout_kinds) {
    with_fanout_class(kind, [&]<typename T>() {
      net_.reserve_nodes<T>(kind,
                            std::size_t{n} * plan.of_kind[kind_index(kind)]);
    });
  }
  net_.reserve_nodes<nodes::FaninNode>(noc::NodeKind::kFanin,
                                       std::size_t{n} * plan.per_tree);

  // channels() runs, declared in index order; the network picks each
  // run's layout. Tree links repeat per tree, one run per level; source
  // s's middle links, by destination, cross lanes outside its own lane's
  // tree block.
  net_.add_channels(*plan.source_link, n, false);
  const auto tree_links = [&](const auto& specs) {
    for (std::uint32_t t = 0; t < n; ++t) {
      for (std::uint32_t level = 0; level + 1 < levels; ++level) {
        net_.add_channels(*specs[level], topology_.nodes_at_level(level + 1),
                          false);
      }
    }
  };
  tree_links(plan.fanout_link);
  for (std::uint32_t s = 0; s < n; ++s) {
    const std::uint32_t lane = plan.lane_of(s);
    const std::uint32_t own = plan.first_tree(lane);
    const std::uint32_t own_end = plan.first_tree(lane + 1);
    net_.add_channels(*plan.middle_link, own, true);
    net_.add_channels(*plan.middle_link, own_end - own, false);
    net_.add_channels(*plan.middle_link, n - own_end, true);
  }
  tree_links(plan.fanin_link);
  net_.add_channels(*plan.sink_link, n, false);
  net_.reserve_channels();

  // nodes() runs. A fanout tree in heap order is a few stretches of one
  // kind each, at consecutive ranks of that kind's pool; tree t repeats
  // tree 0's stretches t * of_kind[kind] slots further on.
  net_.add_nodes<noc::SourceNode>(0, n);
  net_.add_nodes<noc::SinkNode>(0, n);
  for (std::uint32_t t = 0; t < n; ++t) {
    for (std::uint32_t h = 0; h < plan.per_tree;) {
      const noc::NodeKind kind = plan.kind[h];
      std::uint32_t end = h + 1;
      while (end < plan.per_tree && plan.kind[end] == kind) ++end;
      with_fanout_class(kind, [&]<typename T>() {
        net_.add_nodes<T>(
            std::size_t{t} * plan.of_kind[kind_index(kind)] + plan.rank[h],
            end - h);
      });
      h = end;
    }
  }
  net_.add_nodes<nodes::FaninNode>(0, std::size_t{n} * plan.per_tree);

  // The run's workers build disjoint contiguous tree blocks, then, after a
  // join, wire the middle links' downstream ends into their own fanin
  // trees. One worker runs both passes inline.
  const unsigned workers = net_.effective_threads();
  const auto block_start = [n, workers](unsigned w) {
    return static_cast<std::uint32_t>(std::uint64_t{n} * w / workers);
  };
  util::fork_join(workers, [&](unsigned w) {
    std::uint32_t crossed = plan.crossed_before(block_start(w));
    for (std::uint32_t t = block_start(w); t < block_start(w + 1); ++t) {
      build_tree(plan, t, crossed);
    }
  });
  util::fork_join(workers, [&](unsigned w) {
    attach_middle_links(plan, block_start(w), block_start(w + 1));
  });
}

void MotNetwork::build_tree(const BuildPlan& plan, std::uint32_t t,
                            std::uint32_t& crossed) {
  const std::uint32_t n = plan.n;
  const std::uint32_t per_tree = plan.per_tree;
  const std::uint32_t levels = topology_.levels();
  const std::uint32_t lane = plan.lane_of(t);

  noc::SourceNode& source = net_.place_node<noc::SourceNode>(
      t, lane, t, config_.source_issue_delay);
  noc::SinkNode& sink = net_.place_node<noc::SinkNode>(
      t, lane, t, config_.sink_consume_delay);

  // Fanout tree t, in heap order.
  std::vector<nodes::FanoutNodeBase*> fanout(per_tree);
  for (std::uint32_t level = 0, h = 0; level < levels; ++level) {
    for (std::uint32_t i = 0; i < topology_.nodes_at_level(level);
         ++i, ++h) {
      const noc::NodeKind kind = plan.kind[h];
      const nodes::NodeCharacteristics& chars = *plan.chars[kind_index(kind)];
      const noc::DestRange top = topology_.subtree_span(level, i, 0);
      const noc::DestRange bottom = topology_.subtree_span(level, i, 1);
      const std::size_t slot =
          std::size_t{t} * plan.of_kind[kind_index(kind)] + plan.rank[h];
      nodes::FanoutNodeBase* node = nullptr;
      with_fanout_class(kind, [&]<typename T>() {
        node = &net_.place_node<T>(slot, lane, chars, top, bottom);
      });
      node->set_site({t, static_cast<std::int32_t>(level), i});
      fanout[h] = node;
    }
  }

  // Fanin tree t (identical arbiters in every architecture), heap order.
  std::vector<nodes::FaninNode*> fanin(per_tree);
  for (std::uint32_t level = 0, h = 0; level < levels; ++level) {
    for (std::uint32_t i = 0; i < topology_.nodes_at_level(level);
         ++i, ++h) {
      const std::size_t slot = std::size_t{t} * per_tree + h;
      nodes::FaninNode& node = net_.place_node<nodes::FaninNode>(
          slot, lane, *plan.fanin, config_.fanin_buffer_flits);
      node.set_site({t, static_cast<std::int32_t>(level), i});
      fanin[h] = &node;
    }
  }

  // Source NI -> fanout root.
  net_.place_channel(t, *plan.source_link, source, 0, *fanout[0], 0);

  // Fanout internal links: (level, i) output c -> (level+1, 2i+c) input 0.
  std::size_t index = plan.fanout_links() + std::size_t{t} * (per_tree - 1);
  for (std::uint32_t level = 0; level + 1 < levels; ++level) {
    for (std::uint32_t i = 0; i < topology_.nodes_at_level(level); ++i) {
      for (std::uint32_t c = 0; c < 2; ++c) {
        net_.place_channel(
            index++, *plan.fanout_link[level],
            *fanout[mot::MotTopology::heap_id(level, i)], c,
            *fanout[mot::MotTopology::heap_id(level + 1, 2 * i + c)], 0);
      }
    }
  }

  // Middle links: fanout leaf (t, L-1, i) output c serves destination
  // d = 2i + c, landing at fanin leaf (d, L-1, t/2) input t%2, which
  // attach_middle_links() wires once every fanin tree exists. These long
  // cross-die channels are pipelined with a few asynchronous latch stages
  // (GALS practice for long wires); deadlock freedom does not depend on
  // the depth — the fanin arbiters are work-conserving (see
  // nodes/fanin_node.h).
  const std::uint32_t leaf_level = levels - 1;
  index = plan.middle_links() + std::size_t{t} * n;
  for (std::uint32_t i = 0; i < topology_.nodes_at_level(leaf_level); ++i) {
    for (std::uint32_t c = 0; c < 2; ++c) {
      const std::uint32_t down_lane =
          plan.lane_of(topology_.leaf_dest(i, c));
      net_.place_channel(index++, *plan.middle_link,
                         *fanout[mot::MotTopology::heap_id(leaf_level, i)],
                         c, down_lane, crossed);
      if (down_lane != lane) ++crossed;
    }
  }

  // Fanin internal links: (level+1, j) output -> (level, j/2) input j%2.
  index = plan.fanin_links() + std::size_t{t} * (per_tree - 1);
  for (std::uint32_t level = 0; level + 1 < levels; ++level) {
    for (std::uint32_t j = 0; j < topology_.nodes_at_level(level + 1); ++j) {
      net_.place_channel(index++, *plan.fanin_link[level],
                         *fanin[mot::MotTopology::heap_id(level + 1, j)], 0,
                         *fanin[mot::MotTopology::heap_id(level, j / 2)],
                         j % 2);
    }
  }

  // Fanin root -> sink NI.
  net_.place_channel(plan.sink_links() + t, *plan.sink_link, *fanin[0], 0,
                     sink, 0);
}

void MotNetwork::attach_middle_links(const BuildPlan& plan,
                                     std::uint32_t first,
                                     std::uint32_t last) {
  // Fanin leaf j of tree t takes, on input p, the middle link from source
  // s = 2j + p (fanin_leaf_index(s), fanin_leaf_port(s)): channel t of
  // source s's run. Walking one tree's leaves alone would touch one
  // channel per source run, n channels apart; a tile of kTile trees takes
  // kTile adjacent channels from each run instead, while each tree's
  // leaves are still walked in memory order.
  constexpr std::uint32_t kTile = 64;
  const std::uint32_t first_leaf =
      mot::MotTopology::heap_id(topology_.levels() - 1, 0);
  for (std::uint32_t tile = first; tile < last; tile += kTile) {
    const std::uint32_t tile_end = std::min(last, tile + kTile);
    for (std::uint32_t s = 0; s < plan.n; ++s) {
      const std::size_t run = plan.middle_links() + std::size_t{s} * plan.n;
      const std::size_t leaf = first_leaf + s / 2;
      for (std::uint32_t t = tile; t < tile_end; ++t) {
        net_.placed_channel(run + t).connect_downstream(
            net_.placed_node<nodes::FaninNode>(std::size_t{t} *
                                                   plan.per_tree +
                                               leaf),
            s % 2);
      }
    }
  }
}

noc::MessageId MotNetwork::send_message(std::uint32_t src,
                                        noc::DestSet dests, bool measured) {
  SPECNOC_EXPECTS(src < topology_.n());
  SPECNOC_EXPECTS(dests.any());
  SPECNOC_EXPECTS(dests.within(topology_.n()));
  noc::SourceNode& source = net_.source(src);
  // The source's own lane clock: send_message may run inside a source-lane
  // event of a partitioned simulation, where the global clock is undefined
  // mid-window.
  const TimePs now = source.lane().now();
  const bool multicast = dests.is_multicast();
  noc::Message& msg =
      net_.packets().create_message(src, std::move(dests), now, measured);
  if (multicast && !traits(arch_).multicast_capable) {
    // Serial multicast: one unicast copy per destination, in ascending
    // destination order, queued back-to-back at the source NI.
    msg.dests.for_each_dest([&](std::uint32_t d) {
      source.enqueue_packet(net_.packets().create_packet(
          msg, noc::DestSet::single(d), config_.flits_per_packet));
    });
  } else {
    source.enqueue_packet(net_.packets().create_packet(
        msg, msg.dests, config_.flits_per_packet));
  }
  return msg.id;
}

std::uint32_t MotNetwork::address_bits() const {
  if (arch_ == Architecture::kBaseline) {
    return mot::SourceRouteEncoder::baseline_unicast_bits(topology_);
  }
  return encoder_.address_bits();
}

AreaUm2 MotNetwork::total_node_area() const {
  AreaUm2 total = 0.0;
  for (const auto& node : net_.nodes()) {
    total += config_.chars_for(node->kind()).area_um2;
  }
  return total;
}

}  // namespace specnoc::core
