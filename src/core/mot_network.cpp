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

/// Rejects a FIFO depth the bounded rings cannot hold.
void check_depth(const char* what, std::uint32_t flits) {
  if (flits < 1 || flits > util::kMaxRingCapacity) {
    throw ConfigError(std::string(what) + " must be in [1, " +
                      std::to_string(util::kMaxRingCapacity) + "], got " +
                      std::to_string(flits));
  }
}

}  // namespace

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
  const noc::ChannelParams middle_probe = layout_.middle_channel();
  const TimePs lookahead =
      std::min(middle_probe.delay_fwd, middle_probe.delay_ack);
  if (config_.sim_threads == 1 || lookahead <= 0) lanes = 1;
  net_.enable_partitions(lanes, lanes > 1 ? lookahead : 1);
  net_.set_worker_threads(config_.sim_threads);
  const std::uint32_t num_lanes = net_.partitions();
  const auto lane_of = [n, num_lanes](std::uint32_t tree) {
    return tree * num_lanes / n;
  };
  // Exact counts: 2n interfaces and n fanout plus n fanin trees of
  // nodes_per_tree switches; each tree has nodes_per_tree - 1 internal
  // links, plus n source and n sink links and n * n middle links.
  const std::size_t per_tree = topology_.nodes_per_tree();
  net_.reserve(2 * std::size_t{n} * (1 + per_tree),
               2 * std::size_t{n} * per_tree + std::size_t{n} * n);

  // Network interfaces.
  for (std::uint32_t s = 0; s < n; ++s) {
    net_.set_build_partition(lane_of(s));
    net_.register_source(net_.add_node<noc::SourceNode>(
        s, config_.source_issue_delay));
  }
  for (std::uint32_t d = 0; d < n; ++d) {
    net_.set_build_partition(lane_of(d));
    net_.register_sink(net_.add_node<noc::SinkNode>(
        d, config_.sink_consume_delay));
  }

  // Switch characteristics, interned once per node kind: every node of a
  // kind shares one value (interning locks and scans the process table).
  std::array<const nodes::NodeCharacteristics*, noc::all_node_kinds().size()>
      interned{};
  const auto chars_of =
      [&](noc::NodeKind kind) -> const nodes::NodeCharacteristics& {
    const nodes::NodeCharacteristics*& slot =
        interned[static_cast<std::size_t>(kind)];
    if (slot == nullptr) {
      nodes::NodeCharacteristics chars = config_.chars_for(kind);
      chars.clock_period = config_.clock_period;
      slot = &nodes::intern_characteristics(chars);
    }
    return *slot;
  };

  // Fanout trees.
  fanout_.resize(n);
  for (std::uint32_t s = 0; s < n; ++s) {
    net_.set_build_partition(lane_of(s));
    fanout_[s].resize(topology_.nodes_per_tree(), nullptr);
    for (std::uint32_t level = 0; level < levels; ++level) {
      for (std::uint32_t i = 0; i < topology_.nodes_at_level(level); ++i) {
        const bool spec = speculation_.speculative(level, i);
        const noc::NodeKind kind = fanout_kind(arch_, spec);
        const nodes::NodeCharacteristics& chars = chars_of(kind);
        const noc::DestRange top = topology_.subtree_span(level, i, 0);
        const noc::DestRange bottom = topology_.subtree_span(level, i, 1);
        nodes::FanoutNodeBase* node = nullptr;
        switch (kind) {
          case noc::NodeKind::kFanoutBaseline:
            node = &net_.add_node<nodes::BaselineFanoutNode>(chars, top,
                                                             bottom);
            break;
          case noc::NodeKind::kFanoutSpeculative:
            node = &net_.add_node<nodes::SpecFanoutNode>(chars, top, bottom);
            break;
          case noc::NodeKind::kFanoutNonSpeculative:
            node = &net_.add_node<nodes::NonSpecFanoutNode>(chars, top,
                                                            bottom);
            break;
          case noc::NodeKind::kFanoutOptSpeculative:
            node = &net_.add_node<nodes::OptSpecFanoutNode>(chars, top,
                                                            bottom);
            break;
          case noc::NodeKind::kFanoutOptNonSpeculative:
            node = &net_.add_node<nodes::OptNonSpecFanoutNode>(chars, top,
                                                               bottom);
            break;
          default:
            SPECNOC_UNREACHABLE("not a fanout node kind");
        }
        node->set_site({s, static_cast<std::int32_t>(level), i});
        fanout_[s][mot::MotTopology::heap_id(level, i)] = node;
      }
    }
  }

  // Fanin trees (identical arbiters in every architecture).
  fanin_.resize(n);
  const nodes::FaninSpec& fanin_spec = util::intern(nodes::FaninSpec{
      chars_of(noc::NodeKind::kFanin), config_.fanin_sticky_timeout});
  for (std::uint32_t d = 0; d < n; ++d) {
    net_.set_build_partition(lane_of(d));
    fanin_[d].resize(topology_.nodes_per_tree(), nullptr);
    for (std::uint32_t level = 0; level < levels; ++level) {
      for (std::uint32_t i = 0; i < topology_.nodes_at_level(level); ++i) {
        nodes::FaninNode& node = net_.add_node<nodes::FaninNode>(
            fanin_spec, config_.fanin_buffer_flits);
        node.set_site({d, static_cast<std::int32_t>(level), i});
        fanin_[d][mot::MotTopology::heap_id(level, i)] = &node;
      }
    }
  }

  // Source NI -> fanout root.
  for (std::uint32_t s = 0; s < n; ++s) {
    net_.add_channel(layout_.interface_channel(),
                     noc::ChannelClass::kSourceIf, net_.source(s), 0,
                     *fanout_[s][0], 0);
  }

  // Fanout internal links: (level, i) output c -> (level+1, 2i+c) input 0.
  for (std::uint32_t s = 0; s < n; ++s) {
    for (std::uint32_t level = 0; level + 1 < levels; ++level) {
      for (std::uint32_t i = 0; i < topology_.nodes_at_level(level); ++i) {
        for (std::uint32_t c = 0; c < 2; ++c) {
          net_.add_channel(
              layout_.tree_channel(level), noc::ChannelClass::kFanout,
              *fanout_[s][mot::MotTopology::heap_id(level, i)], c,
              *fanout_[s][mot::MotTopology::heap_id(level + 1, 2 * i + c)],
              0);
        }
      }
    }
  }

  // Middle links: fanout leaf (s, L-1, i) output c serves destination
  // d = 2i + c, landing at fanin leaf (d, L-1, s/2) input s%2. These long
  // cross-die channels are pipelined with a few asynchronous latch stages
  // (GALS practice for long wires); deadlock freedom does not depend on
  // the depth — the fanin arbiters are work-conserving (see
  // nodes/fanin_node.h).
  noc::ChannelParams middle = layout_.middle_channel();
  middle.capacity = config_.middle_channel_flits;
  const std::uint32_t leaf_level = levels - 1;
  for (std::uint32_t s = 0; s < n; ++s) {
    for (std::uint32_t i = 0; i < topology_.nodes_at_level(leaf_level); ++i) {
      for (std::uint32_t c = 0; c < 2; ++c) {
        const std::uint32_t d = topology_.leaf_dest(i, c);
        net_.add_channel(
            middle, noc::ChannelClass::kMiddle,
            *fanout_[s][mot::MotTopology::heap_id(leaf_level, i)], c,
            *fanin_[d][mot::MotTopology::heap_id(
                leaf_level, topology_.fanin_leaf_index(s))],
            topology_.fanin_leaf_port(s));
      }
    }
  }

  // Fanin internal links: (level+1, j) output -> (level, j/2) input j%2.
  for (std::uint32_t d = 0; d < n; ++d) {
    for (std::uint32_t level = 0; level + 1 < levels; ++level) {
      for (std::uint32_t j = 0; j < topology_.nodes_at_level(level + 1);
           ++j) {
        net_.add_channel(
            layout_.tree_channel(level), noc::ChannelClass::kFanin,
            *fanin_[d][mot::MotTopology::heap_id(level + 1, j)], 0,
            *fanin_[d][mot::MotTopology::heap_id(level, j / 2)], j % 2);
      }
    }
  }

  // Fanin root -> sink NI.
  for (std::uint32_t d = 0; d < n; ++d) {
    net_.add_channel(layout_.interface_channel(), noc::ChannelClass::kSinkIf,
                     *fanin_[d][0], 0, net_.sink(d), 0);
  }
}

noc::MessageId MotNetwork::send_message(std::uint32_t src,
                                        noc::DestSet dests, bool measured) {
  SPECNOC_EXPECTS(src < topology_.n());
  SPECNOC_EXPECTS(dests.any());
  SPECNOC_EXPECTS(dests.within(topology_.n()));
  // The source's own lane clock: send_message may run inside a source-lane
  // event of a partitioned simulation, where the global clock is undefined
  // mid-window.
  const TimePs now = net_.source(src).lane().now();
  const bool multicast = dests.is_multicast();
  noc::Message& msg =
      net_.packets().create_message(src, std::move(dests), now, measured);
  noc::SourceNode& source = net_.source(src);
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

nodes::FanoutNodeBase& MotNetwork::fanout_node(std::uint32_t tree,
                                               std::uint32_t level,
                                               std::uint32_t index) {
  return *fanout_.at(tree).at(mot::MotTopology::heap_id(level, index));
}

noc::Node& MotNetwork::fanin_node(std::uint32_t tree, std::uint32_t level,
                                  std::uint32_t index) {
  return *fanin_.at(tree).at(mot::MotTopology::heap_id(level, index));
}

}  // namespace specnoc::core
