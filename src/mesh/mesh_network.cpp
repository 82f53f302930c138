#include "mesh/mesh_network.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "nodes/characteristics.h"
#include "util/contract.h"
#include "util/error.h"

namespace specnoc::mesh {
namespace {

noc::ChannelParams link_params(LengthUm length, double ps_per_um) {
  noc::ChannelParams params;
  params.length = length;
  params.delay_fwd =
      static_cast<TimePs>(std::llround(length * ps_per_um));
  params.delay_ack = params.delay_fwd;
  return params;
}

}  // namespace

MeshNetwork::MeshNetwork(MeshConfig config)
    : config_(config), topology_(config.cols, config.rows) {
  build();
}

void MeshNetwork::build() {
  const std::uint32_t n = topology_.n();
  // Router characteristics, interned once per kind and shared by every
  // router of that kind.
  const auto interned = [this](noc::NodeKind kind)
      -> const nodes::NodeCharacteristics& {
    nodes::NodeCharacteristics chars = nodes::default_characteristics(kind);
    chars.clock_period = config_.clock_period;
    return nodes::intern_characteristics(chars);
  };
  const nodes::NodeCharacteristics& chars =
      interned(noc::NodeKind::kMeshRouter);
  const nodes::NodeCharacteristics& spec_chars =
      interned(noc::NodeKind::kMeshRouterSpec);

  // Validate the speculative placement: every redundant copy must meet a
  // non-speculative filter one hop from the speculative router that
  // created it, or copies propagate (and can loop) along speculative
  // chains.
  if (n < 64 && (config_.speculative_routers >> n) != 0) {
    throw ConfigError("speculative router id out of range");
  }
  for (std::uint32_t id = 0; id < n; ++id) {
    if (!speculative(id)) continue;
    for (const Port port :
         {Port::kNorth, Port::kEast, Port::kSouth, Port::kWest}) {
      if (topology_.has_neighbor(id, port) &&
          speculative(topology_.neighbor(id, port))) {
        throw ConfigError(
            "adjacent speculative mesh routers are illegal (ids " +
            std::to_string(id) + " and " +
            std::to_string(topology_.neighbor(id, port)) + ")");
      }
    }
  }

  // Partition plan: one lane per router row. Only the vertical (south /
  // north) hop links cross rows, so one mesh hop is the conservative
  // lookahead. Endpoint interfaces share their router's row lane.
  std::uint32_t lanes = 1;
  switch (config_.partition) {
    case noc::PartitionStrategy::kNone:
      lanes = 1;
      break;
    case noc::PartitionStrategy::kAuto:
    case noc::PartitionStrategy::kRows:
      lanes = config_.rows;
      break;
    case noc::PartitionStrategy::kTree:
    case noc::PartitionStrategy::kQuadrant:
      throw ConfigError("partition strategy '" +
                        std::string(to_string(config_.partition)) +
                        "' applies to MoT networks only (valid strategies "
                        "for mesh: auto, none, rows)");
  }
  const auto hop_probe =
      link_params(config_.link_length_um, config_.wire_delay_ps_per_um);
  const TimePs lookahead = std::min(hop_probe.delay_fwd, hop_probe.delay_ack);
  if (config_.sim_threads == 1 || lookahead <= 0) lanes = 1;
  net_.enable_partitions(lanes, lookahead);
  net_.set_worker_threads(config_.sim_threads);
  const std::uint32_t num_lanes = net_.partitions();
  const auto lane_of = [this, num_lanes](std::uint32_t id) {
    return topology_.y_of(id) * num_lanes / config_.rows;
  };
  for (std::uint32_t s = 0; s < n; ++s) {
    net_.set_build_partition(lane_of(s));
    net_.register_source(
        net_.add_node<noc::SourceNode>(s, config_.source_issue_delay));
  }
  for (std::uint32_t d = 0; d < n; ++d) {
    net_.set_build_partition(lane_of(d));
    net_.register_sink(
        net_.add_node<noc::SinkNode>(d, config_.sink_consume_delay));
  }

  routers_.reserve(n);
  for (std::uint32_t id = 0; id < n; ++id) {
    net_.set_build_partition(lane_of(id));
    if (speculative(id)) {
      routers_.push_back(&net_.add_node<SpecMeshRouter>(
          spec_chars, topology_, id, config_.router_buffer_flits,
          config_.sticky_timeout));
    } else {
      routers_.push_back(&net_.add_node<MeshRouter>(
          chars, topology_, id, config_.router_buffer_flits,
          config_.sticky_timeout));
    }
    // Mesh routers are not part of a levelled tree (level stays -1).
    routers_.back()->set_site({id, -1, id});
  }

  const auto local_link =
      link_params(config_.interface_link_um, config_.wire_delay_ps_per_um);
  const auto hop_link =
      link_params(config_.link_length_um, config_.wire_delay_ps_per_um);
  const auto local_port = static_cast<std::uint32_t>(Port::kLocal);

  for (std::uint32_t id = 0; id < n; ++id) {
    net_.add_channel(local_link, noc::ChannelClass::kMeshInject,
                     net_.source(id), 0, *routers_[id], local_port);
    net_.add_channel(local_link, noc::ChannelClass::kMeshEject, *routers_[id],
                     local_port, net_.sink(id), 0);
    // Eastward and southward links (one channel per direction per pair).
    for (const Port port : {Port::kEast, Port::kSouth}) {
      if (!topology_.has_neighbor(id, port)) continue;
      const std::uint32_t peer = topology_.neighbor(id, port);
      const Port back = port == Port::kEast ? Port::kWest : Port::kNorth;
      net_.add_channel(hop_link, noc::ChannelClass::kMeshHop, *routers_[id],
                       static_cast<std::uint32_t>(port), *routers_[peer],
                       static_cast<std::uint32_t>(back));
      net_.add_channel(hop_link, noc::ChannelClass::kMeshHop, *routers_[peer],
                       static_cast<std::uint32_t>(back), *routers_[id],
                       static_cast<std::uint32_t>(port));
    }
  }
}

noc::MessageId MeshNetwork::send_message(std::uint32_t src,
                                         noc::DestSet dests,
                                         bool measured) {
  SPECNOC_EXPECTS(src < topology_.n());
  SPECNOC_EXPECTS(dests.any());
  SPECNOC_EXPECTS(dests.within(topology_.n()));
  // The source's own lane clock (== the global clock when sequential).
  const bool multicast = dests.is_multicast();
  noc::Message& msg = net_.packets().create_message(
      src, std::move(dests), net_.source(src).lane().now(), measured);
  noc::SourceNode& source = net_.source(src);
  if (multicast && config_.multicast == MulticastMode::kSerial) {
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

std::uint64_t MeshNetwork::checkerboard_speculation(
    const MeshTopology& topology) {
  std::uint64_t mask = 0;
  for (std::uint32_t id = 0; id < topology.n(); ++id) {
    if ((topology.x_of(id) + topology.y_of(id)) % 2 == 0) {
      mask |= std::uint64_t{1} << id;
    }
  }
  return mask;
}

std::uint64_t MeshNetwork::sparse_speculation(const MeshTopology& topology) {
  std::uint64_t mask = 0;
  for (std::uint32_t id = 0; id < topology.n(); ++id) {
    if (topology.x_of(id) % 2 == 0 && topology.y_of(id) % 2 == 0) {
      mask |= std::uint64_t{1} << id;
    }
  }
  return mask;
}

AreaUm2 MeshNetwork::total_node_area() const {
  AreaUm2 total = 0.0;
  for (const auto& node : net_.nodes()) {
    total += nodes::default_characteristics(node->kind()).area_um2;
  }
  return total;
}

}  // namespace specnoc::mesh
