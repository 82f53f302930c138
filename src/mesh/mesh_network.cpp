#include "mesh/mesh_network.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <string>
#include <vector>

#include "nodes/characteristics.h"
#include "util/contract.h"
#include "util/error.h"
#include "util/intern.h"

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
  // Link specs, interned once and shared by every link of their class;
  // one mesh hop is the lookahead.
  const auto link = [this](LengthUm length, noc::ChannelClass klass)
      -> const noc::ChannelSpec& {
    return util::intern(noc::ChannelSpec{
        link_params(length, config_.wire_delay_ps_per_um), klass});
  };
  const noc::ChannelSpec& inject =
      link(config_.interface_link_um, noc::ChannelClass::kMeshInject);
  const noc::ChannelSpec& eject =
      link(config_.interface_link_um, noc::ChannelClass::kMeshEject);
  const noc::ChannelSpec& hop =
      link(config_.link_length_um, noc::ChannelClass::kMeshHop);
  const TimePs lookahead =
      std::min(hop.params.delay_fwd, hop.params.delay_ack);
  if (config_.sim_threads == 1 || lookahead <= 0) lanes = 1;
  net_.enable_partitions(lanes, lookahead);
  net_.set_worker_threads(config_.sim_threads);
  const std::uint32_t num_lanes = net_.partitions();
  const auto lane_of = [this, num_lanes](std::uint32_t id) {
    return topology_.y_of(id) * num_lanes / config_.rows;
  };

  // Pools are sized exactly and each object placed at its structural slot:
  // endpoint t's interfaces at slot t, a router at its rank among the
  // routers of its kind. nodes() order is sources, sinks, routers by id.
  std::vector<std::uint32_t> rank(n);
  std::array<std::uint32_t, 2> of_kind{};  // [speculative]
  for (std::uint32_t id = 0; id < n; ++id) {
    rank[id] = of_kind[speculative(id)]++;
  }
  net_.reserve_nodes<noc::SourceNode>(noc::NodeKind::kSource, n);
  net_.reserve_nodes<noc::SinkNode>(noc::NodeKind::kSink, n);
  if (of_kind[0] > 0) {
    net_.reserve_nodes<MeshRouter>(noc::NodeKind::kMeshRouter, of_kind[0]);
  }
  if (of_kind[1] > 0) {
    net_.reserve_nodes<SpecMeshRouter>(noc::NodeKind::kMeshRouterSpec,
                                       of_kind[1]);
  }
  net_.add_nodes<noc::SourceNode>(0, n);
  net_.add_nodes<noc::SinkNode>(0, n);
  for (std::uint32_t id = 0; id < n; ++id) {
    if (speculative(id)) {
      net_.add_nodes<SpecMeshRouter>(rank[id], 1);
    } else {
      net_.add_nodes<MeshRouter>(rank[id], 1);
    }
  }

  // channels() order: per router, inject, eject, then the eastward and
  // southward links (one channel per direction per pair). Only a
  // southward pair between two row bands crosses lanes.
  for (std::uint32_t id = 0; id < n; ++id) {
    net_.add_channels(inject, 1, false);
    net_.add_channels(eject, 1, false);
    for (const Port port : {Port::kEast, Port::kSouth}) {
      if (!topology_.has_neighbor(id, port)) continue;
      net_.add_channels(hop, 2,
                        lane_of(id) != lane_of(topology_.neighbor(id, port)));
    }
  }
  net_.reserve_channels();

  for (std::uint32_t s = 0; s < n; ++s) {
    net_.place_node<noc::SourceNode>(s, lane_of(s), s,
                                     config_.source_issue_delay);
  }
  for (std::uint32_t d = 0; d < n; ++d) {
    net_.place_node<noc::SinkNode>(d, lane_of(d), d,
                                   config_.sink_consume_delay);
  }
  routers_.reserve(n);
  for (std::uint32_t id = 0; id < n; ++id) {
    if (speculative(id)) {
      routers_.push_back(&net_.place_node<SpecMeshRouter>(
          rank[id], lane_of(id), spec_chars, topology_, id,
          config_.router_buffer_flits, config_.sticky_timeout));
    } else {
      routers_.push_back(&net_.place_node<MeshRouter>(
          rank[id], lane_of(id), chars, topology_, id,
          config_.router_buffer_flits, config_.sticky_timeout));
    }
    // Mesh routers are not part of a levelled tree (level stays -1).
    routers_.back()->set_site({id, -1, id});
  }

  // A hop between row bands is split with the next mail index: the count
  // of cross channels before it in channels() order.
  const auto local_port = static_cast<std::uint32_t>(Port::kLocal);
  std::size_t index = 0;
  std::uint32_t crossed = 0;
  const auto place_hop = [&](std::uint32_t up, Port up_port,
                             std::uint32_t down, Port down_port) {
    MeshRouter& down_router = *routers_[down];
    net_.place_channel(index++, hop, *routers_[up],
                       static_cast<std::uint32_t>(up_port),
                       down_router.partition(), crossed)
        .connect_downstream(down_router,
                            static_cast<std::uint32_t>(down_port));
    if (lane_of(up) != lane_of(down)) ++crossed;
  };
  for (std::uint32_t id = 0; id < n; ++id) {
    net_.place_channel(index++, inject, net_.source(id), 0, *routers_[id],
                       local_port);
    net_.place_channel(index++, eject, *routers_[id], local_port,
                       net_.sink(id), 0);
    for (const Port port : {Port::kEast, Port::kSouth}) {
      if (!topology_.has_neighbor(id, port)) continue;
      const std::uint32_t peer = topology_.neighbor(id, port);
      const Port back = port == Port::kEast ? Port::kWest : Port::kNorth;
      place_hop(id, port, peer, back);
      place_hop(peer, back, id, port);
    }
  }
}

noc::MessageId MeshNetwork::send_message(std::uint32_t src,
                                         noc::DestSet dests,
                                         bool measured) {
  SPECNOC_EXPECTS(src < topology_.n());
  SPECNOC_EXPECTS(dests.any());
  SPECNOC_EXPECTS(dests.within(topology_.n()));
  noc::SourceNode& source = net_.source(src);
  // The source's own lane clock (== the global clock when sequential).
  const bool multicast = dests.is_multicast();
  noc::Message& msg = net_.packets().create_message(
      src, std::move(dests), source.lane().now(), measured);
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
