// A two-node network built the way the topology builders build one: pools
// reserved, the channel declared, then every object placed at its slot.
#pragma once

#include <cstdint>

#include "noc/network.h"
#include "util/intern.h"

namespace specnoc::testing {

struct NetworkPair {
  noc::SourceNode& source;
  noc::SinkNode& sink;
  noc::Channel& channel;
};

/// Source 0 (on partition 0) and a sink for endpoint `dest` (on
/// `sink_partition`), joined by one channel of (`params`, `klass`). A
/// channel between two partitions is split with mail index 0.
inline NetworkPair build_pair(noc::Network& net,
                              const noc::ChannelParams& params,
                              noc::ChannelClass klass,
                              TimePs issue_delay = 0, std::uint32_t dest = 0,
                              TimePs consume_delay = 0,
                              std::uint32_t sink_partition = 0) {
  const noc::ChannelSpec& spec = util::intern(noc::ChannelSpec{params, klass});
  net.reserve_nodes<noc::SourceNode>(noc::NodeKind::kSource, 1);
  net.reserve_nodes<noc::SinkNode>(noc::NodeKind::kSink, 1);
  net.add_nodes<noc::SourceNode>(0, 1);
  net.add_nodes<noc::SinkNode>(0, 1);
  net.add_channels(spec, 1, sink_partition != 0);
  net.reserve_channels();
  auto& source = net.place_node<noc::SourceNode>(0, 0, 0u, issue_delay);
  auto& sink = net.place_node<noc::SinkNode>(0, sink_partition, dest,
                                             consume_delay);
  noc::Channel& channel =
      net.place_channel(0, spec, source, 0, sink_partition, 0);
  channel.connect_downstream(sink, 0);
  return {source, sink, channel};
}

}  // namespace specnoc::testing
