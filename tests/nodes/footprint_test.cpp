// Per-node memory footprint regression pins.
//
// At 1024 endpoints a MoT network holds ~2M nodes and ~3M channels, so
// every byte of per-object state is megabytes of RSS. The arena refactor
// shrank these footprints deliberately: bounded-ring FIFOs replaced
// std::deque (80-byte object + ~600-byte heap map each), shared
// NodeCharacteristics are interned behind one pointer, port lists hold two
// inline slots, and a cross-partition channel's state is four inline
// integers (its lanes, mail key and in-flight credit count) with no heap
// behind them. A channel's parameters and class live in one interned
// ChannelSpec record (its hooks come from its endpoint nodes) and a fanin
// arbiter's timing and watchdog timeout in one interned FaninSpec, each
// behind one pointer; the rings count in 16 bits. These static_asserts
// pin the result — growing any of them past the bound is a compile error
// on purpose (raise the bound consciously, with the RSS math in DESIGN.md
// §11 updated).
//
// Bounds are the measured x86-64 (libstdc++, -m64) sizes rounded up to the
// next 8 bytes of headroom; they are ceilings, not exact layouts. Channel,
// FaninNode and the fanout nodes — every object of a radix-1024 build but
// its 2,048 network interfaces — are pinned at their measured sizes: none
// stores a name (names are derived on demand) and none has headroom left.
// Channel is pinned exactly: 128 bytes at 64-byte alignment is two whole
// cache lines per channel, and one byte more would cost a third.
#include <gtest/gtest.h>

#include "mesh/mesh_router.h"
#include "noc/channel.h"
#include "noc/node.h"
#include "noc/sink.h"
#include "noc/source.h"
#include "nodes/fanin_node.h"
#include "nodes/fanout_nodes.h"

namespace specnoc {
namespace {

static_assert(sizeof(noc::Node) <= 96, "Node footprint grew");
static_assert(sizeof(noc::Channel) == 128 && alignof(noc::Channel) == 64,
              "Channel is no longer two cache lines — at radix 1024 there "
              "are ~3M of these, a third of them cross-partition; keep the "
              "cross-partition state inline and the shared state in "
              "ChannelSpec");
static_assert(sizeof(nodes::FaninNode) <= 256,
              "FaninNode footprint grew — input FIFOs must stay inline");
static_assert(sizeof(nodes::BaselineFanoutNode) <= 176,
              "fanout node footprint grew");
static_assert(sizeof(nodes::SpecFanoutNode) <= 176,
              "fanout node footprint grew");
static_assert(sizeof(nodes::NonSpecFanoutNode) <= 176,
              "fanout node footprint grew");
static_assert(sizeof(nodes::OptSpecFanoutNode) <= 176,
              "fanout node footprint grew");
static_assert(sizeof(nodes::OptNonSpecFanoutNode) <= 176,
              "fanout node footprint grew");
static_assert(sizeof(noc::SourceNode) <= 264, "SourceNode footprint grew");
static_assert(sizeof(noc::SinkNode) <= 136, "SinkNode footprint grew");
static_assert(sizeof(mesh::MeshRouter) <= 720,
              "MeshRouter footprint grew (5 ports; still worth watching)");

// A runtime mirror so the suite reports the numbers (static_asserts alone
// are silent when green).
TEST(FootprintTest, ReportSizes) {
  RecordProperty("Node", static_cast<int>(sizeof(noc::Node)));
  RecordProperty("Channel", static_cast<int>(sizeof(noc::Channel)));
  RecordProperty("FaninNode", static_cast<int>(sizeof(nodes::FaninNode)));
  RecordProperty("OptSpecFanoutNode",
                 static_cast<int>(sizeof(nodes::OptSpecFanoutNode)));
  RecordProperty("SourceNode", static_cast<int>(sizeof(noc::SourceNode)));
  RecordProperty("SinkNode", static_cast<int>(sizeof(noc::SinkNode)));
  RecordProperty("MeshRouter", static_cast<int>(sizeof(mesh::MeshRouter)));
  SUCCEED();
}

}  // namespace
}  // namespace specnoc
