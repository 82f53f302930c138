// Per-node memory footprint regression pins.
//
// At 1024 endpoints a MoT network holds ~2M nodes and ~3M channels, so
// every byte of per-object state is megabytes of RSS. Each object keeps
// only state it writes during a run or that structure cannot give back:
// bounded-ring FIFOs instead of std::deque (80-byte object + ~600-byte
// heap map each), shared NodeCharacteristics, FaninSpec and ChannelSpec
// records behind one pointer, 16-bit ring counters, flag bytes instead of
// bools, and a 64-byte node header whose port table holds three channel
// pointers inline. A channel has no scheduler, flit counter or port
// numbers of its own: its endpoints give its schedulers, hooks and ports,
// and each half packs its flags with the other half's lane into 16 bits.
// These static_asserts pin the result — growing any of them past the bound
// is a compile error on purpose (raise the bound consciously, with the RSS
// math in DESIGN.md §11 updated).
//
// Bounds are the measured x86-64 (libstdc++, -m64) sizes rounded up to the
// next 8 bytes of headroom; they are ceilings, not exact layouts. Channel,
// FaninNode and the fanout nodes — every object of a radix-1024 build but
// its 2,048 network interfaces — are pinned at their measured sizes: none
// stores a name (names are derived on demand) and none has headroom left.
// Channel is pinned exactly: 96 bytes at 32-byte alignment always spans
// exactly two cache lines, and one byte more would cost 128. The fanout
// nodes are two whole lines, the first of them the node header.
//
// The event kernel is pinned too: a partitioned radix-1024 run keeps one
// Scheduler and one event slab per lane, 1024 of each. A slab entry is one
// cache line, a slab chunk one 4 KiB page, and a Scheduler (mostly its
// 1024-bucket ring) under 9 KiB.
#include <gtest/gtest.h>

#include "mesh/mesh_router.h"
#include "noc/channel.h"
#include "noc/node.h"
#include "noc/sink.h"
#include "noc/source.h"
#include "nodes/fanin_node.h"
#include "nodes/fanout_nodes.h"
#include "sim/bucket_queue.h"
#include "sim/scheduler.h"

namespace specnoc {
namespace {

static_assert(sizeof(noc::Node) <= 64,
              "Node header grew past one cache line — keep it build-only");
static_assert(sizeof(noc::Channel) == 96 && alignof(noc::Channel) == 32,
              "Channel no longer spans exactly two cache lines — at radix "
              "1024 there are ~3M of these; keep derived state out of it");
static_assert(sizeof(nodes::FaninNode) <= 208,
              "FaninNode footprint grew — input FIFOs must stay inline");
template <typename T>
constexpr bool kTwoLineFanout = sizeof(T) == 128 && alignof(T) == 64;
static_assert(kTwoLineFanout<nodes::BaselineFanoutNode>,
              "fanout node is no longer two cache lines");
static_assert(kTwoLineFanout<nodes::SpecFanoutNode>,
              "fanout node is no longer two cache lines");
static_assert(kTwoLineFanout<nodes::NonSpecFanoutNode>,
              "fanout node is no longer two cache lines");
static_assert(kTwoLineFanout<nodes::OptSpecFanoutNode>,
              "fanout node is no longer two cache lines");
static_assert(kTwoLineFanout<nodes::OptNonSpecFanoutNode>,
              "fanout node is no longer two cache lines");
static_assert(sizeof(noc::SourceNode) <= 232, "SourceNode footprint grew");
static_assert(sizeof(noc::SinkNode) <= 104, "SinkNode footprint grew");
static_assert(sizeof(mesh::MeshRouter) <= 688,
              "MeshRouter footprint grew (5 ports; still worth watching)");
static_assert(sizeof(sim::BucketQueue::Entry) == 64,
              "event slab entry is no longer one cache line");
static_assert(sim::BucketQueue::kChunkEntries *
                      sizeof(sim::BucketQueue::Entry) ==
                  4096,
              "event slab chunk is no longer one 4 KiB page");
static_assert(sizeof(sim::Scheduler) <= 9 * 1024,
              "Scheduler grew — a partitioned run keeps one per lane");

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
  RecordProperty("EventEntry",
                 static_cast<int>(sizeof(sim::BucketQueue::Entry)));
  RecordProperty("EventChunk",
                 static_cast<int>(sim::BucketQueue::kChunkEntries *
                                  sizeof(sim::BucketQueue::Entry)));
  RecordProperty("Scheduler", static_cast<int>(sizeof(sim::Scheduler)));
  SUCCEED();
}

}  // namespace
}  // namespace specnoc
