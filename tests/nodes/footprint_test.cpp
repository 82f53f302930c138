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
// A channel stores only what it carries: the head flit rides in its
// delivery event, so a wire (capacity 1, one lane) is the 40-byte core in
// one cache line, and only pipes hold a ring and the cross-lane state.
// These static_asserts pin the result — growing any of them past the bound
// is a compile error on purpose (raise the bound consciously, with the RSS
// math in DESIGN.md §11 updated).
//
// Bounds are the measured x86-64 (libstdc++, -m64) sizes rounded up to the
// next 8 bytes of headroom; they are ceilings, not exact layouts. The
// channels, FaninNode and the fanout nodes — every object of a radix-1024
// build but its 2,048 network interfaces — are pinned exactly: none stores
// a name (names are derived on demand) and none has headroom left. A wire
// channel is one whole line; a pipe channel's 96 bytes at 32-byte
// alignment always span exactly two, and one byte more would cost 128.
// FaninNode is three whole lines and the fanout nodes two, the first of
// them the node header.
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
static_assert(sizeof(noc::Channel) == 40,
              "the channel core grew — both layouts carry it");
static_assert(sizeof(noc::WireChannel) == 64 &&
                  alignof(noc::WireChannel) == 64,
              "WireChannel is no longer one cache line — at radix 1024 "
              "there are ~2.1M of these; keep pipe state out of them");
static_assert(sizeof(noc::PipeChannel) == 96 &&
                  alignof(noc::PipeChannel) == 32,
              "PipeChannel no longer spans exactly two cache lines — at "
              "radix 1024 there are ~1M of these");
static_assert(sizeof(nodes::FaninNode) == 192 &&
                  alignof(nodes::FaninNode) == 64,
              "FaninNode is no longer three cache lines — input FIFOs must "
              "stay inline, flags in their tail padding");
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
  RecordProperty("WireChannel", static_cast<int>(sizeof(noc::WireChannel)));
  RecordProperty("PipeChannel", static_cast<int>(sizeof(noc::PipeChannel)));
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
