// The packed node header: site fields and the fixed-size port table.
#include "noc/node.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "noc/channel.h"
#include "sim/scheduler.h"

namespace specnoc::noc {
namespace {

/// A node with given port counts and no behaviour.
class PortNode final : public Node {
 public:
  PortNode(sim::Scheduler& scheduler, SimHooks& hooks, std::uint32_t inputs,
           std::uint32_t outputs)
      : Node(scheduler, hooks, NodeKind::kFanin, inputs, outputs) {}
  void deliver(const Flit&, std::uint32_t) override {}
  void on_output_ack(std::uint32_t) override {}
};

TEST(NodeSiteTest, PackedSiteRoundTrips) {
  sim::Scheduler sched;
  SimHooks hooks;
  PortNode node(sched, hooks, 2, 1);
  EXPECT_EQ(node.site().level, -1);  // unlevelled until a builder sets it
  for (std::int32_t level = -1; level <= 11; ++level) {
    for (const std::uint32_t id : {0u, 1u, 4095u}) {
      node.set_site({.tree = id, .level = level, .index = 4095 - id});
      const NodeSite site = node.site();
      EXPECT_EQ(site.tree, id);
      EXPECT_EQ(site.level, level);
      EXPECT_EQ(site.index, 4095 - id);
    }
  }
  node.set_site({.tree = 4095, .level = 11, .index = 4095});
  EXPECT_EQ(node.name(), "fi4095.l11i4095");
}

TEST(NodePortTableTest, EveryPortKeepsItsChannel) {
  sim::Scheduler sched;
  SimHooks hooks;
  const ChannelSpec spec{};
  // Up to three ports fit the inline table; a mesh router's 5 + 5 do not.
  for (const auto& [inputs, outputs] :
       {std::pair{1u, 2u}, std::pair{2u, 1u}, std::pair{5u, 5u}}) {
    SCOPED_TRACE(std::to_string(inputs) + "+" + std::to_string(outputs));
    PortNode node(sched, hooks, inputs, outputs);
    PortNode peer(sched, hooks, outputs, inputs);
    for (std::uint32_t p = 0; p < inputs; ++p) {
      EXPECT_EQ(node.input_channel(p), nullptr);
    }
    // Wired in reverse port order, so attach order is not slot order.
    std::vector<std::unique_ptr<WireChannel>> in(inputs);
    std::vector<std::unique_ptr<WireChannel>> out(outputs);
    for (std::uint32_t p = inputs; p-- > 0;) {
      in[p] = std::make_unique<WireChannel>(spec);
      in[p]->connect(peer, p, node, p);
    }
    for (std::uint32_t p = outputs; p-- > 0;) {
      out[p] = std::make_unique<WireChannel>(spec);
      out[p]->connect(node, p, peer, p);
    }
    EXPECT_EQ(node.num_inputs(), inputs);
    EXPECT_EQ(node.num_outputs(), outputs);
    for (std::uint32_t p = 0; p < inputs; ++p) {
      EXPECT_EQ(node.input_channel(p), in[p].get()) << p;
    }
    for (std::uint32_t p = 0; p < outputs; ++p) {
      EXPECT_EQ(node.output_channel(p), out[p].get()) << p;
    }
    EXPECT_EQ(node.input_channel(inputs), nullptr);
    EXPECT_EQ(node.output_channel(outputs), nullptr);
  }
}

}  // namespace
}  // namespace specnoc::noc
