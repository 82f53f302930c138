// E1 — Section 5.2(a): node-level area and forward latency.
//
// Area and the characterized forward latencies come from the model's
// per-kind table (paper-published values); the latency column labeled
// "simulated" is measured by driving one flit through an isolated node
// instance in the event simulator with zero-delay channels — validating
// that the behavioural models realize their characterized latencies.
#include <memory>

#include "bench_common.h"
#include "core/mot_network.h"
#include "noc/channel.h"
#include "noc/network.h"
#include "nodes/fanin_node.h"
#include "nodes/fanout_nodes.h"

using namespace specnoc;
using specnoc::bench::HarnessOptions;

namespace {

/// Minimal endpoints for isolated-node micro-simulation.
class ProbeSink final : public noc::Node {
 public:
  ProbeSink(sim::Scheduler& s, noc::SimHooks& h)
      : Node(s, h, noc::NodeKind::kSink, 1, 0) {}
  void deliver(const noc::Flit&, std::uint32_t port) override {
    if (first_arrival < 0) first_arrival = sched().now();
    input(port).ack();
  }
  void on_output_ack(std::uint32_t) override {}
  TimePs first_arrival = -1;
};

class ProbeDriver final : public noc::Node {
 public:
  ProbeDriver(sim::Scheduler& s, noc::SimHooks& h)
      : Node(s, h, noc::NodeKind::kSource, 0, 1) {}
  void deliver(const noc::Flit&, std::uint32_t) override {}
  void on_output_ack(std::uint32_t) override {}
  void send(const noc::Flit& flit) { output(0).send(flit); }
};

/// Drives one header through a fanout node built by `make_node` and returns
/// the input-to-output latency observed at the top output.
template <typename MakeNode>
TimePs measure_fanout_latency(MakeNode&& make_node) {
  sim::Scheduler sched;
  noc::SimHooks hooks;
  noc::PacketStore store;
  ProbeDriver driver(sched, hooks);
  ProbeSink top(sched, hooks), bottom(sched, hooks);
  auto node = make_node(sched, hooks);
  const noc::ChannelSpec link{{}};
  noc::WireChannel in(link), out0(link), out1(link);
  in.connect(driver, 0, *node, 0);
  out0.connect(*node, 0, top, 0);
  out1.connect(*node, 1, bottom, 0);
  const noc::Message& msg = store.create_message(0, noc::DestSet::single(0), 0,
                                                 false);
  const noc::Packet& pkt = store.create_packet(msg, noc::DestSet::single(0), 1);
  driver.send(noc::make_flit(pkt, 0));
  sched.run();
  return top.first_arrival;
}

TimePs measure_fanin_latency() {
  sim::Scheduler sched;
  noc::SimHooks hooks;
  noc::PacketStore store;
  ProbeDriver driver(sched, hooks);
  ProbeSink sink(sched, hooks);
  const nodes::FaninSpec spec{
      nodes::default_characteristics(noc::NodeKind::kFanin)};
  nodes::FaninNode node(sched, hooks, spec);
  const noc::ChannelSpec link{{}};
  noc::WireChannel in(link), out(link);
  in.connect(driver, 0, node, 0);
  out.connect(node, 0, sink, 0);
  const noc::Message& msg = store.create_message(0, noc::DestSet::single(0), 0,
                                                 false);
  const noc::Packet& pkt = store.create_packet(msg, noc::DestSet::single(0), 1);
  driver.send(noc::make_flit(pkt, 0));
  sched.run();
  return sink.first_arrival;
}

}  // namespace

int main(int argc, char** argv) {
  const HarnessOptions opts = specnoc::bench::parse_args(
      argc, argv, "bench_node_level",
      "Section 5.2(a): node-level characteristics.");

  struct Row {
    noc::NodeKind kind;
    const char* paper_area;
    const char* paper_latency;
  };
  const Row rows[] = {
      {noc::NodeKind::kFanoutBaseline, "342", "263"},
      {noc::NodeKind::kFanoutSpeculative, "247", "52"},
      {noc::NodeKind::kFanoutNonSpeculative, "406", "299"},
      {noc::NodeKind::kFanoutOptSpeculative, "373", "120"},
      {noc::NodeKind::kFanoutOptNonSpeculative, "366", "279"},
      {noc::NodeKind::kFanin, "(n/a)", "(n/a)"},
  };

  Table table({"Node", "Area um^2 (paper)", "Fwd ps (paper)",
               "Fwd ps (model)", "Fwd ps (simulated)", "Body ps (model)"});
  for (const Row& row : rows) {
    const auto& chars = nodes::default_characteristics(row.kind);
    TimePs simulated = -1;
    switch (row.kind) {
      case noc::NodeKind::kFanoutBaseline:
        simulated = measure_fanout_latency([&](auto& s, auto& h) {
          return std::make_unique<nodes::BaselineFanoutNode>(
              s, h, chars, noc::DestRange{0, 1},
              noc::DestRange{1, 2});
        });
        break;
      case noc::NodeKind::kFanoutSpeculative:
        simulated = measure_fanout_latency([&](auto& s, auto& h) {
          return std::make_unique<nodes::SpecFanoutNode>(
              s, h, chars, noc::DestRange{0, 1},
              noc::DestRange{1, 2});
        });
        break;
      case noc::NodeKind::kFanoutNonSpeculative:
        simulated = measure_fanout_latency([&](auto& s, auto& h) {
          return std::make_unique<nodes::NonSpecFanoutNode>(
              s, h, chars, noc::DestRange{0, 1},
              noc::DestRange{1, 2});
        });
        break;
      case noc::NodeKind::kFanoutOptSpeculative:
        simulated = measure_fanout_latency([&](auto& s, auto& h) {
          return std::make_unique<nodes::OptSpecFanoutNode>(
              s, h, chars, noc::DestRange{0, 1},
              noc::DestRange{1, 2});
        });
        break;
      case noc::NodeKind::kFanoutOptNonSpeculative:
        simulated = measure_fanout_latency([&](auto& s, auto& h) {
          return std::make_unique<nodes::OptNonSpecFanoutNode>(
              s, h, chars, noc::DestRange{0, 1},
              noc::DestRange{1, 2});
        });
        break;
      case noc::NodeKind::kFanin:
        simulated = measure_fanin_latency();
        break;
      default:
        break;
    }
    table.add_row({to_string(row.kind),
                   std::string(row.paper_area),
                   std::string(row.paper_latency),
                   cell(static_cast<long long>(chars.fwd_header)),
                   cell(static_cast<long long>(simulated)),
                   cell(static_cast<long long>(chars.fwd_body))});
  }
  specnoc::bench::emit(table, "Section 5.2(a): node-level characteristics",
                       opts);
  specnoc::bench::note(
      "Fanin characteristics are assumed (not reported in the paper); "
      "they are identical across all six networks so they cancel in every "
      "architecture comparison.",
      opts);

  // Network-level switch area per architecture (derived; the speculative
  // designs trade bigger multicast-capable nodes for tiny broadcast ones).
  Table area({"Architecture", "8x8 switch area (um^2)",
              "16x16 switch area (um^2)"});
  for (const auto arch : core::all_architectures()) {
    core::NetworkConfig cfg8;
    core::NetworkConfig cfg16;
    cfg16.n = 16;
    area.add_row({to_string(arch),
                  cell(core::MotNetwork(arch, cfg8).total_node_area(), 0),
                  cell(core::MotNetwork(arch, cfg16).total_node_area(), 0)});
  }
  specnoc::bench::emit(area, "Network-level switch area (derived)", opts);
  return 0;
}
