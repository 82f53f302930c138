// Test doubles for exercising channels and switch nodes in isolation.
#pragma once

#include <functional>
#include <vector>

#include "noc/channel.h"
#include "noc/node.h"
#include "noc/packet.h"

namespace specnoc::testing {

/// Records every flit delivered on its one input and acks after a fixed
/// delay (or manually).
class RecordingEndpoint : public noc::Node {
 public:
  struct Delivery {
    noc::Flit flit;
    std::uint32_t port;
    TimePs when;
  };

  RecordingEndpoint(sim::Scheduler& scheduler, noc::SimHooks& hooks,
                    TimePs ack_delay = 0, bool auto_ack = true)
      : Node(scheduler, hooks, noc::NodeKind::kSink, 1, 0),
        ack_delay_(ack_delay), auto_ack_(auto_ack) {}

  void deliver(const noc::Flit& flit, std::uint32_t in_port) override {
    deliveries.push_back({flit, in_port, sched().now()});
    if (auto_ack_) {
      sched().schedule(ack_delay_, [this, in_port] { input(in_port).ack(); });
    }
  }

  void on_output_ack(std::uint32_t) override {}

  /// Manual ack of the most recent delivery's port (auto_ack = false mode).
  void ack_port(std::uint32_t port) { input(port).ack(); }

  std::vector<Delivery> deliveries;

 private:
  TimePs ack_delay_;
  bool auto_ack_;
};

/// Upstream driver: exposes send on its one output and records acks.
class DriverEndpoint : public noc::Node {
 public:
  DriverEndpoint(sim::Scheduler& scheduler, noc::SimHooks& hooks)
      : Node(scheduler, hooks, noc::NodeKind::kSource, 0, 1) {}

  void deliver(const noc::Flit&, std::uint32_t) override {
    SPECNOC_UNREACHABLE("driver has no inputs");
  }

  void on_output_ack(std::uint32_t out_port) override {
    ack_times.push_back({out_port, sched().now()});
    if (on_ack) on_ack(out_port);
  }

  void send(std::uint32_t port, const noc::Flit& flit) {
    output(port).send(flit);
  }

  bool output_free(std::uint32_t port) { return output(port).free(); }

  std::vector<std::pair<std::uint32_t, TimePs>> ack_times;
  std::function<void(std::uint32_t)> on_ack;
};

}  // namespace specnoc::testing
