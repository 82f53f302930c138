#include "core/config.h"

#include <gtest/gtest.h>

#include "core/mot_network.h"
#include "util/error.h"

namespace specnoc::core {
namespace {

TEST(NetworkConfigTest, DefaultsMatchPaper) {
  NetworkConfig cfg;
  EXPECT_EQ(cfg.n, 8u);
  EXPECT_EQ(cfg.flits_per_packet, 5u);
  EXPECT_EQ(cfg.clock_period, 0);  // asynchronous
}

TEST(NetworkConfigTest, CharsForReturnsDefaultsWhenNoOverride) {
  NetworkConfig cfg;
  EXPECT_EQ(cfg.chars_for(noc::NodeKind::kFanoutBaseline).fwd_header, 263);
  EXPECT_EQ(cfg.chars_for(noc::NodeKind::kFanoutSpeculative).fwd_header, 52);
}

TEST(NetworkConfigTest, OverridesAreHonored) {
  NetworkConfig cfg;
  nodes::NodeCharacteristics fast{100.0, 10, 10, 10, 10};
  cfg.char_overrides[noc::NodeKind::kFanoutNonSpeculative] = fast;
  EXPECT_EQ(cfg.chars_for(noc::NodeKind::kFanoutNonSpeculative).fwd_header,
            10);
  // Other kinds unaffected.
  EXPECT_EQ(cfg.chars_for(noc::NodeKind::kFanoutBaseline).fwd_header, 263);
}

TEST(NetworkConfigTest, OverriddenTimingChangesNetworkBehaviour) {
  // A network with near-zero non-spec node latency must beat the default.
  class HeaderTime : public noc::TrafficObserver {
   public:
    void on_flit_ejected(const noc::Packet&, std::uint32_t,
                         noc::FlitKind kind, TimePs when) override {
      if (kind == noc::FlitKind::kHeader) at = when;
    }
    void on_packet_injected(const noc::Packet&, TimePs) override {}
    TimePs at = 0;
  };
  auto header_latency = [](const NetworkConfig& cfg) {
    MotNetwork net(Architecture::kBasicNonSpeculative, cfg);
    HeaderTime obs;
    net.net().hooks().traffic = &obs;
    net.send_message(0, noc::DestSet::single(7), false);
    net.scheduler().run();
    return obs.at;
  };
  NetworkConfig fast_cfg;
  fast_cfg.char_overrides[noc::NodeKind::kFanoutNonSpeculative] = {
      406.0, 10, 10, 10, 10};
  EXPECT_LT(header_latency(fast_cfg), header_latency(NetworkConfig{}));
}

TEST(NetworkConfigTest, FifoDepthsOutsideTheRingRangeAreConfigErrors) {
  // Channel and fanin FIFOs are rings with 16-bit counters.
  for (const std::uint32_t depth : {0u, 65536u}) {
    NetworkConfig middle;
    middle.middle_channel_flits = depth;
    EXPECT_THROW(MotNetwork(Architecture::kOptHybridSpeculative, middle),
                 ConfigError);
    NetworkConfig fanin;
    fanin.fanin_buffer_flits = depth;
    EXPECT_THROW(MotNetwork(Architecture::kOptHybridSpeculative, fanin),
                 ConfigError);
  }
  // The largest depth builds (radix 2 keeps the rings' heap small).
  NetworkConfig deepest;
  deepest.n = 2;
  deepest.middle_channel_flits = 65535;
  deepest.fanin_buffer_flits = 65535;
  const MotNetwork net(Architecture::kOptHybridSpeculative, deepest);
  EXPECT_EQ(net.endpoints(), 2u);
}

TEST(NetworkConfigTest, SmallestAndLargestRadixBuild) {
  for (const std::uint32_t n : {2u, 64u}) {
    NetworkConfig cfg;
    cfg.n = n;
    MotNetwork net(Architecture::kOptHybridSpeculative, cfg);
    EXPECT_EQ(net.endpoints(), n);
    // End-to-end smoke: broadcast reaches everyone.
    std::uint32_t headers = 0;
    class Count : public noc::TrafficObserver {
     public:
      explicit Count(std::uint32_t& c) : c_(c) {}
      void on_flit_ejected(const noc::Packet&, std::uint32_t,
                           noc::FlitKind kind, TimePs) override {
        if (kind == noc::FlitKind::kHeader) ++c_;
      }
      void on_packet_injected(const noc::Packet&, TimePs) override {}
      std::uint32_t& c_;
    } obs(headers);
    net.net().hooks().traffic = &obs;
    const noc::DestSet all = noc::DestSet::first_n(n);
    net.send_message(0, all, false);
    net.scheduler().run();
    EXPECT_EQ(headers, n);
  }
}

}  // namespace
}  // namespace specnoc::core
