// The telemetry layer's core invariant, tested end-to-end: enabling epoch
// sampling changes no simulated byte. For every canonical architecture in
// the registry, on both the sequential and the partitioned kernel, a run
// with a TelemetrySampler armed produces the same event count, the same
// final simulated time, and a byte-identical MetricsSnapshot (compared
// through the exact JSON codec) as the same run without one. The sampled
// series itself is pinned too: on a partitioned MoT and on the row-band
// mesh it is byte-identical at 1, 2 and 4 worker threads.
#include <gtest/gtest.h>

#include <string>
#include <utility>

#include "core/mot_network.h"
#include "core/registry.h"
#include "mesh/mesh_network.h"
#include "noc/hooks.h"
#include "stats/metrics.h"
#include "stats/serialization.h"
#include "stats/telemetry.h"
#include "traffic/benchmark.h"
#include "traffic/driver.h"
#include "util/json.h"

namespace specnoc {
namespace {

using namespace specnoc::literals;

struct RunResult {
  std::uint64_t events = 0;
  TimePs end_time = 0;
  std::string snapshot_json;
};

RunResult run_once(const std::string& arch, unsigned sim_threads,
                   bool sampled) {
  core::NetworkConfig cfg;  // 8x8
  cfg.sim_threads = sim_threads;
  auto net = core::ArchitectureRegistry::global().build(arch, cfg);

  stats::MetricsRegistry registry;
  stats::TelemetryOptions options;
  options.epoch_ps = 5_ns;
  stats::TelemetrySampler sampler(options);
  net->net().hooks().metrics = &registry;
  if (sampled) sampler.arm(net->net(), registry);

  auto pattern =
      traffic::make_benchmark(traffic::BenchmarkId::kMulticast10, cfg.n);
  traffic::DriverConfig dcfg;
  dcfg.mode = traffic::InjectionMode::kBacklogged;
  dcfg.seed = 7;
  traffic::TrafficDriver driver(*net, *pattern, dcfg);
  driver.start();
  net->net().run_until(500_ns);

  RunResult result;
  result.events = net->net().executed();
  result.end_time = net->net().now();
  if (sampled) {
    // Sampling produced a real series — the invariant is only meaningful
    // when the sampler actually fired.
    EXPECT_FALSE(sampler.finish().epochs.empty()) << arch;
  }
  result.snapshot_json = util::json_write(stats::to_json(registry.snapshot()));
  return result;
}

class TelemetryNeutralityTest
    : public ::testing::TestWithParam<std::string> {};

TEST_P(TelemetryNeutralityTest, SamplingChangesNoSimulatedByte) {
  const std::string arch = GetParam();
  for (const unsigned sim_threads : {1u, 4u}) {
    SCOPED_TRACE(arch + " sim_threads=" + std::to_string(sim_threads));
    const RunResult plain = run_once(arch, sim_threads, /*sampled=*/false);
    const RunResult sampled = run_once(arch, sim_threads, /*sampled=*/true);
    EXPECT_EQ(plain.events, sampled.events);
    EXPECT_EQ(plain.end_time, sampled.end_time);
    EXPECT_EQ(plain.snapshot_json, sampled.snapshot_json);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllRegistryArchitectures, TelemetryNeutralityTest,
    ::testing::ValuesIn(core::ArchitectureRegistry::global().names()),
    [](const ::testing::TestParamInfo<std::string>& p) { return p.param; });

/// Snapshot JSON of a sampled partitioned run, series recorded into it.
/// The sampler sums the registry's per-worker shards inside the window
/// barrier's serial section, so the series, not just the run totals, must
/// be the same at any worker count.
std::string sampled_snapshot_json(noc::MessageNetwork& network,
                                  unsigned workers) {
  noc::Network& net = network.net();
  EXPECT_TRUE(net.partitioned());
  net.set_worker_threads(workers);
  stats::MetricsRegistry registry;
  stats::TelemetryOptions options;
  options.epoch_ps = 5_ns;
  stats::TelemetrySampler sampler(options);
  net.hooks().metrics = &registry;
  sampler.arm(net, registry);

  auto pattern = traffic::make_benchmark(traffic::BenchmarkId::kMulticast10,
                                         network.endpoints());
  traffic::DriverConfig dcfg;
  dcfg.mode = traffic::InjectionMode::kBacklogged;
  dcfg.seed = 7;
  traffic::TrafficDriver driver(network, *pattern, dcfg);
  driver.start();
  net.run_until(300_ns);

  stats::TelemetrySeries series = sampler.finish();
  EXPECT_GT(series.epochs.size(), 10u);
  registry.record_telemetry(std::move(series));
  const stats::MetricsSnapshot snapshot = registry.snapshot();
  EXPECT_GT(snapshot.total_kills(), 0u);
  EXPECT_GT(snapshot.total_stalls(), 0u);
  return util::json_write(stats::to_json(snapshot));
}

TEST(TelemetryWorkerInvarianceTest, PartitionedMotSeriesIsWorkerCountFree) {
  std::string reference;
  for (const unsigned workers : {1u, 2u, 4u}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    core::NetworkConfig cfg;  // 8x8, one lane per tree
    cfg.sim_threads = 4;
    core::MotNetwork net(core::Architecture::kOptHybridSpeculative, cfg);
    const std::string json = sampled_snapshot_json(net, workers);
    if (workers == 1u) {
      reference = json;
    } else {
      EXPECT_EQ(reference, json);
    }
  }
}

TEST(TelemetryWorkerInvarianceTest, RowBandMeshSeriesIsWorkerCountFree) {
  std::string reference;
  for (const unsigned workers : {1u, 2u, 4u}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    mesh::MeshConfig cfg;  // 4x4, one lane per router row
    cfg.speculative_routers = mesh::MeshNetwork::checkerboard_speculation(
        mesh::MeshTopology(cfg.cols, cfg.rows));
    cfg.sim_threads = 4;
    mesh::MeshNetwork net(cfg);
    const std::string json = sampled_snapshot_json(net, workers);
    if (workers == 1u) {
      reference = json;
    } else {
      EXPECT_EQ(reference, json);
    }
  }
}

}  // namespace
}  // namespace specnoc
