// The Protocol trait's promise: a new measurement protocol is one
// self-contained definition. The toy protocol below lives entirely in this
// file — nothing in src/stats knows about it — yet it runs through
// ExperimentRunner::run_grid, round-trips the outcome codec, and survives a
// 2-shard worker -> merge_shards -> render sweep byte-identically. And a
// protocol measures whatever noc::MessageNetwork it is handed: the stock
// protocols reproduce hand-driven windows on a 2D mesh.
#include "stats/protocol.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "core/mot_network.h"
#include "mesh/mesh_network.h"
#include "power/power_meter.h"
#include "stats/experiment.h"
#include "stats/recorder.h"
#include "stats/serialization.h"
#include "stats/sweep.h"
#include "traffic/driver.h"
#include "util/json.h"

namespace specnoc::toy {
namespace {

using core::Architecture;
using namespace specnoc::literals;

struct HorizonProtocol;

struct HorizonResult {
  using Protocol = HorizonProtocol;
  std::uint64_t events = 0;
  std::uint64_t packets = 0;
  double delivered_flits_per_ns = 0.0;
  bool drained = false;
};

// Backlogged uniform-random traffic up to a fixed simulated horizon.
struct HorizonSpec {
  using Protocol = HorizonProtocol;
  Architecture arch = Architecture::kBaseline;
  TimePs horizon = 200_ns;
  std::string custom;
};

struct HorizonProtocol {
  using Spec = HorizonSpec;
  using Result = HorizonResult;
  static constexpr const char* kind = "horizon";
  static constexpr auto fields = std::tuple{
      std::pair{"events", &Result::events},
      std::pair{"packets", &Result::packets},
      std::pair{"delivered_flits_per_ns", &Result::delivered_flits_per_ns},
      std::pair{"drained", &Result::drained}};

  static bool sequential(const Spec&) { return false; }
  /// "<arch>@<horizon>": the cell's row label and its key head.
  static std::string row_label(const Spec& spec) {
    return std::string(core::to_string(spec.arch)) + "@" +
           std::to_string(spec.horizon);
  }
  static std::string spec_key(const Spec& spec) {
    return stats::with_custom("hz|" + row_label(spec), spec.custom);
  }
  static void write_spec(util::Json& json, const Spec& spec) {
    json.set("horizon_ps", static_cast<std::int64_t>(spec.horizon));
    stats::set_custom(json, spec.custom);
  }
  static void read_spec(const util::Json& json, Spec& spec) {
    spec.horizon = json.at("horizon_ps").as_i64();
    spec.custom = stats::custom_from_json(json);
  }
  static Result run(const Spec& spec, const stats::RunContext& context) {
    stats::ProbeRig& rig = context.rig;
    noc::MessageNetwork& network = context.network;
    auto& net = network.net();
    stats::TrafficRecorder recorder(net.packets());
    net.hooks().traffic = &recorder;
    rig.attach(net);
    const auto pattern = traffic::make_benchmark(
        traffic::BenchmarkId::kUniformRandom, network.endpoints());
    traffic::DriverConfig driver_cfg;
    driver_cfg.mode = traffic::InjectionMode::kBacklogged;
    driver_cfg.seed = context.seed;
    traffic::TrafficDriver driver(network, *pattern, driver_cfg);
    driver.start();
    recorder.open_window(net.now());
    net.run_until(spec.horizon);
    recorder.close_window(net.now());

    Result result;
    result.events = net.executed();
    result.packets = net.packets().num_packets();
    result.delivered_flits_per_ns =
        recorder.delivered_flits_per_ns(network.endpoints());
    result.drained = net.pending() == 0;
    rig.harvest(net);
    return result;
  }
};

static_assert(stats::Protocol<HorizonProtocol>);

std::vector<HorizonSpec> horizon_grid() {
  std::vector<HorizonSpec> specs;
  for (const auto arch :
       {Architecture::kBaseline, Architecture::kOptNonSpeculative,
        Architecture::kOptHybridSpeculative}) {
    for (const TimePs horizon : {100_ns, 250_ns}) {
      HorizonSpec spec;
      spec.arch = arch;
      spec.horizon = horizon;
      specs.push_back(spec);
    }
  }
  return specs;
}

// What a harness would print: one row per cell, failures visible.
std::string render(const std::vector<stats::Outcome<HorizonProtocol>>& rows) {
  std::string text;
  for (const auto& outcome : rows) {
    text += HorizonProtocol::row_label(outcome.spec) + " ";
    text += outcome.run.ok ? util::json_write(stats::to_json(outcome.result))
                           : "FAIL: " + outcome.run.error;
    text += "\n";
  }
  return text;
}

stats::SweepOptions sweep_options() {
  stats::SweepOptions options;
  options.tool = "toy_protocol_test";
  options.batch.jobs = 1;
  return options;
}

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "specnoc_toy_" + name;
}

TEST(ProtocolTest, ToyProtocolRunsThroughRunGrid) {
  const core::NetworkConfig cfg;
  stats::ExperimentRunner runner(cfg, 42);
  const auto specs = horizon_grid();
  const auto serial = runner.run_grid<HorizonProtocol>(
      specs, {.jobs = 1, .collect_metrics = true});
  const auto parallel = runner.run_grid<HorizonProtocol>(specs, {.jobs = 3});
  ASSERT_EQ(serial.size(), specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    ASSERT_TRUE(serial[i].run.ok) << serial[i].run.error;
    EXPECT_GT(serial[i].result.events, 0u);
    EXPECT_EQ(serial[i].run.telemetry.events_executed,
              serial[i].result.events);
    ASSERT_TRUE(serial[i].metrics.has_value());
    EXPECT_FALSE(parallel[i].metrics.has_value());
  }
  EXPECT_EQ(render(serial), render(parallel));

  // The generic outcome codec round-trips the toy protocol exactly.
  const std::string line = util::json_write(stats::to_json(serial[0]));
  const auto back =
      stats::outcome_from_json<HorizonProtocol>(util::json_parse(line));
  EXPECT_EQ(back.spec.horizon, specs[0].horizon);
  EXPECT_EQ(util::json_write(stats::to_json(back)), line);
}

TEST(ProtocolTest, ToyProtocolShardsMergeAndRenderLikeASerialRun) {
  const core::NetworkConfig cfg;
  const auto specs = horizon_grid();

  stats::ShardedSweep ref_sweep(cfg, 42, sweep_options());
  const std::string reference =
      render(ref_sweep.grid<HorizonProtocol>("horizon", specs));

  constexpr unsigned kShards = 2;
  std::vector<stats::ShardFile> inputs;
  for (unsigned shard = 0; shard < kShards; ++shard) {
    auto options = sweep_options();
    options.shard = {shard, kShards};
    options.out_path = temp_path("s" + std::to_string(shard) + ".jsonl");
    std::remove(options.out_path.c_str());  // start fresh across reruns
    stats::ShardedSweep sweep(cfg, 42, options);
    sweep.grid<HorizonProtocol>("horizon", specs);
    EXPECT_EQ(sweep.finish(), 0);
    inputs.push_back(stats::load_shard_file(options.out_path));
    EXPECT_EQ(inputs.back().grids.at(0).kind, "horizon");
  }

  stats::MergeReport report;
  const stats::ShardFile merged = stats::merge_shards(inputs, &report);
  ASSERT_TRUE(report.complete()) << report.summary();
  auto render_options = sweep_options();
  render_options.from_path = temp_path("merged.jsonl");
  stats::write_shard_file(merged, render_options.from_path);

  stats::ShardedSweep render_sweep(cfg, 42, render_options);
  EXPECT_EQ(render(render_sweep.grid<HorizonProtocol>("horizon", specs)),
            reference);
}

// Saturation and latency windows driven by hand on a mesh, straight
// through its scheduler: the reference the protocols must reproduce on a
// network no spec names.
double hand_saturation(mesh::MeshNetwork& net, traffic::BenchmarkId bench,
                       std::uint64_t seed) {
  stats::TrafficRecorder rec(net.net().packets());
  net.net().hooks().traffic = &rec;
  auto pattern = traffic::make_benchmark(bench, net.endpoints());
  traffic::DriverConfig cfg;
  cfg.mode = traffic::InjectionMode::kBacklogged;
  cfg.seed = seed;
  traffic::TrafficDriver driver(net, *pattern, cfg);
  driver.start();
  auto& sched = net.scheduler();
  sched.run_until(1000_ns);
  rec.open_window(sched.now());
  sched.run_until(5000_ns);
  rec.close_window(sched.now());
  return rec.delivered_flits_per_ns(net.endpoints());
}

struct HandLatency {
  double mean_ns = 0.0;
  double p95_ns = 0.0;
  std::uint64_t measured = 0;
};

HandLatency hand_latency(mesh::MeshNetwork& net, traffic::BenchmarkId bench,
                         double load, std::uint64_t seed) {
  stats::TrafficRecorder rec(net.net().packets());
  net.net().hooks().traffic = &rec;
  auto pattern = traffic::make_benchmark(bench, net.endpoints());
  traffic::DriverConfig cfg;
  cfg.mode = traffic::InjectionMode::kOpenLoop;
  cfg.flits_per_ns_per_source = load;
  cfg.seed = seed;
  traffic::TrafficDriver driver(net, *pattern, cfg);
  driver.start();
  auto& sched = net.scheduler();
  sched.run_until(300_ns);
  driver.set_measured(true);
  sched.run_until(2300_ns);
  driver.set_measured(false);
  while (rec.pending_measured() > 0 && sched.now() < 40000_ns) {
    if (!sched.step()) break;
  }
  return {rec.mean_latency_ps() / 1e3, rec.latency_percentile_ps(95.0) / 1e3,
          rec.completed_measured()};
}

TEST(ProtocolTest, ProtocolsMeasureAHandedMeshLikeItsHandDrivenWindows) {
  constexpr std::uint64_t kSeed = 42;
  mesh::MeshConfig cfg;  // 4x4
  cfg.speculative_routers =
      mesh::MeshNetwork::checkerboard_speculation(mesh::MeshTopology(4, 4));
  for (const auto bench : {traffic::BenchmarkId::kUniformRandom,
                           traffic::BenchmarkId::kMulticast10}) {
    SCOPED_TRACE(traffic::to_string(bench));
    {
      mesh::MeshNetwork handed(cfg);
      mesh::MeshNetwork reference(cfg);
      stats::SaturationSpec spec;
      spec.bench = bench;
      stats::ProbeRig rig(/*collect=*/false, {});
      const auto result =
          stats::SaturationProtocol::run(spec, {handed, kSeed, {}, rig});
      EXPECT_EQ(result.delivered_flits_per_ns,
                hand_saturation(reference, bench, kSeed));
      EXPECT_GT(result.delivered_flits_per_ns, 0.0);
      EXPECT_EQ(rig.events(), reference.net().executed());
    }
    {
      mesh::MeshNetwork handed(cfg);
      mesh::MeshNetwork reference(cfg);
      stats::LatencySpec spec;
      spec.bench = bench;
      spec.injected_flits_per_ns = 0.2;
      spec.windows = {.warmup = 300_ns, .measure = 2000_ns};
      // A collecting rig attaches the metrics registry to the mesh too;
      // observation changes nothing.
      stats::ProbeRig rig(/*collect=*/true, {});
      const auto result =
          stats::LatencyProtocol::run(spec, {handed, kSeed, {}, rig});
      const HandLatency expected = hand_latency(reference, bench, 0.2, kSeed);
      EXPECT_TRUE(result.drained);
      EXPECT_GT(result.messages_measured, 0u);
      EXPECT_EQ(result.messages_measured, expected.measured);
      EXPECT_EQ(result.mean_latency_ns, expected.mean_ns);
      EXPECT_EQ(result.p95_latency_ns, expected.p95_ns);
      EXPECT_EQ(rig.events(), reference.net().executed());
    }
  }
}

struct HandPower {
  double power_mw = 0.0;
  std::uint64_t throttled = 0;
  std::uint64_t broadcasts = 0;
};

// A power meter riding a hand-driven open-loop run over the same window.
HandPower hand_power(mesh::MeshNetwork& net, traffic::BenchmarkId bench,
                     double load, std::uint64_t seed) {
  stats::TrafficRecorder rec(net.net().packets());
  power::PowerMeter meter;
  net.net().hooks().traffic = &rec;
  net.net().hooks().energy = &meter;
  auto pattern = traffic::make_benchmark(bench, net.endpoints());
  traffic::DriverConfig cfg;
  cfg.mode = traffic::InjectionMode::kOpenLoop;
  cfg.flits_per_ns_per_source = load;
  cfg.seed = seed;
  traffic::TrafficDriver driver(net, *pattern, cfg);
  driver.start();
  auto& sched = net.scheduler();
  sched.run_until(300_ns);
  driver.set_measured(true);
  meter.open_window(sched.now());
  sched.run_until(2800_ns);
  driver.set_measured(false);
  meter.close_window(sched.now());
  return {meter.window_power_mw(), meter.window_ops(noc::NodeOp::kThrottle),
          meter.window_ops(noc::NodeOp::kBroadcast)};
}

TEST(ProtocolTest, PowerProtocolOnAMeshMatchesAMeterRidingItsWindow) {
  constexpr std::uint64_t kSeed = 7;
  mesh::MeshConfig cfg;  // 4x4
  cfg.speculative_routers =
      mesh::MeshNetwork::checkerboard_speculation(mesh::MeshTopology(4, 4));
  mesh::MeshNetwork handed(cfg);
  mesh::MeshNetwork reference(cfg);
  stats::PowerSpec spec;
  spec.bench = traffic::BenchmarkId::kMulticast10;
  spec.injected_flits_per_ns = 0.2;
  spec.windows = {.warmup = 300_ns, .measure = 2500_ns};
  stats::ProbeRig rig(/*collect=*/false, {});
  const auto result =
      stats::PowerProtocol::run(spec, {handed, kSeed, {}, rig});
  const HandPower expected =
      hand_power(reference, spec.bench, spec.injected_flits_per_ns, kSeed);
  EXPECT_GT(result.power_mw, 0.0);
  EXPECT_EQ(result.power_mw, expected.power_mw);
  // Speculative routers on multicast traffic throttle redundant copies.
  EXPECT_GT(result.throttled_flits, 0u);
  EXPECT_EQ(result.throttled_flits, expected.throttled);
  EXPECT_EQ(result.broadcast_ops, expected.broadcasts);
  EXPECT_EQ(rig.events(), reference.net().executed());
}

TEST(ProtocolTest, RegistryMeshEntriesRunLikeAHandBuiltMesh) {
  // The runner builds a spec's mesh from its registry entry: the same
  // network, so the same numbers, as a protocol measuring a hand-built one.
  constexpr std::uint64_t kSeed = 42;
  core::NetworkConfig config;
  config.n = 16;
  stats::ExperimentRunner runner(config, kSeed);
  stats::SaturationSpec spec;
  spec.arch = Architecture::kCustomHybrid;
  spec.bench = traffic::BenchmarkId::kMulticast10;
  spec.custom = "MeshSpecCheckerboard";
  const auto outcomes = runner.run_grid<stats::SaturationProtocol>({spec});
  ASSERT_TRUE(outcomes[0].run.ok) << outcomes[0].run.error;

  mesh::MeshConfig cfg;  // 4x4
  cfg.speculative_routers =
      mesh::MeshNetwork::checkerboard_speculation(mesh::MeshTopology(4, 4));
  mesh::MeshNetwork handed(cfg);
  stats::ProbeRig rig(/*collect=*/false, {});
  const auto expected =
      stats::SaturationProtocol::run(spec, {handed, kSeed, {}, rig});
  EXPECT_EQ(outcomes[0].result.delivered_flits_per_ns,
            expected.delivered_flits_per_ns);
  EXPECT_EQ(outcomes[0].run.telemetry.events_executed, rig.events());
}

TEST(ProtocolTest, LabelsNameACustomSpecByItsRegistryName) {
  stats::SaturationSpec sat;
  sat.arch = Architecture::kOptHybridSpeculative;
  sat.bench = traffic::BenchmarkId::kMulticast10;
  EXPECT_EQ(stats::bench_label(sat), "OptHybridSpeculative/Multicast10");
  sat.arch = Architecture::kCustomHybrid;
  sat.custom = "{0,2}";
  EXPECT_EQ(stats::bench_label(sat), "{0,2}/Multicast10");
  // The identity keeps the reported architecture plus the name.
  EXPECT_EQ(stats::spec_key(sat), "sat|CustomHybrid|Multicast10|seed=0|{0,2}");

  stats::LatencySpec lat;
  lat.arch = Architecture::kCustomHybrid;
  lat.bench = traffic::BenchmarkId::kUniformRandom;
  lat.custom = "MeshXY";
  EXPECT_EQ(stats::bench_label(lat), "MeshXY/UniformRandom");

  stats::CmpSpec cmp;
  cmp.arch = Architecture::kBaseline;
  EXPECT_EQ(stats::network_name(cmp), "Baseline");
  cmp.arch = Architecture::kCustomHybrid;
  cmp.custom = "{0}";
  EXPECT_EQ(stats::network_name(cmp), "{0}");
}

TEST(ProtocolTest, RunGridBuildsASequentialNetworkWhenTheProtocolAsks) {
  // The power protocol refuses a partitioned network, so under a threaded
  // config run_grid must build its networks with sim_threads = 1.
  core::NetworkConfig threaded;
  threaded.sim_threads = 2;
  ASSERT_TRUE(core::MotNetwork(Architecture::kOptHybridSpeculative, threaded)
                  .net()
                  .partitioned());
  stats::PowerSpec spec;
  spec.arch = Architecture::kOptHybridSpeculative;
  spec.bench = traffic::BenchmarkId::kMulticast10;
  spec.injected_flits_per_ns = 0.1;
  spec.windows = {.warmup = 100_ns, .measure = 500_ns};
  ASSERT_TRUE(stats::PowerProtocol::sequential(spec));
  const auto run = [&](const core::NetworkConfig& cfg) {
    stats::ExperimentRunner runner(cfg, 42);
    const auto outcomes =
        runner.run_grid<stats::PowerProtocol>({spec}, {.jobs = 1});
    EXPECT_EQ(outcomes.size(), 1u);
    EXPECT_TRUE(outcomes[0].run.ok) << outcomes[0].run.error;
    return outcomes[0].result;
  };
  const stats::PowerResult sequential = run(core::NetworkConfig{});
  const stats::PowerResult from_threaded = run(threaded);
  EXPECT_GT(sequential.power_mw, 0.0);
  EXPECT_EQ(from_threaded.power_mw, sequential.power_mw);
  EXPECT_EQ(from_threaded.delivered_flits_per_ns,
            sequential.delivered_flits_per_ns);
  EXPECT_EQ(from_threaded.broadcast_ops, sequential.broadcast_ops);
}

}  // namespace
}  // namespace specnoc::toy
