// The Protocol trait's promise: a new measurement protocol is one
// self-contained definition. The toy protocol below lives entirely in this
// file — nothing in src/stats knows about it — yet it runs through
// ExperimentRunner::run_grid, round-trips the outcome codec, and survives a
// 2-shard worker -> merge_shards -> render sweep byte-identically.
#include "stats/protocol.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

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
  static std::string label(const Spec& spec) {
    return std::string(core::to_string(spec.arch)) + "@" +
           std::to_string(spec.horizon);
  }
  static std::string spec_key(const Spec& spec) {
    return stats::with_custom("hz|" + label(spec), spec.custom);
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
    const auto network = context.network();
    auto& net = network->net();
    stats::TrafficRecorder recorder(net.packets());
    net.hooks().traffic = &recorder;
    rig.attach(net);
    const auto pattern = traffic::make_benchmark(
        traffic::BenchmarkId::kUniformRandom, network->topology().n());
    traffic::DriverConfig driver_cfg;
    driver_cfg.mode = traffic::InjectionMode::kBacklogged;
    driver_cfg.seed = context.seed;
    traffic::TrafficDriver driver(*network, *pattern, driver_cfg);
    driver.start();
    recorder.open_window(net.now());
    net.run_until(spec.horizon);
    recorder.close_window(net.now());

    Result result;
    result.events = net.executed();
    result.packets = net.packets().num_packets();
    result.delivered_flits_per_ns =
        recorder.delivered_flits_per_ns(network->topology().n());
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
    text += HorizonProtocol::label(outcome.spec) + " ";
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

}  // namespace
}  // namespace specnoc::toy
