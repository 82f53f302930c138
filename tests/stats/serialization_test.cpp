#include "stats/serialization.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "stats/experiment.h"
#include "util/error.h"
#include "util/json.h"
#include "workload/synth.h"

namespace specnoc::stats {
namespace {

using core::Architecture;
using traffic::BenchmarkId;
using namespace specnoc::literals;

sim::RunOutcome ok_run(unsigned attempts = 1) {
  sim::RunOutcome run;
  run.ok = true;
  run.telemetry.attempts = attempts;
  run.telemetry.events_executed = 123456789ull;
  run.telemetry.wall_ms = 12.75;
  return run;
}

TEST(SerializationTest, SaturationOutcomeRoundTrips) {
  SaturationOutcome outcome;
  outcome.spec.arch = Architecture::kOptHybridSpeculative;
  outcome.spec.bench = BenchmarkId::kMulticast10;
  outcome.spec.seed = 7;
  outcome.result.delivered_flits_per_ns = 1.26;
  outcome.result.injected_flits_per_ns = 0.42;
  outcome.result.delivery_factor = 3.0;
  outcome.result.message_expansion = 1.0;
  outcome.run = ok_run();

  const auto back =
      outcome_from_json<SaturationProtocol>(util::json_parse(
          util::json_write(to_json(outcome))));
  EXPECT_EQ(back.spec.arch, outcome.spec.arch);
  EXPECT_EQ(back.spec.bench, outcome.spec.bench);
  EXPECT_EQ(back.spec.seed, outcome.spec.seed);
  EXPECT_TRUE(back.spec.custom.empty());
  EXPECT_FALSE(back.spec.factory);  // factories never travel
  EXPECT_EQ(back.result.delivered_flits_per_ns,
            outcome.result.delivered_flits_per_ns);
  EXPECT_EQ(back.result.delivery_factor, outcome.result.delivery_factor);
  EXPECT_TRUE(back.run.ok);
  EXPECT_EQ(back.run.telemetry.events_executed,
            outcome.run.telemetry.events_executed);
  // The round trip is exact: serializing again gives identical bytes.
  EXPECT_EQ(util::json_write(to_json(back)),
            util::json_write(to_json(outcome)));
}

TEST(SerializationTest, LatencyOutcomeRoundTripsExactDoubles) {
  LatencyOutcome outcome;
  outcome.spec.arch = Architecture::kOptAllSpeculative;
  outcome.spec.bench = BenchmarkId::kUniformRandom;
  outcome.spec.injected_flits_per_ns = 0.1 * 3.0;  // not exactly 0.3
  outcome.spec.windows = {.warmup = 100_ns, .measure = 800_ns};
  outcome.spec.seed = 42;
  outcome.result.mean_latency_ns = 1.0 / 3.0;
  outcome.result.p95_latency_ns = 6.62607015;
  outcome.result.max_latency_ns = 9.25;
  outcome.result.messages_measured = 4096;
  outcome.result.offered_flits_per_ns = outcome.spec.injected_flits_per_ns;
  outcome.result.drained = true;
  outcome.run = ok_run(2);

  const auto back = outcome_from_json<LatencyProtocol>(
      util::json_parse(util::json_write(to_json(outcome))));
  EXPECT_EQ(back.spec.injected_flits_per_ns,
            outcome.spec.injected_flits_per_ns);
  EXPECT_EQ(back.spec.windows.warmup, outcome.spec.windows.warmup);
  EXPECT_EQ(back.spec.windows.measure, outcome.spec.windows.measure);
  EXPECT_EQ(back.result.mean_latency_ns, outcome.result.mean_latency_ns);
  EXPECT_EQ(back.result.messages_measured, outcome.result.messages_measured);
  EXPECT_EQ(back.run.telemetry.attempts, 2u);
  EXPECT_EQ(util::json_write(to_json(back)),
            util::json_write(to_json(outcome)));
}

TEST(SerializationTest, PowerOutcomeRoundTrips) {
  PowerOutcome outcome;
  outcome.spec.arch = Architecture::kBaseline;
  outcome.spec.bench = BenchmarkId::kMulticast5;
  outcome.spec.injected_flits_per_ns = 0.25;
  outcome.spec.windows = {.warmup = 100_ns, .measure = 800_ns};
  outcome.result.power_mw = 10.5;
  outcome.result.node_power_mw = 7.25;
  outcome.result.wire_power_mw = 3.25;
  outcome.result.throttled_flits = 17;
  outcome.result.broadcast_ops = 99;
  outcome.run = ok_run();

  const auto back = outcome_from_json<PowerProtocol>(
      util::json_parse(util::json_write(to_json(outcome))));
  EXPECT_EQ(back.result.power_mw, outcome.result.power_mw);
  EXPECT_EQ(back.result.throttled_flits, outcome.result.throttled_flits);
  EXPECT_EQ(back.result.broadcast_ops, outcome.result.broadcast_ops);
  EXPECT_EQ(util::json_write(to_json(back)),
            util::json_write(to_json(outcome)));
}

TEST(SerializationTest, CustomHybridSpecCarriesLabel) {
  SaturationSpec spec;
  spec.arch = Architecture::kCustomHybrid;
  spec.bench = BenchmarkId::kMulticast10;
  spec.custom = "{0,2}";
  spec.factory = [] { return std::unique_ptr<core::MotNetwork>(); };

  const auto back =
      spec_from_json<SaturationProtocol>(util::json_parse(
          util::json_write(to_json(spec))));
  EXPECT_EQ(back.arch, Architecture::kCustomHybrid);
  EXPECT_EQ(back.custom, "{0,2}");
  EXPECT_FALSE(back.factory);  // must be rebuilt locally from the label
}

TEST(SerializationTest, FailedOutcomeOmitsResult) {
  LatencyOutcome outcome;
  outcome.spec.arch = Architecture::kBaseline;
  outcome.spec.bench = BenchmarkId::kUniformRandom;
  outcome.result.mean_latency_ns = 99.0;  // garbage — run failed
  outcome.run.ok = false;
  outcome.run.error = "did not drain";
  outcome.run.telemetry.attempts = 2;

  const util::Json json = to_json(outcome);
  EXPECT_EQ(json.find("result"), nullptr);
  const auto back = outcome_from_json<LatencyProtocol>(json);
  EXPECT_FALSE(back.run.ok);
  EXPECT_EQ(back.run.error, "did not drain");
  // The round trip yields the default result, as the in-process path does
  // for failed cells.
  EXPECT_EQ(back.result.mean_latency_ns, 0.0);
}

TEST(SerializationTest, SpecKeysAreCanonicalAndUnique) {
  SaturationSpec sat;
  sat.arch = Architecture::kBaseline;
  sat.bench = BenchmarkId::kUniformRandom;
  EXPECT_EQ(spec_key(sat), "sat|Baseline|UniformRandom|seed=0");
  sat.custom = "{0,2}";
  EXPECT_EQ(spec_key(sat), "sat|Baseline|UniformRandom|seed=0|{0,2}");

  LatencySpec lat;
  lat.arch = Architecture::kBasicHybridSpeculative;
  lat.bench = BenchmarkId::kMulticast10;
  lat.injected_flits_per_ns = 0.25;
  lat.windows = {.warmup = 100_ns, .measure = 800_ns};
  lat.seed = 42;
  const std::string key = spec_key(lat);
  EXPECT_EQ(key.substr(0, 4), "lat|");
  EXPECT_NE(key.find("rate=0.25"), std::string::npos);
  EXPECT_NE(key.find("seed=42"), std::string::npos);

  // Keys separate cells that differ in any identity field.
  auto lat2 = lat;
  lat2.injected_flits_per_ns = 0.26;
  EXPECT_NE(spec_key(lat2), key);
  auto lat3 = lat;
  lat3.windows.measure = 900_ns;
  EXPECT_NE(spec_key(lat3), key);
  PowerSpec pow;
  pow.arch = lat.arch;
  pow.bench = lat.bench;
  pow.injected_flits_per_ns = lat.injected_flits_per_ns;
  pow.windows = lat.windows;
  pow.seed = lat.seed;
  EXPECT_NE(spec_key(pow), key);  // kind prefix differs
}

TEST(SerializationTest, WorkloadOutcomeRoundTrips) {
  const auto trace = std::make_shared<const workload::Trace>(
      workload::make_synth_workload(workload::SynthId::kCoherence, 8, 5, 7));
  WorkloadOutcome outcome;
  outcome.spec = make_workload_spec(Architecture::kOptHybridSpeculative,
                                    "Coherence",
                                    workload::ReplayMode::kClosedLoop, trace);
  outcome.result.messages = 129;
  outcome.result.messages_delivered = 129;
  outcome.result.flits_delivered = 970;
  outcome.result.makespan_ns = 105.4;
  outcome.result.mean_latency_ns = 7.842;
  outcome.result.p95_latency_ns = 15.448;
  outcome.result.max_latency_ns = 17.996;
  outcome.result.completed = true;
  outcome.run = ok_run();

  const auto back = outcome_from_json<WorkloadProtocol>(
      util::json_parse(util::json_write(to_json(outcome))));
  EXPECT_EQ(back.spec.arch, outcome.spec.arch);
  EXPECT_EQ(back.spec.workload, "Coherence");
  EXPECT_EQ(back.spec.mode, workload::ReplayMode::kClosedLoop);
  EXPECT_EQ(back.spec.trace_hash, outcome.spec.trace_hash);
  EXPECT_EQ(back.spec.trace, nullptr);  // traces never travel, only hashes
  EXPECT_EQ(back.result.messages, outcome.result.messages);
  EXPECT_EQ(back.result.flits_delivered, outcome.result.flits_delivered);
  EXPECT_EQ(back.result.makespan_ns, outcome.result.makespan_ns);
  EXPECT_TRUE(back.result.completed);
  EXPECT_EQ(util::json_write(to_json(back)),
            util::json_write(to_json(outcome)));
}

TEST(SerializationTest, WorkloadSpecKeyEmbedsTraceIdentity) {
  const auto trace = std::make_shared<const workload::Trace>(
      workload::make_synth_workload(workload::SynthId::kDnnLayers, 8, 5, 0));
  const auto spec = make_workload_spec(Architecture::kBaseline, "DnnLayers",
                                       workload::ReplayMode::kClosedLoop,
                                       trace);
  EXPECT_EQ(spec_key(spec), "wl|Baseline|DnnLayers|closed|trace=" +
                                workload::trace_hash(*trace));

  // Any change to the trace bytes changes the key, so sweep merges refuse
  // to combine outcomes replayed from different traces.
  auto altered = *trace;
  altered.records[0].earliest += 1;
  const auto spec2 = make_workload_spec(
      Architecture::kBaseline, "DnnLayers", workload::ReplayMode::kClosedLoop,
      std::make_shared<const workload::Trace>(altered));
  EXPECT_NE(spec_key(spec2), spec_key(spec));

  auto timed = make_workload_spec(Architecture::kBaseline, "DnnLayers",
                                  workload::ReplayMode::kTimed, trace);
  EXPECT_NE(spec_key(timed), spec_key(spec));
}

TEST(SerializationTest, GridHashIsOrderSensitive) {
  const std::vector<std::string> keys = {"a", "b", "c"};
  const std::vector<std::string> reversed = {"c", "b", "a"};
  EXPECT_EQ(grid_hash(keys), grid_hash(keys));
  EXPECT_NE(grid_hash(keys), grid_hash(reversed));
  EXPECT_NE(grid_hash(keys), grid_hash({"a", "b"}));
  EXPECT_EQ(grid_hash(keys).size(), 16u);  // hex fnv1a64
}

TEST(SerializationTest, RunStatusReflectsAttempts) {
  sim::RunOutcome run;
  run.ok = true;
  run.telemetry.attempts = 1;
  EXPECT_STREQ(run_status(run), "ok");
  run.telemetry.attempts = 2;
  EXPECT_STREQ(run_status(run), "retried");
  run.ok = false;
  EXPECT_STREQ(run_status(run), "failed");
}

TEST(SerializationTest, CmpOutcomeRoundTrips) {
  const auto access = std::make_shared<const workload::AccessTrace>(
      workload::make_access_workload(workload::AccessSynthId::kLuBlocks, 8,
                                     7));
  CmpOutcome outcome;
  outcome.spec = make_cmp_spec(Architecture::kOptHybridSpeculative,
                               "LuBlocks", access);
  outcome.result.accesses = 235;
  outcome.result.makespan_ns = 491.2;
  outcome.result.l1_hits = 17;
  outcome.result.l1_misses = 212;
  outcome.result.mshr_merges = 88;
  outcome.result.inv_messages = 14;
  outcome.result.inv_multicasts = 9;
  outcome.result.inv_targets = 69;
  outcome.result.dram_reads = 120;
  outcome.result.dram_writes = 41;
  outcome.result.dram_conflicts = 59;
  outcome.result.messages = 402;
  outcome.result.flits_delivered = 2410;
  outcome.result.energy_nj = 7.6012;
  outcome.result.completed = true;
  outcome.run = ok_run();

  const auto back = outcome_from_json<CmpProtocol>(
      util::json_parse(util::json_write(to_json(outcome))));
  EXPECT_EQ(back.spec.arch, outcome.spec.arch);
  EXPECT_EQ(back.spec.workload, "LuBlocks");
  EXPECT_EQ(back.spec.access_hash, outcome.spec.access_hash);
  EXPECT_EQ(back.spec.access, nullptr);  // traces never travel, only hashes
  EXPECT_EQ(back.result.accesses, outcome.result.accesses);
  EXPECT_EQ(back.result.inv_multicasts, outcome.result.inv_multicasts);
  EXPECT_EQ(back.result.energy_nj, outcome.result.energy_nj);
  EXPECT_TRUE(back.result.completed);
  EXPECT_EQ(util::json_write(to_json(back)),
            util::json_write(to_json(outcome)));
}

TEST(SerializationTest, CmpSpecKeyEmbedsAccessTraceIdentity) {
  const auto access = std::make_shared<const workload::AccessTrace>(
      workload::make_access_workload(workload::AccessSynthId::kLuBlocks, 8,
                                     0));
  const auto spec = make_cmp_spec(Architecture::kBaseline, "LuBlocks",
                                  access);
  EXPECT_EQ(spec_key(spec), "cmp|Baseline|LuBlocks|access=" +
                                workload::access_trace_hash(*access));

  auto altered = *access;
  altered.streams[0][0].think += 1;
  const auto spec2 = make_cmp_spec(
      Architecture::kBaseline, "LuBlocks",
      std::make_shared<const workload::AccessTrace>(altered));
  EXPECT_NE(spec_key(spec2), spec_key(spec));
}

TEST(SerializationTest, CmpMetricsRideTheSnapshotOmitWhenEmpty) {
  MetricsSnapshot snapshot;
  const std::string empty = util::json_write(to_json(snapshot));
  // Non-cmp records keep their byte layout.
  EXPECT_EQ(empty.find("\"cmp\""), std::string::npos);

  snapshot.cmp.accesses = 235;
  snapshot.cmp.l1_hits = 17;
  snapshot.cmp.inv_multicasts = 9;
  snapshot.cmp.lock_contended = 3;
  const auto back = metrics_snapshot_from_json(
      util::json_parse(util::json_write(to_json(snapshot))));
  EXPECT_EQ(back.cmp.accesses, 235u);
  EXPECT_EQ(back.cmp.l1_hits, 17u);
  EXPECT_EQ(back.cmp.inv_multicasts, 9u);
  EXPECT_EQ(back.cmp.lock_contended, 3u);
  EXPECT_EQ(util::json_write(to_json(back)),
            util::json_write(to_json(snapshot)));
}

}  // namespace
}  // namespace specnoc::stats
