// Wire-format golden: the exact bytes every protocol's outcome codec,
// spec_key and grid_hash produce, pinned against tests/golden/
// wire_format.jsonl. No simulation runs — every value is hand-built — so
// the golden changes only when the serialized layout does. Shard files,
// metrics reports and merged sweeps written by older builds must keep
// loading and rendering identically, so any diff here is a format break.
//
// On a mismatch the produced lines are written to wire_format.actual.jsonl
// in the working directory; after an intentional format change, review
// that file and copy it over the golden.
#include "stats/serialization.h"

#include <gtest/gtest.h>

#include <fstream>
#include <functional>
#include <string>
#include <vector>

#include "stats/experiment.h"
#include "util/json.h"

namespace specnoc::stats {
namespace {

using core::Architecture;
using traffic::BenchmarkId;
using namespace specnoc::literals;

sim::RunOutcome ok_run() {
  sim::RunOutcome run;
  run.ok = true;
  run.telemetry.attempts = 1;
  run.telemetry.events_executed = 987654321ull;
  run.telemetry.wall_ms = 12.5;
  return run;
}

sim::RunOutcome failed_run() {
  sim::RunOutcome run;
  run.ok = false;
  run.error = "network deadlocked at 1234 ps";
  run.telemetry.attempts = 2;
  run.telemetry.events_executed = 0;
  run.telemetry.wall_ms = 0.25;
  return run;
}

// A snapshot carrying every optional block, so each omit-when-empty branch
// of the metrics codec is on the wire.
MetricsSnapshot full_metrics() {
  MetricsSnapshot snapshot;
  MetricsSite site;
  site.kind = noc::NodeKind::kFanoutOptSpeculative;
  site.level = 2;
  site.counters = {.kills = 11,
                   .prealloc_hits = 22,
                   .prealloc_misses = 33,
                   .contended_grants = 44,
                   .watchdog_releases = 1};
  snapshot.sites.push_back(site);
  ChannelClassMetrics channel;
  channel.klass = "fanout>fanout";
  channel.stalls = 7;
  channel.stall_time_ps = 9001;
  for (std::size_t b = 0; b < kNumStallBuckets; ++b) {
    channel.histogram[b] = b * 3;
  }
  snapshot.channels.push_back(channel);
  snapshot.pdes.lanes = 4;
  snapshot.pdes.lookahead_ps = 250;
  snapshot.pdes.windows = 1200;
  snapshot.pdes.lane_events = {10, 20, 30, 40};
  snapshot.pdes.lane_idle_windows = {0, 1, 2, 3};
  snapshot.telemetry.epoch_ps = 50000;
  snapshot.telemetry.epochs_total = 3;
  snapshot.telemetry.dropped = 1;
  TelemetryEpoch epoch;
  epoch.start_ps = 50000;
  epoch.end_ps = 100000;
  epoch.events = 4321;
  epoch.kills = 5;
  epoch.prealloc_hits = 6;
  epoch.prealloc_misses = 7;
  epoch.contended_grants = 8;
  epoch.watchdog_releases = 0;
  epoch.pending = 99;
  epoch.overflow_pending = 2;
  epoch.stall_time_ps = {{"fanin>sink", 400}, {"source>fanout", 12}};
  epoch.lane_events = {1000, 1100, 1000, 1221};
  epoch.windows = 17;
  snapshot.telemetry.epochs.push_back(epoch);
  snapshot.dest_spills = 3;
  snapshot.dest_spill_bytes = 384;
  snapshot.arena.push_back({"nodes", 120, 15360, 65536});
  snapshot.arena.push_back({"channels", 300, 28800, 32768});
  snapshot.cmp = {.accesses = 4096,
                  .l1_hits = 3000,
                  .l1_misses = 1096,
                  .mshr_merges = 40,
                  .inv_messages = 77,
                  .inv_multicasts = 31,
                  .inv_targets = 190,
                  .writebacks = 12,
                  .dram_reads = 500,
                  .dram_writes = 12,
                  .dram_conflicts = 9,
                  .barriers = 4,
                  .lock_acquires = 64,
                  .lock_contended = 5};
  return snapshot;
}

template <typename Outcome>
Outcome with_run(Outcome outcome, bool ok) {
  if (ok) {
    outcome.run = ok_run();
    outcome.metrics = full_metrics();
  } else {
    outcome.run = failed_run();
  }
  return outcome;
}

SaturationOutcome saturation(bool ok) {
  SaturationOutcome outcome;
  outcome.spec.arch = Architecture::kOptHybridSpeculative;
  outcome.spec.bench = BenchmarkId::kMulticast10;
  outcome.spec.seed = 7;
  outcome.result = {.delivered_flits_per_ns = 1.26,
                    .injected_flits_per_ns = 0.42,
                    .delivery_factor = 3.0,
                    .message_expansion = 1.0};
  return with_run(outcome, ok);
}

LatencyOutcome latency(bool ok) {
  LatencyOutcome outcome;
  outcome.spec.arch = Architecture::kBasicNonSpeculative;
  outcome.spec.bench = BenchmarkId::kHotspot;
  outcome.spec.injected_flits_per_ns = 0.1 + 0.2;  // 0.30000000000000004
  outcome.spec.windows = {.warmup = 100_ns, .measure = 800_ns};
  outcome.result = {.mean_latency_ns = 4.567,
                    .p95_latency_ns = 9.0,
                    .max_latency_ns = 21.125,
                    .messages_measured = 1234,
                    .offered_flits_per_ns = 0.1 + 0.2,
                    .drained = false};
  return with_run(outcome, ok);
}

PowerOutcome power(bool ok) {
  PowerOutcome outcome;
  outcome.spec.arch = Architecture::kBaseline;
  outcome.spec.bench = BenchmarkId::kUniformRandom;
  outcome.spec.injected_flits_per_ns = 0.125;
  outcome.spec.windows = {.warmup = 1000_ns, .measure = 4000_ns};
  outcome.spec.seed = 3;
  outcome.result = {.power_mw = 12.5,
                    .node_power_mw = 8.25,
                    .wire_power_mw = 4.25,
                    .delivered_flits_per_ns = 0.118,
                    .offered_flits_per_ns = 0.125,
                    .throttled_flits = 17,
                    .broadcast_ops = 0};
  return with_run(outcome, ok);
}

WorkloadOutcome workload_outcome(bool ok) {
  WorkloadOutcome outcome;
  outcome.spec.arch = Architecture::kOptNonSpeculative;
  outcome.spec.workload = "DnnLayers";
  outcome.spec.mode = workload::ReplayMode::kTimed;
  outcome.spec.trace_hash = "0123456789abcdef";
  outcome.result = {.messages = 640,
                    .messages_delivered = 639,
                    .flits_delivered = 3195,
                    .makespan_ns = 1234.5,
                    .mean_latency_ns = 6.5,
                    .p95_latency_ns = 11.75,
                    .max_latency_ns = 30.0,
                    .completed = false};
  return with_run(outcome, ok);
}

CmpOutcome cmp_outcome(bool ok) {
  CmpOutcome outcome;
  outcome.spec.arch = Architecture::kOptHybridSpeculative;
  outcome.spec.workload = "LuBlocks";
  outcome.spec.access_hash = "fedcba9876543210";
  outcome.result = {.accesses = 4096,
                    .makespan_ns = 56789.25,
                    .l1_hits = 3000,
                    .l1_misses = 1096,
                    .mshr_merges = 40,
                    .inv_messages = 77,
                    .inv_multicasts = 31,
                    .inv_targets = 190,
                    .dram_reads = 500,
                    .dram_writes = 12,
                    .dram_conflicts = 9,
                    .messages = 8800,
                    .flits_delivered = 30000,
                    .energy_nj = 0.001953125,
                    .completed = true};
  return with_run(outcome, ok);
}

// One encoded line plus the decode used for the re-encode check.
struct WireLine {
  std::string text;
  std::function<std::string(const util::Json&)> reencode;
};

template <typename Outcome, typename Decode>
WireLine outcome_line(const Outcome& outcome, Decode decode) {
  return {util::json_write(to_json(outcome)), [decode](const util::Json& j) {
            return util::json_write(to_json(decode(j)));
          }};
}

WireLine key_line(const std::string& key) {
  util::Json json = util::Json::object();
  json.set("spec_key", key);
  return {util::json_write(json), {}};
}

std::vector<WireLine> wire_lines() {
  std::vector<WireLine> lines;
  for (const bool ok : {true, false}) {
    lines.push_back(
        outcome_line(saturation(ok), outcome_from_json<SaturationProtocol>));
    lines.push_back(
        outcome_line(latency(ok), outcome_from_json<LatencyProtocol>));
    lines.push_back(outcome_line(power(ok), outcome_from_json<PowerProtocol>));
    lines.push_back(outcome_line(workload_outcome(ok),
                                 outcome_from_json<WorkloadProtocol>));
    lines.push_back(
        outcome_line(cmp_outcome(ok), outcome_from_json<CmpProtocol>));
  }

  SaturationSpec custom = saturation(true).spec;
  custom.arch = Architecture::kCustomHybrid;
  custom.custom = "{0,2}";
  SaturationOutcome custom_outcome = saturation(true);
  custom_outcome.spec = custom;
  lines.push_back(
      outcome_line(custom_outcome, outcome_from_json<SaturationProtocol>));

  WorkloadSpec closed = workload_outcome(true).spec;
  closed.mode = workload::ReplayMode::kClosedLoop;
  closed.custom = "{1}";
  CmpSpec cmp_custom = cmp_outcome(true).spec;
  cmp_custom.custom = "{0,2}";

  const std::vector<std::string> keys = {
      spec_key(saturation(true).spec),       spec_key(custom),
      spec_key(latency(true).spec),          spec_key(power(true).spec),
      spec_key(workload_outcome(true).spec), spec_key(closed),
      spec_key(cmp_outcome(true).spec),      spec_key(cmp_custom)};
  for (const auto& key : keys) lines.push_back(key_line(key));

  util::Json hash = util::Json::object();
  hash.set("grid_hash", grid_hash(keys));
  lines.push_back({util::json_write(hash), {}});
  return lines;
}

std::vector<std::string> golden_lines() {
  std::ifstream in(SPECNOC_GOLDEN_DIR "/wire_format.jsonl");
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

TEST(WireFormatTest, EncodingMatchesGoldenByteForByte) {
  const std::vector<WireLine> produced = wire_lines();
  const std::vector<std::string> golden = golden_lines();
  ASSERT_FALSE(golden.empty()) << "missing " SPECNOC_GOLDEN_DIR
                                  "/wire_format.jsonl";
  bool same = produced.size() == golden.size();
  for (std::size_t i = 0; i < produced.size() && i < golden.size(); ++i) {
    EXPECT_EQ(produced[i].text, golden[i]) << "golden line " << i + 1;
    same = same && produced[i].text == golden[i];
  }
  EXPECT_EQ(produced.size(), golden.size());
  if (!same) {
    std::ofstream out("wire_format.actual.jsonl", std::ios::trunc);
    for (const auto& line : produced) out << line.text << "\n";
  }
}

TEST(WireFormatTest, GoldenDecodesAndReencodesToTheSameBytes) {
  const std::vector<WireLine> produced = wire_lines();
  const std::vector<std::string> golden = golden_lines();
  ASSERT_EQ(produced.size(), golden.size());
  for (std::size_t i = 0; i < golden.size(); ++i) {
    if (!produced[i].reencode) continue;
    EXPECT_EQ(produced[i].reencode(util::json_parse(golden[i])), golden[i])
        << "golden line " << i + 1;
  }
}

}  // namespace
}  // namespace specnoc::stats
