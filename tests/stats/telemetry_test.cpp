// Unit coverage for the time-resolved telemetry layer: epoch interval
// semantics of TelemetrySampler, flight-recorder ring eviction, the exact
// JSON codec for series, the NDJSON frame protocol, and the Perfetto
// counter-track export.
#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "core/mot_network.h"
#include "noc/hooks.h"
#include "stats/metrics.h"
#include "stats/perfetto_trace.h"
#include "stats/serialization.h"
#include "stats/telemetry.h"
#include "traffic/benchmark.h"
#include "traffic/driver.h"
#include "util/error.h"
#include "util/json.h"

namespace specnoc {
namespace {

using namespace specnoc::literals;

struct SampledRun {
  stats::TelemetrySeries series;
  stats::MetricsSnapshot snapshot;
  TimePs end_time = 0;
};

/// Saturated multicast on the 8x8 hybrid network with a sampler armed on
/// the registry — the same attachment shape the experiment layer uses.
/// `dump`, when given, receives the flight recorder before finish().
SampledRun run_sampled(TimePs epoch_ps, std::size_t ring, TimePs horizon,
                       unsigned sim_threads = 1, std::FILE* dump = nullptr) {
  core::NetworkConfig cfg;  // 8x8
  cfg.sim_threads = sim_threads;
  core::MotNetwork net(core::Architecture::kOptHybridSpeculative, cfg);
  stats::MetricsRegistry registry;
  stats::TelemetryOptions options;
  options.epoch_ps = epoch_ps;
  options.ring_capacity = ring;
  stats::TelemetrySampler sampler(options);
  net.net().hooks().metrics = &registry;
  sampler.arm(net.net(), registry);
  auto pattern =
      traffic::make_benchmark(traffic::BenchmarkId::kMulticast10, cfg.n);
  traffic::DriverConfig dcfg;
  dcfg.mode = traffic::InjectionMode::kBacklogged;
  dcfg.seed = 99;
  traffic::TrafficDriver driver(net, *pattern, dcfg);
  driver.start();
  net.net().run_until(horizon);
  if (dump != nullptr) sampler.dump_flight_recorder(dump);
  SampledRun run;
  run.series = sampler.finish();
  run.snapshot = registry.snapshot();
  run.end_time = net.net().now();
  return run;
}

TEST(TelemetrySamplerTest, IntervalsAreContiguousAndEpochAligned) {
  const SampledRun run = run_sampled(10_ns, 4096, 100_ns);
  const auto& series = run.series;
  ASSERT_EQ(series.epoch_ps, 10_ns);
  ASSERT_FALSE(series.epochs.empty());
  EXPECT_EQ(series.dropped, 0u);
  EXPECT_EQ(series.epochs_total, series.epochs.size());

  EXPECT_EQ(series.epochs.front().start_ps, 0);
  for (std::size_t i = 0; i < series.epochs.size(); ++i) {
    const auto& epoch = series.epochs[i];
    EXPECT_LT(epoch.start_ps, epoch.end_ps) << "epoch " << i;
    if (i > 0) {
      EXPECT_EQ(epoch.start_ps, series.epochs[i - 1].end_ps) << "epoch " << i;
    }
    // Every interior interval closes on an epoch boundary; a quiet stretch
    // closes as one wider interval, still a whole number of epochs.
    if (i + 1 < series.epochs.size()) {
      EXPECT_EQ(epoch.end_ps % series.epoch_ps, 0) << "epoch " << i;
    }
  }
  // The final interval is closed by finish() at the run's end time.
  EXPECT_LE(series.epochs.back().end_ps, run.end_time);
}

TEST(TelemetrySamplerTest, DeltasSumToRunTotals) {
  const SampledRun run = run_sampled(10_ns, 4096, 500_ns);
  ASSERT_FALSE(run.snapshot.empty());
  ASSERT_GT(run.snapshot.total_kills(), 0u);

  std::uint64_t kills = 0, hits = 0, misses = 0, grants = 0, events = 0;
  std::map<std::string, std::uint64_t> stalls;
  for (const auto& epoch : run.series.epochs) {
    kills += epoch.kills;
    hits += epoch.prealloc_hits;
    misses += epoch.prealloc_misses;
    grants += epoch.contended_grants;
    events += epoch.events;
    for (const auto& [klass, stall_ps] : epoch.stall_time_ps) {
      stalls[klass] += stall_ps;
    }
  }
  EXPECT_EQ(kills, run.snapshot.total_kills());
  EXPECT_EQ(hits, run.snapshot.total_prealloc_hits());
  EXPECT_EQ(misses, run.snapshot.total_prealloc_misses());
  EXPECT_GT(events, 0u);
  std::uint64_t grants_total = 0;
  for (const auto& site : run.snapshot.sites) {
    grants_total += site.counters.contended_grants;
  }
  EXPECT_EQ(grants, grants_total);
  for (const auto& channel : run.snapshot.channels) {
    EXPECT_EQ(stalls[channel.klass], channel.stall_time_ps) << channel.klass;
  }
}

// The simulated fields of every epoch of a sequential 8x8 cell, pinned:
// the epoch hook reads the kernel's executed() and pending() mid-run, so a
// kernel that fired the hook one pop early or late would move them here
// while every run total still matched.
TEST(TelemetrySamplerTest, PinsSimulatedFieldsOfASequentialCell) {
  const SampledRun run = run_sampled(10_ns, 4096, 100_ns);
  std::string rendered;
  for (const auto& epoch : run.series.epochs) {
    rendered += std::to_string(epoch.start_ps) + " " +
                std::to_string(epoch.end_ps) +
                " events=" + std::to_string(epoch.events) +
                " pending=" + std::to_string(epoch.pending) +
                " overflow=" + std::to_string(epoch.overflow_pending) +
                " kills=" + std::to_string(epoch.kills) +
                " grants=" + std::to_string(epoch.contended_grants) + "\n";
    for (const auto& [klass, stall_ps] : epoch.stall_time_ps) {
      rendered += " " + klass + "=" + std::to_string(stall_ps);
    }
    rendered += "\n";
  }
  const char* const expected =
    "0 10000 events=5262 pending=57 overflow=0 kills=58 grants=111\n"
    " fanin=152651 fanout=153838 middle=24752 sink_if=9450 source_if=64851\n"
    "10000 20000 events=5377 pending=108 overflow=0 kills=41 grants=180\n"
    " fanin=222200 fanout=178462 middle=60428 sink_if=11970 source_if=73616\n"
    "20000 30000 events=5449 pending=63 overflow=0 kills=46 grants=261\n"
    " fanin=288571 fanout=157261 middle=73276 sink_if=13370 source_if=64568\n"
    "30000 40000 events=4573 pending=60 overflow=0 kills=47 grants=144\n"
    " fanin=203223 fanout=169385 middle=64486 sink_if=11270 source_if=78053\n"
    "40000 50000 events=4973 pending=74 overflow=0 kills=46 grants=162\n"
    " fanin=194260 fanout=163279 middle=60030 sink_if=11060 source_if=70331\n"
    "50000 60000 events=5239 pending=77 overflow=0 kills=48 grants=173\n"
    " fanin=213904 fanout=167209 middle=60982 sink_if=11830 source_if=68946\n"
    "60000 70000 events=4604 pending=72 overflow=0 kills=39 grants=201\n"
    " fanin=234877 fanout=168173 middle=75008 sink_if=11900 source_if=73936\n"
    "70000 80000 events=5602 pending=55 overflow=0 kills=52 grants=178\n"
    " fanin=227122 fanout=157560 middle=54452 sink_if=12390 source_if=65996\n"
    "80000 90000 events=4836 pending=39 overflow=0 kills=39 grants=178\n"
    " fanin=241503 fanout=155453 middle=63686 sink_if=12390 source_if=61061\n"
    "90000 100000 events=5166 pending=93 overflow=0 kills=50 grants=102\n"
    " fanin=180243 fanout=174524 middle=59200 sink_if=11620 source_if=85271\n";
  EXPECT_EQ(rendered, expected);
}

TEST(TelemetrySamplerTest, RingEvictsOldestAndCountsDropped) {
  const SampledRun run = run_sampled(1_ns, 8, 200_ns);
  const auto& series = run.series;
  ASSERT_EQ(series.epochs.size(), 8u);
  EXPECT_GT(series.dropped, 0u);
  EXPECT_EQ(series.epochs_total, series.dropped + series.epochs.size());
  // The retained suffix is the most recent one.
  EXPECT_GT(series.epochs.front().start_ps, 0);
  EXPECT_LE(series.epochs.back().end_ps, run.end_time);
}

TEST(TelemetrySamplerTest, WrappedRingKeepsTheNewestEpochsInTimeOrder) {
  // 200 one-nanosecond epochs through a capacity-4 ring wrap it ~50 times.
  const SampledRun full = run_sampled(1_ns, 4096, 200_ns);
  std::FILE* dump = std::tmpfile();
  ASSERT_NE(dump, nullptr);
  const SampledRun ring = run_sampled(1_ns, 4, 200_ns, 1, dump);

  const auto& all = full.series.epochs;
  ASSERT_GT(all.size(), 4u * 8);
  EXPECT_EQ(full.series.dropped, 0u);
  EXPECT_EQ(ring.series.epochs_total, full.series.epochs_total);
  EXPECT_EQ(ring.series.dropped, ring.series.epochs_total - 4);
  // The retained suffix is exactly the last four epochs, oldest first.
  ASSERT_EQ(ring.series.epochs.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_TRUE(ring.series.epochs[i] == all[all.size() - 4 + i]) << i;
  }

  // The dump, taken before finish() closed the final interval, lists the
  // ring in the same order, shifted by the intervals closed after it.
  std::rewind(dump);
  unsigned long long observed = 0;
  std::vector<TimePs> dumped_starts;
  char line[512];
  while (std::fgets(line, sizeof line, dump) != nullptr) {
    unsigned long long start = 0;
    unsigned long long end = 0;
    if (std::sscanf(line, "[telemetry] flight recorder: %llu", &observed) ==
        1) {
      continue;
    }
    if (std::sscanf(line, "[telemetry]   [%llu, %llu)", &start, &end) == 2) {
      dumped_starts.push_back(static_cast<TimePs>(start));
    }
  }
  std::fclose(dump);
  ASSERT_EQ(dumped_starts.size(), 4u);
  ASSERT_LE(observed, ring.series.epochs_total);
  const std::size_t shift = ring.series.epochs_total - observed;
  ASSERT_LE(shift, 1u);
  for (std::size_t i = 0; i + shift < 4; ++i) {
    EXPECT_EQ(dumped_starts[i + shift], ring.series.epochs[i].start_ps) << i;
  }
}

TEST(TelemetrySamplerTest, FlightRecorderDumpIsNonEmpty) {
  core::NetworkConfig cfg;
  core::MotNetwork net(core::Architecture::kOptHybridSpeculative, cfg);
  stats::MetricsRegistry registry;
  stats::TelemetryOptions options;
  options.epoch_ps = 10_ns;
  stats::TelemetrySampler sampler(options);
  net.net().hooks().metrics = &registry;
  sampler.arm(net.net(), registry);
  auto pattern =
      traffic::make_benchmark(traffic::BenchmarkId::kMulticast10, cfg.n);
  traffic::DriverConfig dcfg;
  dcfg.mode = traffic::InjectionMode::kBacklogged;
  dcfg.seed = 99;
  traffic::TrafficDriver driver(net, *pattern, dcfg);
  driver.start();
  net.net().run_until(100_ns);

  std::FILE* out = std::tmpfile();
  ASSERT_NE(out, nullptr);
  sampler.dump_flight_recorder(out);
  EXPECT_GT(std::ftell(out), 0);
  std::fclose(out);
}

TEST(TelemetrySeriesTest, JsonRoundTripIsByteIdentical) {
  const SampledRun run = run_sampled(10_ns, 4096, 200_ns);
  const util::Json json = stats::telemetry_series_to_json(run.series);
  const stats::TelemetrySeries back =
      stats::telemetry_series_from_json(json);
  EXPECT_TRUE(back == run.series);
  EXPECT_EQ(util::json_write(stats::telemetry_series_to_json(back)),
            util::json_write(json));
}

TEST(TelemetrySeriesTest, EmptySeriesIsOmittedFromSnapshotJson) {
  stats::MetricsSnapshot snapshot;
  const std::string plain = util::json_write(stats::to_json(snapshot));
  EXPECT_EQ(plain.find("telemetry"), std::string::npos);
  EXPECT_EQ(plain.find("spills"), std::string::npos);

  snapshot.telemetry.epoch_ps = 10_ns;
  snapshot.dest_spills = 3;
  const std::string with = util::json_write(stats::to_json(snapshot));
  EXPECT_NE(with.find("telemetry"), std::string::npos);
  EXPECT_NE(with.find("spills"), std::string::npos);

  const stats::MetricsSnapshot back =
      stats::metrics_snapshot_from_json(stats::to_json(snapshot));
  EXPECT_EQ(back.dest_spills, 3u);
  EXPECT_TRUE(back.telemetry == snapshot.telemetry);
}

TEST(TelemetryFrameTest, RoundTripsAllKinds) {
  for (const auto kind :
       {stats::TelemetryFrameKind::kStart, stats::TelemetryFrameKind::kRun,
        stats::TelemetryFrameKind::kEnd}) {
    util::Json body = util::Json::object();
    body.set("tool", "test");
    body.set("cell", std::uint64_t{7});
    const std::string line = stats::telemetry_frame_write(kind, body);
    EXPECT_EQ(line.find('\n'), std::string::npos);
    const stats::TelemetryFrame frame = stats::telemetry_frame_parse(line);
    EXPECT_EQ(frame.kind, kind);
    EXPECT_EQ(frame.body.at("frame").as_string(), stats::to_string(kind));
    EXPECT_EQ(frame.body.at("tool").as_string(), "test");
    EXPECT_EQ(frame.body.at("cell").as_u64(), 7u);
    // The line is stable under a parse/re-write cycle.
    util::Json again = frame.body;
    // body round-trips exactly: the discriminator stays the first key.
    EXPECT_EQ(util::json_write(again), line);
  }
}

TEST(TelemetryFrameTest, ParseRejectsMalformedLines) {
  EXPECT_THROW(stats::telemetry_frame_parse("not json"), ConfigError);
  EXPECT_THROW(stats::telemetry_frame_parse("[1,2]"), ConfigError);
  EXPECT_THROW(stats::telemetry_frame_parse("{\"a\":1}"), ConfigError);
  EXPECT_THROW(stats::telemetry_frame_parse("{\"frame\":\"bogus\"}"),
               ConfigError);
}

/// One run frame as ShardedSweep streams it (no series).
stats::TelemetryFrame run_frame(std::uint64_t cell, const std::string& status,
                                const std::string& error = {}) {
  util::Json body = util::Json::object();
  body.set("grid", "latency");
  body.set("cell", cell);
  body.set("grid_runs", std::uint64_t{3});
  body.set("key", "k" + std::to_string(cell));
  body.set("status", status);
  if (!error.empty()) body.set("error", error);
  body.set("events", std::uint64_t{100});
  body.set("wall_ms", 1.5);
  return stats::telemetry_frame_parse(
      stats::telemetry_frame_write(stats::TelemetryFrameKind::kRun, body));
}

// A run that succeeded on its second attempt streams status "retried": the
// follow view shows it as retried and counts it as a success, not a
// failure. Each grid counts its completed runs against grid_runs.
TEST(TelemetryFollowViewTest, RetriedRunIsNotAFailure) {
  stats::FollowView view;
  util::Json start = util::Json::object();
  start.set("tool", "bench_x");
  EXPECT_EQ(view.render(stats::telemetry_frame_parse(stats::telemetry_frame_write(
                stats::TelemetryFrameKind::kStart, start))),
            "-- bench_x sweep started --\n");

  const std::string ok = view.render(run_frame(2, "ok"));
  const std::string retried = view.render(run_frame(0, "retried"));
  const std::string failed = view.render(run_frame(1, "failed", "boom"));
  EXPECT_NE(ok.find("1/3"), std::string::npos) << ok;
  EXPECT_NE(ok.find(" ok "), std::string::npos) << ok;
  EXPECT_NE(retried.find("2/3"), std::string::npos) << retried;
  EXPECT_NE(retried.find(" retried "), std::string::npos) << retried;
  EXPECT_NE(failed.find("3/3"), std::string::npos) << failed;
  EXPECT_NE(failed.find(" FAIL "), std::string::npos) << failed;
  EXPECT_NE(failed.find("boom"), std::string::npos) << failed;
  EXPECT_FALSE(view.done());

  util::Json end = util::Json::object();
  end.set("tool", "bench_x");
  EXPECT_EQ(view.render(stats::telemetry_frame_parse(stats::telemetry_frame_write(
                stats::TelemetryFrameKind::kEnd, end))),
            "-- done: 3 run(s), 1 failed, 1 retried, 300 events, 4.5 ms run "
            "wall time --\n");
  EXPECT_TRUE(view.done());
}

TEST(TelemetryPerfettoTest, CounterTracksRideTheTrace) {
  const SampledRun run = run_sampled(10_ns, 4096, 100_ns);
  ASSERT_FALSE(run.series.epochs.empty());
  stats::PerfettoTracer tracer;
  tracer.set_telemetry(run.series);
  const util::Json doc = tracer.trace_json();

  std::size_t counters = 0;
  bool saw_rate = false, saw_kills = false, saw_stall = false;
  for (const util::Json& event : doc.at("traceEvents").items()) {
    const util::Json* ph = event.find("ph");
    if (ph == nullptr || ph->as_string() != "C") continue;
    ++counters;
    const std::string name = event.at("name").as_string();
    if (name == "telemetry.events_per_s") saw_rate = true;
    if (name == "telemetry.kills") saw_kills = true;
    if (name.rfind("telemetry.stall_ps.", 0) == 0) saw_stall = true;
    EXPECT_NO_THROW(event.at("args").at("value"));
  }
  EXPECT_GE(counters, run.series.epochs.size() * 6);
  EXPECT_TRUE(saw_rate);
  EXPECT_TRUE(saw_kills);
  EXPECT_TRUE(saw_stall);
}

}  // namespace
}  // namespace specnoc
