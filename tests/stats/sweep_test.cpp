#include "stats/sweep.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "stats/experiment.h"
#include "stats/serialization.h"
#include "stats/telemetry.h"
#include "util/error.h"
#include "util/json.h"
#include "workload/synth.h"

namespace specnoc::stats {
namespace {

using core::Architecture;
using traffic::BenchmarkId;
using namespace specnoc::literals;

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "specnoc_sweep_" + name;
}

void write_text(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::trunc);
  out << text;
  ASSERT_TRUE(out.good());
}

std::string read_text(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

const char* kManifestLine =
    "{\"record\":\"manifest\",\"format\":\"specnoc-sweep\",\"schema\":1,"
    "\"tool\":\"t\",\"shard\":0,\"shards\":1,\"seed\":42}\n";
const char* kGridLine =
    "{\"record\":\"grid\",\"name\":\"g\",\"kind\":\"latency\",\"size\":2,"
    "\"hash\":\"00000000000000aa\"}\n";

std::string outcome_line(std::size_t cell, const std::string& status) {
  return "{\"record\":\"outcome\",\"grid\":\"g\",\"cell\":" +
         std::to_string(cell) + ",\"key\":\"k" + std::to_string(cell) +
         "\",\"status\":\"" + status + "\",\"data\":{}}\n";
}

TEST(ShardFileTest, WriteLoadRoundTripIsByteStable) {
  ShardFile file;
  file.manifest.tool = "bench_fig6a";
  file.manifest.shard = {1, 3};
  file.manifest.seed = 42;
  file.grids.push_back({"latency", "latency", 4, "0123456789abcdef"});
  SweepRecord rec;
  rec.cell = 2;
  rec.key = "lat|Baseline|UniformRandom|seed=0|rate=0.25|w=100000:800000";
  rec.status = "ok";
  rec.data = util::json_parse("{\"x\":1.26}");
  file.records["latency"].emplace(rec.cell, rec);
  file.complete = true;

  const std::string path = temp_path("roundtrip.jsonl");
  write_shard_file(file, path);
  const ShardFile back = load_shard_file(path);
  EXPECT_EQ(back.manifest.tool, "bench_fig6a");
  EXPECT_EQ(back.manifest.shard, (sim::ShardRef{1, 3}));
  EXPECT_EQ(back.manifest.seed, 42u);
  ASSERT_EQ(back.grids.size(), 1u);
  EXPECT_EQ(back.grids[0].hash, "0123456789abcdef");
  EXPECT_EQ(back.grids[0].size, 4u);
  ASSERT_EQ(back.records.at("latency").size(), 1u);
  EXPECT_EQ(back.records.at("latency").at(2).key, rec.key);
  EXPECT_TRUE(back.complete);

  const std::string again = temp_path("roundtrip2.jsonl");
  write_shard_file(back, again);
  EXPECT_EQ(read_text(path), read_text(again));
}

TEST(ShardFileTest, LoaderRejectsMalformedFiles) {
  const std::string path = temp_path("bad.jsonl");
  // Outcome before any manifest.
  write_text(path, outcome_line(0, "ok"));
  EXPECT_THROW(load_shard_file(path), ConfigError);
  // Completely empty file.
  write_text(path, "");
  EXPECT_THROW(load_shard_file(path), ConfigError);
  // Wrong format marker.
  write_text(path,
             "{\"record\":\"manifest\",\"format\":\"nope\",\"schema\":1,"
             "\"tool\":\"t\",\"shard\":0,\"shards\":1,\"seed\":42}\n");
  EXPECT_THROW(load_shard_file(path), ConfigError);
  // Unsupported schema version (this build reads 1..2).
  write_text(path,
             "{\"record\":\"manifest\",\"format\":\"specnoc-sweep\","
             "\"schema\":3,\"tool\":\"t\",\"shard\":0,\"shards\":1,"
             "\"seed\":42}\n");
  EXPECT_THROW(load_shard_file(path), ConfigError);
  // Schema-1 files (before shared anchor grids) still load.
  write_text(path, kManifestLine);
  EXPECT_NO_THROW(load_shard_file(path));
  // Outcome for an unregistered grid.
  write_text(path, std::string(kManifestLine) + outcome_line(0, "ok"));
  EXPECT_THROW(load_shard_file(path), ConfigError);
  // Cell out of range for the grid.
  write_text(path,
             std::string(kManifestLine) + kGridLine + outcome_line(7, "ok"));
  EXPECT_THROW(load_shard_file(path), ConfigError);
  // Unknown status.
  write_text(path, std::string(kManifestLine) + kGridLine +
                       outcome_line(0, "maybe"));
  EXPECT_THROW(load_shard_file(path), ConfigError);
  // Record after the done record.
  write_text(path, std::string(kManifestLine) + kGridLine +
                       "{\"record\":\"done\",\"outcomes\":0}\n" +
                       outcome_line(0, "ok"));
  EXPECT_THROW(load_shard_file(path), ConfigError);
  // Duplicate grid registration.
  write_text(path, std::string(kManifestLine) + kGridLine + kGridLine);
  EXPECT_THROW(load_shard_file(path), ConfigError);
  // Every malformed line names the file and the line: a bad value, a
  // missing key, a mistyped field and a line that is not an object.
  const auto expect_line_3_error = [&path](const std::string& line3) {
    write_text(path, std::string(kManifestLine) + kGridLine + line3);
    try {
      load_shard_file(path);
      ADD_FAILURE() << "expected ConfigError for " << line3;
    } catch (const ConfigError& error) {
      EXPECT_NE(std::string(error.what()).find(path + ":3:"),
                std::string::npos)
          << error.what();
    }
  };
  expect_line_3_error(outcome_line(0, "maybe"));
  expect_line_3_error(
      "{\"record\":\"outcome\",\"grid\":\"g\",\"key\":\"k\","
      "\"status\":\"ok\",\"data\":{}}\n");
  expect_line_3_error(
      "{\"record\":\"outcome\",\"grid\":\"g\",\"cell\":\"0\","
      "\"key\":\"k\",\"status\":\"ok\",\"data\":{}}\n");
  expect_line_3_error("[\"record\",\"outcome\"]\n");
}

// The writer replaces the file by renaming a finished <path>.tmp over it,
// so a write that fails part way leaves the previous file byte-identical.
TEST(ShardFileTest, FailedWriteKeepsThePreviousFile) {
  const std::string path = temp_path("atomic.jsonl");
  ShardFile before;
  before.manifest.tool = "t";
  before.manifest.seed = 42;
  write_shard_file(before, path);
  const std::string bytes = read_text(path);

  ShardFile after = before;
  after.grids.push_back({"g", "latency", 2, "00000000000000aa"});
  after.complete = true;
  const std::filesystem::path tmp = path + ".tmp";
  std::filesystem::remove_all(tmp);
  ASSERT_TRUE(std::filesystem::create_directory(tmp));
  EXPECT_THROW(write_shard_file(after, path), ConfigError);
  std::filesystem::remove_all(tmp);
  EXPECT_EQ(read_text(path), bytes);

  write_shard_file(after, path);
  EXPECT_EQ(load_shard_file(path).grids.size(), 1u);
  EXPECT_FALSE(std::filesystem::exists(tmp));
}

TEST(ShardFileTest, AppendedRecordsReplaceEarlierOnes) {
  // Resume-by-append: a re-run of a failed cell supersedes it.
  const std::string path = temp_path("resume.jsonl");
  write_text(path, std::string(kManifestLine) + kGridLine +
                       outcome_line(0, "failed") + outcome_line(1, "ok") +
                       outcome_line(0, "retried"));
  const ShardFile file = load_shard_file(path);
  ASSERT_EQ(file.records.at("g").size(), 2u);
  EXPECT_EQ(file.records.at("g").at(0).status, "retried");
  EXPECT_EQ(file.records.at("g").at(1).status, "ok");
  EXPECT_FALSE(file.complete);  // no done record
}

ShardFile make_shard(unsigned index, unsigned count,
                     const std::vector<std::size_t>& cells,
                     const std::string& status = "ok") {
  ShardFile file;
  file.manifest.tool = "t";
  file.manifest.shard = {index, count};
  file.manifest.seed = 42;
  file.grids.push_back({"g", "latency", 3, "00000000000000aa"});
  for (const std::size_t cell : cells) {
    SweepRecord rec;
    rec.cell = cell;
    rec.key = "k";
    rec.key += std::to_string(cell);
    rec.status = status;
    rec.data = util::Json::object();
    file.records["g"].emplace(cell, rec);
  }
  file.complete = true;
  return file;
}

TEST(MergeTest, CombinesDisjointShardsCompletely) {
  MergeReport report;
  const ShardFile merged =
      merge_shards({make_shard(0, 2, {0, 2}), make_shard(1, 2, {1})}, &report);
  EXPECT_TRUE(report.complete());
  ASSERT_EQ(report.grids.size(), 1u);
  EXPECT_EQ(report.grids[0].present, 3u);
  EXPECT_TRUE(report.grids[0].missing.empty());
  EXPECT_TRUE(report.grids[0].duplicates.empty());
  EXPECT_EQ(merged.manifest.shard, (sim::ShardRef{0, 1}));
  EXPECT_EQ(merged.records.at("g").size(), 3u);
  EXPECT_TRUE(merged.complete);
  EXPECT_NE(report.summary().find("merge: complete"), std::string::npos);
}

TEST(MergeTest, ReportsMissingDuplicateAndFailedCells) {
  MergeReport report;
  const ShardFile merged = merge_shards(
      {make_shard(0, 2, {0}), make_shard(1, 2, {0, 1}, "failed")}, &report);
  EXPECT_FALSE(report.complete());
  ASSERT_EQ(report.grids.size(), 1u);
  EXPECT_EQ(report.grids[0].missing, (std::vector<std::size_t>{2}));
  EXPECT_EQ(report.grids[0].duplicates, (std::vector<std::size_t>{0}));
  // Cell 0: first input wins, so its status is "ok", not "failed".
  EXPECT_EQ(merged.records.at("g").at(0).status, "ok");
  EXPECT_EQ(report.grids[0].failed, (std::vector<std::size_t>{1}));
  EXPECT_FALSE(merged.complete);
  EXPECT_NE(report.summary().find("merge: INCOMPLETE"), std::string::npos);
}

TEST(MergeTest, FailedCellsAloneDoNotBlockCompleteness) {
  MergeReport report;
  const ShardFile merged = merge_shards(
      {make_shard(0, 1, {0, 1, 2}, "failed")}, &report);
  EXPECT_TRUE(report.complete());
  EXPECT_EQ(report.grids[0].failed.size(), 3u);
  EXPECT_TRUE(merged.complete);
}

TEST(MergeTest, CountsInputsWithoutDoneRecord) {
  auto partial = make_shard(0, 1, {0, 1, 2});
  partial.complete = false;
  MergeReport report;
  merge_shards({partial}, &report);
  EXPECT_EQ(report.incomplete_inputs, 1u);
  EXPECT_TRUE(report.complete());  // coverage is still full
}

TEST(MergeTest, RejectsInputsFromDifferentSweeps) {
  const auto a = make_shard(0, 2, {0});
  auto b = make_shard(1, 2, {1});
  {
    auto other = b;
    other.manifest.tool = "other";
    EXPECT_THROW(merge_shards({a, other}, nullptr), ConfigError);
  }
  {
    auto other = b;
    other.manifest.seed = 7;
    EXPECT_THROW(merge_shards({a, other}, nullptr), ConfigError);
  }
  {
    auto other = make_shard(1, 3, {1});  // different shard count
    EXPECT_THROW(merge_shards({a, other}, nullptr), ConfigError);
  }
  {
    auto other = make_shard(0, 2, {1});  // duplicate shard index
    EXPECT_THROW(merge_shards({a, other}, nullptr), ConfigError);
  }
  {
    auto other = b;
    other.grids[0].hash = "00000000000000bb";  // different grid identity
    EXPECT_THROW(merge_shards({a, other}, nullptr), ConfigError);
  }
  {
    auto other = b;
    other.records["g"].at(1).cell = 0;  // conflicting key for cell 0
    auto moved = other.records["g"].at(1);
    other.records["g"].clear();
    other.records["g"].emplace(0, moved);
    EXPECT_THROW(merge_shards({a, other}, nullptr), ConfigError);
  }
  EXPECT_THROW(merge_shards({}, nullptr), ConfigError);
}

std::vector<LatencySpec> small_latency_grid() {
  std::vector<LatencySpec> specs;
  for (const auto arch :
       {Architecture::kBaseline, Architecture::kOptHybridSpeculative}) {
    for (const double rate : {0.05, 0.15}) {
      specs.push_back({.arch = arch,
                       .bench = BenchmarkId::kUniformRandom,
                       .injected_flits_per_ns = rate,
                       .windows = {.warmup = 100_ns, .measure = 800_ns},
                       .seed = 0,
                       .custom = {}});
    }
  }
  return specs;
}

SweepOptions base_options() {
  SweepOptions options;
  options.tool = "sweep_test";
  options.batch.jobs = 1;
  return options;
}

// The invariant the whole format exists for: running the grid as K shard
// workers, merging their files, and rendering from the merged file yields
// outcomes serialized byte-identically to a single-process run.
TEST(ShardedSweepTest, WorkerMergeRenderMatchesSingleProcess) {
  const core::NetworkConfig cfg;  // default 8x8
  const auto specs = small_latency_grid();

  ShardedSweep ref_sweep(cfg, 42, base_options());
  const auto reference =
      ref_sweep.grid<LatencyProtocol>("latency", specs);
  EXPECT_EQ(ref_sweep.finish(), 0);

  constexpr unsigned kShards = 2;
  std::vector<std::string> shard_paths;
  for (unsigned shard = 0; shard < kShards; ++shard) {
    auto options = base_options();
    options.shard = {shard, kShards};
    options.out_path = temp_path("e2e_s" + std::to_string(shard) + ".jsonl");
    write_text(options.out_path, "");  // start fresh even across test reruns
    ShardedSweep sweep(cfg, 42, options);
    EXPECT_FALSE(sweep.should_render());
    const auto outcomes = sweep.grid<LatencyProtocol>("latency", specs);
    ASSERT_EQ(outcomes.size(), specs.size());
    // Non-owned cells are marked, never silently zero-filled.
    const sim::ShardPlan plan(kShards);
    for (std::size_t i = 0; i < specs.size(); ++i) {
      if (plan.shard_of(spec_key(specs[i])) != shard) {
        EXPECT_FALSE(outcomes[i].run.ok);
        EXPECT_NE(outcomes[i].run.error.find("not owned"), std::string::npos);
      } else {
        EXPECT_TRUE(outcomes[i].run.ok);
      }
    }
    EXPECT_EQ(sweep.finish(), 0);
    shard_paths.push_back(options.out_path);
  }

  std::vector<ShardFile> inputs;
  for (const auto& path : shard_paths) inputs.push_back(load_shard_file(path));
  MergeReport report;
  const ShardFile merged = merge_shards(inputs, &report);
  ASSERT_TRUE(report.complete()) << report.summary();
  const std::string merged_path = temp_path("e2e_merged.jsonl");
  write_shard_file(merged, merged_path);

  auto render_options = base_options();
  render_options.from_path = merged_path;
  ShardedSweep render_sweep(cfg, 42, render_options);
  EXPECT_TRUE(render_sweep.should_render());
  const auto rendered =
      render_sweep.grid<LatencyProtocol>("latency", specs);
  EXPECT_EQ(render_sweep.finish(), 0);

  ASSERT_EQ(rendered.size(), reference.size());
  for (std::size_t i = 0; i < reference.size(); ++i) {
    // wall_ms is wall-clock telemetry — the only field allowed to differ
    // between two runs of the same cell. Everything a table renders from
    // (spec, result, status) must be byte-identical.
    auto a = rendered[i];
    auto b = reference[i];
    a.run.telemetry.wall_ms = 0.0;
    b.run.telemetry.wall_ms = 0.0;
    EXPECT_EQ(util::json_write(to_json(a)), util::json_write(to_json(b)))
        << "cell " << i << " (" << spec_key(specs[i]) << ")";
  }
}

// Same invariant for the workload kind, which additionally re-arms the
// trace pointer on carried/rendered cells (traces don't travel in shard
// files — only their hash does).
TEST(ShardedSweepTest, WorkloadWorkerMergeRenderMatchesSingleProcess) {
  const core::NetworkConfig cfg;
  const auto trace = std::make_shared<const workload::Trace>(
      workload::make_synth_workload(workload::SynthId::kDnnLayers, cfg.n,
                                    cfg.flits_per_packet, 42));
  std::vector<WorkloadSpec> specs;
  for (const auto arch :
       {Architecture::kBaseline, Architecture::kOptHybridSpeculative}) {
    for (const auto mode :
         {workload::ReplayMode::kClosedLoop, workload::ReplayMode::kTimed}) {
      specs.push_back(make_workload_spec(arch, "DnnLayers", mode, trace));
    }
  }

  ShardedSweep ref_sweep(cfg, 42, base_options());
  const auto reference =
      ref_sweep.grid<WorkloadProtocol>("workload", specs);
  EXPECT_EQ(ref_sweep.finish(), 0);

  constexpr unsigned kShards = 2;
  std::vector<ShardFile> inputs;
  for (unsigned shard = 0; shard < kShards; ++shard) {
    auto options = base_options();
    options.shard = {shard, kShards};
    options.out_path = temp_path("wl_s" + std::to_string(shard) + ".jsonl");
    write_text(options.out_path, "");
    ShardedSweep sweep(cfg, 42, options);
    const auto outcomes =
        sweep.grid<WorkloadProtocol>("workload", specs);
    ASSERT_EQ(outcomes.size(), specs.size());
    EXPECT_EQ(sweep.finish(), 0);
    inputs.push_back(load_shard_file(options.out_path));
  }

  MergeReport report;
  const ShardFile merged = merge_shards(inputs, &report);
  ASSERT_TRUE(report.complete()) << report.summary();
  const std::string merged_path = temp_path("wl_merged.jsonl");
  write_shard_file(merged, merged_path);

  auto render_options = base_options();
  render_options.from_path = merged_path;
  ShardedSweep render_sweep(cfg, 42, render_options);
  const auto rendered =
      render_sweep.grid<WorkloadProtocol>("workload", specs);
  EXPECT_EQ(render_sweep.finish(), 0);

  ASSERT_EQ(rendered.size(), reference.size());
  for (std::size_t i = 0; i < reference.size(); ++i) {
    // Rendered cells get their spec (and live trace) re-armed from the
    // caller's grid, not from the file.
    EXPECT_EQ(rendered[i].spec.trace.get(), trace.get()) << "cell " << i;
    auto a = rendered[i];
    auto b = reference[i];
    a.run.telemetry.wall_ms = 0.0;
    b.run.telemetry.wall_ms = 0.0;
    EXPECT_EQ(util::json_write(to_json(a)), util::json_write(to_json(b)))
        << "cell " << i << " (" << spec_key(specs[i]) << ")";
  }
}

TEST(ShardedSweepTest, WorkerResumesCompletedCellsWithoutRerunning) {
  const core::NetworkConfig cfg;
  const auto specs = small_latency_grid();
  const auto keys = spec_keys(specs);

  // Fabricate a partial shard file: cell 0 "done" with a sentinel latency
  // no real run would produce, cell 1 failed; cells 2..3 missing.
  auto options = base_options();
  options.shard = {0, 1};
  options.out_path = temp_path("resume_worker.jsonl");
  ShardFile prior;
  prior.manifest.tool = options.tool;
  prior.manifest.shard = options.shard;
  prior.manifest.seed = 42;
  prior.grids.push_back(
      {"latency", "latency", specs.size(), grid_hash(keys)});
  LatencyOutcome fabricated;
  fabricated.spec = specs[0];
  fabricated.run.ok = true;
  fabricated.run.telemetry.attempts = 1;
  fabricated.result.mean_latency_ns = 1234.5;
  fabricated.result.drained = true;
  SweepRecord done_rec{0, keys[0], "ok", to_json(fabricated)};
  prior.records["latency"].emplace(0, done_rec);
  LatencyOutcome failed;
  failed.spec = specs[1];
  failed.run.ok = false;
  failed.run.error = "boom";
  failed.run.telemetry.attempts = 2;
  SweepRecord failed_rec{1, keys[1], "failed", to_json(failed)};
  prior.records["latency"].emplace(1, failed_rec);
  write_shard_file(prior, options.out_path);

  ShardedSweep sweep(cfg, 42, options);
  const auto outcomes = sweep.grid<LatencyProtocol>("latency", specs);
  EXPECT_EQ(sweep.finish(), 0);

  // Cell 0 was carried over verbatim (the sentinel survives — it was not
  // re-simulated); the failed and missing cells were actually run.
  EXPECT_EQ(outcomes[0].result.mean_latency_ns, 1234.5);
  for (std::size_t i = 1; i < outcomes.size(); ++i) {
    EXPECT_TRUE(outcomes[i].run.ok) << outcomes[i].run.error;
    EXPECT_LT(outcomes[i].result.mean_latency_ns, 100.0);
  }
  const ShardFile after = load_shard_file(options.out_path);
  EXPECT_TRUE(after.complete);
  EXPECT_EQ(after.records.at("latency").size(), specs.size());
  EXPECT_EQ(after.records.at("latency").at(1).status, "ok");  // re-run
}

// A shard file cut short anywhere (a partial copy, a torn write) loads or
// fails with a ConfigError naming the file; it never crashes or throws
// anything else.
TEST(ShardFileTest, EveryTruncationLoadsOrNamesTheFile) {
  auto options = base_options();
  options.shard = {0, 1};
  options.out_path = temp_path("truncation_source.jsonl");
  write_text(options.out_path, "");
  ShardedSweep sweep(core::NetworkConfig{}, 42, options);
  sweep.grid<LatencyProtocol>("latency", small_latency_grid());
  ASSERT_EQ(sweep.finish(), 0);
  const std::string full = read_text(options.out_path);
  ASSERT_FALSE(full.empty());

  const std::string path = temp_path("truncated.jsonl");
  for (std::size_t length = 0; length <= full.size(); ++length) {
    write_text(path, full.substr(0, length));
    try {
      load_shard_file(path);
    } catch (const ConfigError& error) {
      ASSERT_NE(std::string(error.what()).find(path), std::string::npos)
          << "prefix of " << length << " bytes: " << error.what();
    }
  }
}

TEST(ShardedSweepTest, WorkerRefusesForeignOutputFile) {
  auto options = base_options();
  options.shard = {0, 1};
  options.out_path = temp_path("foreign.jsonl");
  ShardFile foreign;
  foreign.manifest.tool = "some_other_tool";
  foreign.manifest.shard = {0, 1};
  foreign.manifest.seed = 42;
  write_shard_file(foreign, options.out_path);
  EXPECT_THROW((ShardedSweep{core::NetworkConfig{}, 42, options}),
               ConfigError);
}

TEST(ShardedSweepTest, RenderValidatesManifestAndGridIdentity) {
  const core::NetworkConfig cfg;
  const auto specs = small_latency_grid();
  const auto keys = spec_keys(specs);

  ShardFile merged;
  merged.manifest.tool = "sweep_test";
  merged.manifest.shard = {0, 1};
  merged.manifest.seed = 42;
  merged.grids.push_back(
      {"latency", "latency", specs.size(), grid_hash(keys)});
  merged.complete = true;
  const std::string path = temp_path("render.jsonl");
  write_shard_file(merged, path);

  {
    auto options = base_options();
    options.from_path = path;
    options.tool = "different_tool";
    EXPECT_THROW((ShardedSweep{core::NetworkConfig{}, 42, options}),
               ConfigError);
  }
  {
    auto options = base_options();
    options.from_path = path;
    EXPECT_THROW((ShardedSweep{cfg, 7, options}), ConfigError);
  }
  {
    // Same manifest but a grid the file does not contain, then a grid
    // whose specs differ (hash mismatch).
    auto options = base_options();
    options.from_path = path;
    ShardedSweep sweep(cfg, 42, options);
    EXPECT_THROW(sweep.grid<LatencyProtocol>("other", specs),
                 ConfigError);
    auto changed = specs;
    changed[0].injected_flits_per_ns = 0.07;
    EXPECT_THROW(sweep.grid<LatencyProtocol>("latency", changed),
                 ConfigError);
  }
  {
    // Cells missing from a partial merge render as failed outcomes, not
    // crashes — and the harness can report them.
    auto options = base_options();
    options.from_path = path;
    ShardedSweep sweep(cfg, 42, options);
    const auto outcomes = sweep.grid<LatencyProtocol>("latency", specs);
    ASSERT_EQ(outcomes.size(), specs.size());
    for (const auto& outcome : outcomes) {
      EXPECT_FALSE(outcome.run.ok);
      EXPECT_NE(outcome.run.error.find("missing"), std::string::npos);
    }
  }
}

TEST(MergeTest, SharedGridsTolerateDuplicateCells) {
  // Anchor grids overlap by construction: every phase-2 worker copies the
  // full anchor grid into its shard file. The merge keeps the first record
  // and does not flag the overlap as a coverage defect.
  auto a = make_shard(0, 2, {0, 1, 2});
  auto b = make_shard(1, 2, {0, 1, 2});
  a.grids[0].shared = true;
  b.grids[0].shared = true;
  MergeReport report;
  const ShardFile merged = merge_shards({a, b}, &report);
  EXPECT_TRUE(report.complete()) << report.summary();
  ASSERT_EQ(report.grids.size(), 1u);
  EXPECT_TRUE(report.grids[0].shared);
  EXPECT_TRUE(report.grids[0].duplicates.empty());
  EXPECT_EQ(merged.records.at("g").size(), 3u);
  EXPECT_NE(report.summary().find("(shared)"), std::string::npos);

  // A shared/non-shared disagreement is a real identity mismatch.
  auto c = make_shard(1, 2, {1});
  EXPECT_THROW(merge_shards({a, c}, nullptr), ConfigError);
}

std::vector<SaturationSpec> small_anchor_grid() {
  std::vector<SaturationSpec> specs;
  for (const auto arch :
       {Architecture::kBaseline, Architecture::kOptHybridSpeculative}) {
    specs.push_back({.arch = arch,
                     .bench = BenchmarkId::kUniformRandom,
                     .seed = 0,
                     .custom = {}});
  }
  return specs;
}

/// Derives the downstream grid a harness would build from anchor results:
/// one latency cell per anchor at 25% of its saturation rate.
std::vector<LatencySpec> derived_latency_grid(
    const std::vector<SaturationSpec>& sat_specs,
    const std::vector<SaturationOutcome>& sat_outcomes) {
  std::vector<LatencySpec> specs;
  for (std::size_t i = 0; i < sat_specs.size(); ++i) {
    specs.push_back({.arch = sat_specs[i].arch,
                     .bench = sat_specs[i].bench,
                     .injected_flits_per_ns =
                         operating_rate(sat_outcomes[i].result, 0.25),
                     .windows = {.warmup = 100_ns, .measure = 800_ns},
                     .seed = 0,
                     .custom = {}});
  }
  return specs;
}

// The full two-phase anchor protocol: --anchors-only workers + merge +
// --anchors-from workers + merge + render must reproduce the single-process
// tables byte-for-byte, with each anchor cell simulated exactly once
// across the whole fleet.
TEST(ShardedSweepTest, TwoPhaseAnchorProtocolMatchesSingleProcess) {
  const core::NetworkConfig cfg;
  const auto sat_specs = small_anchor_grid();
  const auto sat_keys = spec_keys(sat_specs);

  // Reference: plain single-process run.
  ShardedSweep ref_sweep(cfg, 42, base_options());
  const auto ref_anchors =
      ref_sweep.anchors<SaturationProtocol>(sat_specs);
  const auto lat_specs = derived_latency_grid(sat_specs, ref_anchors);
  const auto reference =
      ref_sweep.grid<LatencyProtocol>("latency", lat_specs);

  // Phase 1: anchors only, sharded across 2 workers.
  constexpr unsigned kShards = 2;
  std::vector<ShardFile> anchor_inputs;
  for (unsigned shard = 0; shard < kShards; ++shard) {
    auto options = base_options();
    options.shard = {shard, kShards};
    options.anchors_only = true;
    options.out_path = temp_path("p1_s" + std::to_string(shard) + ".jsonl");
    write_text(options.out_path, "");
    ShardedSweep sweep(cfg, 42, options);
    EXPECT_TRUE(sweep.anchors_only());
    const auto outcomes = sweep.anchors<SaturationProtocol>(sat_specs);
    ASSERT_EQ(outcomes.size(), sat_specs.size());
    const sim::ShardPlan plan(kShards);
    for (std::size_t i = 0; i < sat_specs.size(); ++i) {
      EXPECT_EQ(outcomes[i].run.ok,
                plan.shard_of(sat_keys[i]) == shard);
    }
    // The harness returns finish() here, before any downstream grid.
    EXPECT_EQ(sweep.finish(), 0);
    anchor_inputs.push_back(load_shard_file(options.out_path));
    // The shard file holds only this worker's owned anchor cells.
    const auto& records = anchor_inputs.back().records.at("anchor");
    for (const auto& [cell, record] : records) {
      EXPECT_EQ(plan.shard_of(record.key), shard);
    }
    ASSERT_EQ(anchor_inputs.back().grids.size(), 1u);
    EXPECT_TRUE(anchor_inputs.back().grids[0].shared);
  }
  MergeReport anchor_report;
  const ShardFile merged_anchors =
      merge_shards(anchor_inputs, &anchor_report);
  ASSERT_TRUE(anchor_report.complete()) << anchor_report.summary();
  const std::string anchors_path = temp_path("p1_merged.jsonl");
  write_shard_file(merged_anchors, anchors_path);

  // Phase 2: anchors load from the merged file; downstream grid shards.
  std::vector<ShardFile> inputs;
  for (unsigned shard = 0; shard < kShards; ++shard) {
    auto options = base_options();
    options.shard = {shard, kShards};
    options.anchors_from = anchors_path;
    options.out_path = temp_path("p2_s" + std::to_string(shard) + ".jsonl");
    write_text(options.out_path, "");
    ShardedSweep sweep(cfg, 42, options);
    EXPECT_FALSE(sweep.anchors_only());
    const auto anchors = sweep.anchors<SaturationProtocol>(sat_specs);
    // Loaded anchors carry the phase-1 numbers — identical to the
    // reference run's, so the derived specs (and grid hash) match.
    for (std::size_t i = 0; i < anchors.size(); ++i) {
      ASSERT_TRUE(anchors[i].run.ok);
      EXPECT_EQ(anchors[i].result.injected_flits_per_ns,
                ref_anchors[i].result.injected_flits_per_ns);
    }
    const auto derived = derived_latency_grid(sat_specs, anchors);
    sweep.grid<LatencyProtocol>("latency", derived);
    EXPECT_EQ(sweep.finish(), 0);
    inputs.push_back(load_shard_file(options.out_path));
  }
  MergeReport report;
  const ShardFile merged = merge_shards(inputs, &report);
  ASSERT_TRUE(report.complete()) << report.summary();
  const std::string merged_path = temp_path("p2_merged.jsonl");
  write_shard_file(merged, merged_path);

  // Render: anchors and latency cells both come from the merged file.
  auto render_options = base_options();
  render_options.from_path = merged_path;
  ShardedSweep render_sweep(cfg, 42, render_options);
  const auto rendered_anchors =
      render_sweep.anchors<SaturationProtocol>(sat_specs);
  const auto rendered = render_sweep.grid<LatencyProtocol>(
      "latency", derived_latency_grid(sat_specs, rendered_anchors));
  ASSERT_EQ(rendered.size(), reference.size());
  for (std::size_t i = 0; i < reference.size(); ++i) {
    auto a = rendered[i];
    auto b = reference[i];
    a.run.telemetry.wall_ms = 0.0;
    b.run.telemetry.wall_ms = 0.0;
    EXPECT_EQ(util::json_write(to_json(a)), util::json_write(to_json(b)))
        << "cell " << i;
  }
}

// --anchors-from must load, never simulate: a sentinel planted in the
// anchor file comes back verbatim from the phase-2 worker.
TEST(ShardedSweepTest, AnchorsFromLoadsWithoutSimulating) {
  const core::NetworkConfig cfg;
  std::vector<SaturationSpec> specs = {{.arch = Architecture::kBaseline,
                                        .bench = BenchmarkId::kUniformRandom,
                                        .seed = 0,
                                        .custom = {}}};
  const auto keys = spec_keys(specs);

  SaturationOutcome fabricated;
  fabricated.spec = specs[0];
  fabricated.run.ok = true;
  fabricated.run.telemetry.attempts = 1;
  fabricated.result.injected_flits_per_ns = 123.25;  // sentinel

  ShardFile anchors;
  anchors.manifest.tool = "sweep_test";
  anchors.manifest.shard = {0, 1};
  anchors.manifest.seed = 42;
  SweepGrid grid{"anchor", "saturation", specs.size(), grid_hash(keys)};
  grid.shared = true;
  anchors.grids.push_back(grid);
  anchors.records["anchor"].emplace(
      0, SweepRecord{0, keys[0], "ok", to_json(fabricated)});
  anchors.complete = true;
  const std::string anchors_path = temp_path("sentinel_anchors.jsonl");
  write_shard_file(anchors, anchors_path);

  auto options = base_options();
  options.shard = {0, 1};
  options.anchors_from = anchors_path;
  options.out_path = temp_path("sentinel_worker.jsonl");
  write_text(options.out_path, "");
  ShardedSweep sweep(cfg, 42, options);
  const auto outcomes = sweep.anchors<SaturationProtocol>(specs);
  ASSERT_EQ(outcomes.size(), 1u);
  EXPECT_EQ(outcomes[0].result.injected_flits_per_ns, 123.25);
  // And the anchor records were copied into this worker's shard file, so
  // the final merge is self-contained.
  EXPECT_EQ(sweep.finish(), 0);
  const ShardFile out = load_shard_file(options.out_path);
  const SweepGrid* copied = out.find_grid("anchor");
  ASSERT_NE(copied, nullptr);
  EXPECT_TRUE(copied->shared);
  EXPECT_EQ(out.records.at("anchor").size(), 1u);
}

// Strictness: anchors parameterize downstream specs, so a missing or
// failed anchor cell in the --anchors-from file is a hard error, not a
// quietly-failed outcome.
TEST(ShardedSweepTest, AnchorsFromRejectsIncompleteOrFailedAnchors) {
  const core::NetworkConfig cfg;
  std::vector<SaturationSpec> specs = {{.arch = Architecture::kBaseline,
                                        .bench = BenchmarkId::kUniformRandom,
                                        .seed = 0,
                                        .custom = {}}};
  const auto keys = spec_keys(specs);

  ShardFile anchors;
  anchors.manifest.tool = "sweep_test";
  anchors.manifest.shard = {0, 1};
  anchors.manifest.seed = 42;
  SweepGrid grid{"anchor", "saturation", specs.size(), grid_hash(keys)};
  grid.shared = true;
  anchors.grids.push_back(grid);
  anchors.complete = true;  // complete file, but the cell is missing
  const std::string anchors_path = temp_path("partial_anchors.jsonl");
  write_shard_file(anchors, anchors_path);

  auto make_worker = [&](const std::string& suffix) {
    auto options = base_options();
    options.shard = {0, 1};
    options.anchors_from = anchors_path;
    options.out_path = temp_path("strict_worker_" + suffix + ".jsonl");
    write_text(options.out_path, "");
    return options;
  };
  {
    ShardedSweep sweep(cfg, 42, make_worker("missing"));
    EXPECT_THROW(sweep.anchors<SaturationProtocol>(specs), ConfigError);
  }
  {
    SaturationOutcome failed;
    failed.spec = specs[0];
    failed.run.ok = false;
    failed.run.error = "boom";
    anchors.records["anchor"].emplace(
        0, SweepRecord{0, keys[0], "failed", to_json(failed)});
    write_shard_file(anchors, anchors_path);
    ShardedSweep sweep(cfg, 42, make_worker("failed"));
    EXPECT_THROW(sweep.anchors<SaturationProtocol>(specs), ConfigError);
  }
  {
    // A seed mismatch is caught at construction.
    auto options = make_worker("seed");
    EXPECT_THROW((ShardedSweep{cfg, 7, options}), ConfigError);
  }
}

// The classic single-invocation worker still simulates the full anchor
// grid but now records its owned cells, so a merged file carries the
// anchors and --from renders without resimulating them.
TEST(ShardedSweepTest, ClassicWorkerRecordsAnchorsForRender) {
  const core::NetworkConfig cfg;
  const auto specs = small_anchor_grid();
  const auto keys = spec_keys(specs);

  auto options = base_options();
  options.shard = {0, 1};
  options.out_path = temp_path("classic_worker.jsonl");
  write_text(options.out_path, "");
  ShardedSweep sweep(cfg, 42, options);
  const auto outcomes = sweep.anchors<SaturationProtocol>(specs);
  for (const auto& outcome : outcomes) EXPECT_TRUE(outcome.run.ok);
  EXPECT_EQ(sweep.finish(), 0);

  const ShardFile out = load_shard_file(options.out_path);
  const SweepGrid* grid = out.find_grid("anchor");
  ASSERT_NE(grid, nullptr);
  EXPECT_TRUE(grid->shared);
  EXPECT_EQ(out.records.at("anchor").size(), specs.size());

  // Render returns the recorded anchors; plant a sentinel to prove they
  // load from the file rather than re-simulate.
  ShardFile doctored = out;
  SaturationOutcome fabricated;
  fabricated.spec = specs[0];
  fabricated.run.ok = true;
  fabricated.run.telemetry.attempts = 1;
  fabricated.result.injected_flits_per_ns = 321.5;
  doctored.records.at("anchor").at(0).data = to_json(fabricated);
  const std::string doctored_path = temp_path("classic_doctored.jsonl");
  write_shard_file(doctored, doctored_path);

  auto render_options = base_options();
  render_options.from_path = doctored_path;
  ShardedSweep render_sweep(cfg, 42, render_options);
  const auto rendered =
      render_sweep.anchors<SaturationProtocol>(specs);
  ASSERT_EQ(rendered.size(), specs.size());
  EXPECT_EQ(rendered[0].result.injected_flits_per_ns, 321.5);
}

// Render mode loads a grid's outcomes and simulates nothing: a sentinel
// planted in the merged file comes back verbatim.
TEST(ShardedSweepTest, RenderLoadsGridWithoutSimulating) {
  const core::NetworkConfig cfg;
  std::vector<SaturationSpec> specs = {
      {.arch = Architecture::kOptNonSpeculative,
       .bench = BenchmarkId::kUniformRandom,
       .seed = 0,
       .custom = {}}};
  const auto keys = spec_keys(specs);

  SaturationOutcome fabricated;
  fabricated.spec = specs[0];
  fabricated.run.ok = true;
  fabricated.run.telemetry.attempts = 1;
  fabricated.result.delivered_flits_per_ns = 0.777;
  fabricated.result.injected_flits_per_ns = 0.888;

  ShardFile merged;
  merged.manifest.tool = "sweep_test";
  merged.manifest.shard = {0, 1};
  merged.manifest.seed = 42;
  merged.grids.push_back(
      {"throughput", "saturation", specs.size(), grid_hash(keys)});
  SweepRecord rec{0, keys[0], "ok", to_json(fabricated)};
  merged.records["throughput"].emplace(0, rec);
  merged.complete = true;
  const std::string path = temp_path("render_sentinel.jsonl");
  write_shard_file(merged, path);

  auto options = base_options();
  options.from_path = path;
  ShardedSweep sweep(cfg, 42, options);
  const auto outcomes =
      sweep.grid<SaturationProtocol>("throughput", specs);
  ASSERT_TRUE(outcomes[0].run.ok);
  EXPECT_EQ(outcomes[0].result.delivered_flits_per_ns, 0.777);
  EXPECT_EQ(outcomes[0].result.injected_flits_per_ns, 0.888);
}

// A worker (--shard/--out) given a --from file too is a conflict, refused
// before anything runs rather than silently ignoring --from.
TEST(ShardedSweepTest, WorkerRefusesFromFile) {
  auto options = base_options();
  options.shard = {0, 1};
  options.out_path = temp_path("worker_with_from.jsonl");
  options.from_path = temp_path("never_read.jsonl");
  write_text(options.out_path, "");
  EXPECT_THROW((ShardedSweep{core::NetworkConfig{}, 42, options}),
               ConfigError);
}

// The mode follows from the paths: from_path renders, out_path works a
// shard, neither runs in-process; contradictory combinations are refused.
TEST(ShardedSweepTest, ModeFollowsOutAndFromPaths) {
  const core::NetworkConfig cfg;
  EXPECT_EQ(ShardedSweep(cfg, 42, base_options()).mode(), SweepMode::kRun);

  auto worker = base_options();
  worker.out_path = temp_path("mode_worker.jsonl");
  write_text(worker.out_path, "");
  EXPECT_EQ(ShardedSweep(cfg, 42, worker).mode(), SweepMode::kWorker);

  ShardFile merged;
  merged.manifest.tool = "sweep_test";
  merged.manifest.seed = 42;
  merged.complete = true;
  auto render = base_options();
  render.from_path = temp_path("mode_render.jsonl");
  write_shard_file(merged, render.from_path);
  EXPECT_EQ(ShardedSweep(cfg, 42, render).mode(), SweepMode::kRender);

  auto sharded_render = render;
  sharded_render.shard = {1, 2};
  EXPECT_THROW((ShardedSweep{cfg, 42, sharded_render}), ConfigError);
  auto sharded_run = base_options();
  sharded_run.shard = {1, 2};
  EXPECT_THROW((ShardedSweep{cfg, 42, sharded_run}), ConfigError);
  auto anchors_run = base_options();
  anchors_run.anchors_only = true;
  EXPECT_THROW((ShardedSweep{cfg, 42, anchors_run}), ConfigError);
}

/// The run frames in a telemetry stream file: (cell, grid_runs) pairs.
std::vector<std::pair<std::uint64_t, std::uint64_t>> run_frames(
    const std::string& path) {
  std::vector<std::pair<std::uint64_t, std::uint64_t>> frames;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    const TelemetryFrame frame = telemetry_frame_parse(line);
    if (frame.kind != TelemetryFrameKind::kRun) continue;
    frames.emplace_back(frame.body.at("cell").as_u64(),
                        frame.body.at("grid_runs").as_u64());
  }
  std::sort(frames.begin(), frames.end());
  return frames;
}

// A sweep with a telemetry stream emits one run frame per cell it
// simulates, carrying how many cells of the grid this invocation runs: all
// of them in run mode, the owned ones in worker mode, none in render mode.
TEST(ShardedSweepTest, StreamsOneRunFramePerSimulatedCell) {
  const core::NetworkConfig cfg;
  const auto specs = small_latency_grid();
  const auto keys = spec_keys(specs);

  {
    const std::string path = temp_path("frames_run.ndjson");
    TelemetryStream stream(path);
    auto options = base_options();
    options.batch.jobs = 2;
    options.telemetry_stream = &stream;
    ShardedSweep sweep(cfg, 42, options);
    sweep.grid<LatencyProtocol>("latency", specs);
    EXPECT_EQ(sweep.finish(), 0);
    std::vector<std::pair<std::uint64_t, std::uint64_t>> expected;
    for (std::uint64_t cell = 0; cell < specs.size(); ++cell) {
      expected.emplace_back(cell, specs.size());
    }
    EXPECT_EQ(run_frames(path), expected);
  }

  constexpr unsigned kShards = 2;
  const sim::ShardPlan plan(kShards);
  std::vector<ShardFile> shard_files;
  for (unsigned shard = 0; shard < kShards; ++shard) {
    const std::string path =
        temp_path("frames_s" + std::to_string(shard) + ".ndjson");
    auto options = base_options();
    options.shard = {shard, kShards};
    options.out_path =
        temp_path("frames_s" + std::to_string(shard) + ".jsonl");
    write_text(options.out_path, "");
    {
      TelemetryStream stream(path);
      options.telemetry_stream = &stream;
      ShardedSweep sweep(cfg, 42, options);
      sweep.grid<LatencyProtocol>("latency", specs);
      EXPECT_EQ(sweep.finish(), 0);
    }
    const auto owned = plan.cells_of(keys, shard);
    std::vector<std::pair<std::uint64_t, std::uint64_t>> expected;
    for (const std::size_t cell : owned) {
      expected.emplace_back(cell, owned.size());
    }
    EXPECT_EQ(run_frames(path), expected) << "shard " << shard;
    shard_files.push_back(load_shard_file(options.out_path));
  }

  auto render = base_options();
  render.from_path = temp_path("frames_merged.jsonl");
  write_shard_file(merge_shards(shard_files, nullptr), render.from_path);
  const std::string path = temp_path("frames_render.ndjson");
  {
    TelemetryStream stream(path);
    render.telemetry_stream = &stream;
    ShardedSweep sweep(cfg, 42, render);
    sweep.grid<LatencyProtocol>("latency", specs);
    EXPECT_EQ(sweep.finish(), 0);
  }
  EXPECT_TRUE(run_frames(path).empty());
}

// Telemetry options a sampler cannot honor are usage errors at session
// start, not a contract abort (ring 0) or silently disabled sampling
// (negative epoch) mid-sweep.
TEST(ShardedSweepTest, RejectsNegativeEpochAndZeroRing) {
  const core::NetworkConfig cfg;
  auto negative_epoch = base_options();
  negative_epoch.batch.telemetry.epoch_ps = -50'000;
  EXPECT_THROW((ShardedSweep{cfg, 42, negative_epoch}), ConfigError);
  auto zero_ring = base_options();
  zero_ring.batch.telemetry.epoch_ps = 50'000;
  zero_ring.batch.telemetry.ring_capacity = 0;
  EXPECT_THROW((ShardedSweep{cfg, 42, zero_ring}), ConfigError);
  auto sampled = zero_ring;
  sampled.batch.telemetry.ring_capacity = 1;
  EXPECT_NO_THROW((ShardedSweep{cfg, 42, sampled}));
}

// finish() is the harness's exit code in every mode: 1 when a cell this
// invocation ran or loaded failed. A worker answers only for the cells it
// owns; the failed-looking cells of other shards do not count.
TEST(ShardedSweepTest, FinishReportsFailedCellsInEveryMode) {
  const core::NetworkConfig cfg;
  auto specs = small_latency_grid();
  specs.resize(2);
  specs[1].custom = "sweep_test_unregistered_design_point";  // cannot build

  {
    ShardedSweep sweep(cfg, 42, base_options());
    const auto outcomes = sweep.grid<LatencyProtocol>("latency", specs);
    ASSERT_TRUE(outcomes[0].run.ok);
    ASSERT_FALSE(outcomes[1].run.ok);
    EXPECT_EQ(sweep.finish(), 1);
  }

  auto worker = base_options();
  worker.out_path = temp_path("finish_worker.jsonl");
  write_text(worker.out_path, "");
  {
    ShardedSweep sweep(cfg, 42, worker);
    sweep.grid<LatencyProtocol>("latency", specs);
    EXPECT_EQ(sweep.finish(), 1);
  }

  auto render = base_options();
  render.from_path = worker.out_path;  // one shard of one: a full merge
  {
    ShardedSweep sweep(cfg, 42, render);
    const auto outcomes = sweep.grid<LatencyProtocol>("latency", specs);
    EXPECT_TRUE(outcomes[0].run.ok);
    EXPECT_FALSE(outcomes[1].run.ok);
    EXPECT_EQ(sweep.finish(), 1);
  }

  const sim::ShardPlan plan(2);
  const unsigned bad_owner = plan.shard_of(spec_key(specs[1]));
  for (unsigned shard = 0; shard < 2; ++shard) {
    auto options = base_options();
    options.shard = {shard, 2};
    options.out_path = temp_path("finish_s" + std::to_string(shard) + ".jsonl");
    write_text(options.out_path, "");
    ShardedSweep sweep(cfg, 42, options);
    sweep.grid<LatencyProtocol>("latency", specs);
    EXPECT_EQ(sweep.finish(), shard == bad_owner ? 1 : 0) << "shard " << shard;
  }
}

// The --metrics document a render writes from merged worker files is the
// single-process document, byte for byte (anchors and sharded grids).
TEST(ShardedSweepTest, MetricsDocumentFromShardsMatchesSingleProcess) {
  const core::NetworkConfig cfg;
  const auto sat_specs = small_anchor_grid();
  auto run_grids = [&](ShardedSweep& sweep) {
    const auto anchors = sweep.anchors<SaturationProtocol>(sat_specs);
    sweep.grid<LatencyProtocol>("latency",
                                derived_latency_grid(sat_specs, anchors));
    return sweep.finish();
  };

  auto single = base_options();
  single.metrics_path = temp_path("metrics_single.json");
  ShardedSweep ref_sweep(cfg, 42, single);
  ASSERT_EQ(run_grids(ref_sweep), 0);
  const std::string reference = read_text(single.metrics_path);
  const util::Json doc = util::json_parse(reference);
  EXPECT_EQ(doc.at("format").as_string(), "specnoc-metrics");
  EXPECT_EQ(doc.at("tool").as_string(), "sweep_test");
  EXPECT_EQ(doc.at("seed").as_u64(), 42u);
  EXPECT_NE(doc.find("arena_bytes_peak"), nullptr);
  EXPECT_EQ(doc.at("runs").items().size(), 2 * sat_specs.size());

  constexpr unsigned kShards = 2;
  std::vector<ShardFile> inputs;
  for (unsigned shard = 0; shard < kShards; ++shard) {
    auto options = base_options();
    options.shard = {shard, kShards};
    options.out_path = temp_path("metrics_s" + std::to_string(shard) +
                                 ".jsonl");
    options.metrics_path = temp_path("metrics_worker.json");
    write_text(options.out_path, "");
    ShardedSweep sweep(cfg, 42, options);
    ASSERT_EQ(run_grids(sweep), 0);
    inputs.push_back(load_shard_file(options.out_path));
  }
  MergeReport report;
  const ShardFile merged = merge_shards(inputs, &report);
  ASSERT_TRUE(report.complete()) << report.summary();

  auto render = base_options();
  render.from_path = temp_path("metrics_merged.jsonl");
  render.metrics_path = temp_path("metrics_render.json");
  write_shard_file(merged, render.from_path);
  ShardedSweep render_sweep(cfg, 42, render);
  ASSERT_EQ(run_grids(render_sweep), 0);
  EXPECT_EQ(read_text(render.metrics_path), reference);
}

}  // namespace
}  // namespace specnoc::stats
