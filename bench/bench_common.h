// Shared helpers for the experiment harnesses.
//
// Every harness prints (a) the measured table in the paper's layout and
// (b) the paper's published values for side-by-side comparison, then key
// derived ratios. Absolute units differ from the paper's testbed (our
// substrate is a calibrated simulator); the claims under reproduction are
// the relative numbers.
//
// Grids run through stats::ExperimentRunner::run_grid on a work-stealing
// pool (--jobs N, default: hardware concurrency). Results are aggregated in
// spec order, so the tables are byte-identical for any thread count;
// --jobs 1 preserves the exact serial code path.
//
// Harnesses that pass Sharding::kSupported to parse_args additionally
// accept the sharded-sweep flags (stats/sweep.h): --shard i/K --out writes
// this worker's cells to a JSONL shard file, and --from renders the normal
// tables from a merged shard file — byte-identical to a --jobs 1 run.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "core/config.h"
#include "core/registry.h"
#include "noc/partition.h"
#include "sim/parallel_runner.h"
#include "sim/shard.h"
#include "stats/experiment.h"
#include "stats/serialization.h"
#include "stats/sweep.h"
#include "stats/telemetry.h"
#include "util/cli.h"
#include "util/json.h"
#include "util/table.h"

namespace specnoc::bench {

/// Routes every emitted table to stdout plus the optional --csv / --json
/// mirrors. The mirror files are opened (truncating) once per process and
/// kept open, so a re-run never leaves stale sections from a previous
/// invocation behind — the old per-emit append-mode open did.
class OutputSink {
 public:
  void mirror_csv(const std::string& path) {
    csv_.open(path, std::ios::trunc);
    if (!csv_) throw ConfigError("cannot write CSV file '" + path + "'");
  }

  void mirror_jsonl(const std::string& path) {
    jsonl_.open(path, std::ios::trunc);
    if (!jsonl_) throw ConfigError("cannot write JSONL file '" + path + "'");
  }

  void table(const Table& table, const std::string& title) {
    std::cout << "\n== " << title << " ==\n";
    table.print(std::cout);
    if (csv_.is_open()) {
      csv_ << "# " << title << "\n";
      table.write_csv(csv_);
      csv_.flush();
    }
    if (jsonl_.is_open()) {
      util::Json json = util::Json::object();
      json.set("record", "table");
      json.set("title", title);
      util::Json header = util::Json::array();
      for (const auto& column : table.header()) header.push_back(column);
      json.set("header", std::move(header));
      util::Json rows = util::Json::array();
      for (std::size_t i = 0; i < table.num_rows(); ++i) {
        util::Json row = util::Json::array();
        for (const auto& value : table.row(i)) row.push_back(value);
        rows.push_back(std::move(row));
      }
      json.set("rows", std::move(rows));
      jsonl_ << util::json_write(json) << "\n";
      jsonl_.flush();
    }
  }

  void note(const std::string& text) { std::cout << text << "\n"; }

 private:
  std::ofstream csv_;
  std::ofstream jsonl_;
};

/// Whether a harness wires up the sharded-sweep worker/render flags.
enum class Sharding { kNone, kSupported };

struct HarnessOptions {
  std::string tool;       ///< harness name (shard-file manifest identity)
  std::uint64_t seed = 42;
  /// Worker threads for experiment grids; 0 = hardware concurrency,
  /// 1 = the exact serial code path.
  unsigned jobs = 0;
  /// Print the per-run telemetry table (wall ms / events / attempts) —
  /// kept off the default output because wall times are nondeterministic.
  bool telemetry = false;
  std::string csv_path;   ///< --csv: mirror tables to a CSV file
  std::string json_path;  ///< --json: mirror tables to a JSONL file
  sim::ShardRef shard;    ///< --shard i/K (worker mode)
  std::string out_path;   ///< --out (worker mode)
  std::string from_path;  ///< --from (render mode)
  bool anchors_only = false;   ///< --anchors-only (worker mode, phase 1)
  std::string anchors_from;    ///< --anchors-from (worker mode, phase 2)
  /// --metrics: collect a per-run MetricsSnapshot and write them all to
  /// this JSON file. Observational only — tables are byte-identical with
  /// and without it.
  std::string metrics_path;
  /// --telemetry-epoch: sample epoch-delta time series every this many
  /// simulated ps (flag takes ns; 0 = off). Observational only — enabling
  /// sampling changes no simulated byte.
  TimePs telemetry_epoch = 0;
  /// --telemetry-ring: epochs retained per run (flight-recorder depth).
  std::uint64_t telemetry_ring = 4096;
  /// --telemetry-out: live NDJSON frame stream ("-" = stdout), one frame
  /// per completed run as the sweep executes. Opened in parse_args; the
  /// end frame is emitted when the last HarnessOptions copy goes away.
  std::shared_ptr<stats::TelemetryStream> telemetry_stream;
  /// --progress: live progress lines to stderr every this many ms.
  unsigned progress_ms = 0;
  /// --sim-threads: scheduler lanes/worker threads for the partitioned
  /// kernel inside each simulation (distinct from --jobs, which
  /// parallelizes across grid cells). 1 = the exact sequential path;
  /// results are identical for any count (DESIGN.md §9).
  unsigned sim_threads = 1;
  /// --partition: static partition strategy for the partitioned kernel.
  noc::PartitionStrategy partition = noc::PartitionStrategy::kAuto;
  std::shared_ptr<OutputSink> sink = std::make_shared<OutputSink>();

  /// Applies the kernel flags to a harness's NetworkConfig.
  void apply_kernel(core::NetworkConfig& cfg) const {
    cfg.sim_threads = sim_threads;
    cfg.partition = partition;
  }

  stats::BatchOptions batch() const {
    stats::BatchOptions options;
    options.jobs = jobs;
    // A live frame stream wants per-run counters even when --metrics was
    // not given; collection is observational either way.
    options.collect_metrics =
        !metrics_path.empty() || telemetry_stream != nullptr;
    options.progress_interval_ms = progress_ms;
    if (progress_ms > 0) options.progress_label = tool;
    options.telemetry.epoch_ps = telemetry_epoch;
    options.telemetry.ring_capacity = telemetry_ring;
    return options;
  }

  stats::SweepMode sweep_mode() const {
    if (!from_path.empty()) return stats::SweepMode::kRender;
    if (!out_path.empty()) return stats::SweepMode::kWorker;
    return stats::SweepMode::kRun;
  }

  stats::SweepOptions sweep() const {
    stats::SweepOptions options;
    options.mode = sweep_mode();
    options.tool = tool;
    options.seed = seed;
    options.batch = batch();
    options.shard = shard;
    options.out_path = out_path;
    options.from_path = from_path;
    options.anchors_only = anchors_only;
    options.anchors_from = anchors_from;
    options.telemetry_stream = telemetry_stream.get();
    return options;
  }
};

/// Declarative argument parsing for all harnesses: the standard flag set
/// (--seed, --jobs, --csv, --json, --telemetry, and — when `sharding` is
/// kSupported — --shard/--out/--from), plus any harness-specific flags
/// registered by `extra`. Bad usage exits 2 with the message and the
/// generated usage text; --help exits 0.
inline HarnessOptions parse_args(
    int argc, char** argv, const std::string& tool, const std::string& summary,
    Sharding sharding = Sharding::kNone,
    const std::function<void(util::CliParser&)>& extra = {}) {
  HarnessOptions opts;
  opts.tool = tool;
  bool shard_given = false;

  util::CliParser cli(tool, summary);
  cli.add_uint64("--seed", &opts.seed, "experiment seed");
  cli.add_unsigned("--jobs", &opts.jobs,
                   "grid worker threads (0: hardware concurrency, 1: exact "
                   "serial path); tables are byte-identical for any N");
  cli.add_string("--csv", &opts.csv_path, "also mirror tables to this CSV");
  cli.add_string("--json", &opts.json_path,
                 "also mirror tables to this JSONL file");
  cli.add_flag("--telemetry", &opts.telemetry,
               "also print per-run wall time / events / attempts");
  cli.add_string("--metrics", &opts.metrics_path,
                 "collect per-run speculation/stall metrics and write them "
                 "to this JSON file (observational; tables are unchanged)");
  cli.add_custom("--telemetry-epoch", "NS",
                 "sample an epoch-delta time series every NS simulated ns; "
                 "the series rides each run's metrics (observational — "
                 "results are byte-identical with sampling on)",
                 [&opts](const std::string& value) {
                   opts.telemetry_epoch =
                       util::parse_i64(value, "--telemetry-epoch") * 1000;
                 });
  cli.add_uint64("--telemetry-ring", &opts.telemetry_ring,
                 "epochs retained per run (flight-recorder depth)");
  std::string telemetry_out;
  cli.add_string("--telemetry-out", &telemetry_out,
                 "stream one NDJSON telemetry frame per completed run to "
                 "this file as the sweep executes ('-' = stdout); tail with "
                 "sweep_merge --follow");
  cli.add_unsigned("--progress", &opts.progress_ms,
                   "live progress lines to stderr every N ms (0: off)");
  cli.add_unsigned("--sim-threads", &opts.sim_threads,
                   "partitioned-kernel worker threads inside each simulation "
                   "(1: exact sequential path; results identical for any N)");
  bool list_arch = false;
  cli.add_flag("--list-arch", &list_arch,
               "list the registered network architectures and exit (the "
               "canonical set; harnesses may register design points later)");
  cli.add_custom("--partition", "NAME",
                 "partition strategy: auto | none | tree | quadrant | rows",
                 [&opts](const std::string& value) {
                   opts.partition = noc::partition_strategy_from_string(value);
                 });
  if (sharding == Sharding::kSupported) {
    cli.add_custom("--shard", "i/K",
                   "worker mode: run only shard i of K (requires --out)",
                   [&opts, &shard_given](const std::string& value) {
                     opts.shard = sim::ShardRef::parse(value);
                     shard_given = true;
                   });
    cli.add_string("--out", &opts.out_path,
                   "worker mode: write this shard's results to a JSONL file");
    cli.add_string("--from", &opts.from_path,
                   "render tables from a merged shard file (see sweep_merge) "
                   "instead of simulating");
    cli.add_flag("--anchors-only", &opts.anchors_only,
                 "worker mode, phase 1: run only this shard's anchor cells "
                 "and exit (merge the anchor shards, then run phase 2 with "
                 "--anchors-from)");
    cli.add_string("--anchors-from", &opts.anchors_from,
                   "worker mode, phase 2: load anchor outcomes from this "
                   "merged shard file instead of simulating them");
  }
  if (extra) extra(cli);

  try {
    if (!cli.parse(argc, argv)) std::exit(0);
    if (list_arch) {
      for (const auto& name : core::ArchitectureRegistry::global().names()) {
        std::printf("%s\n", name.c_str());
      }
      std::exit(0);
    }
    if (shard_given && opts.out_path.empty()) {
      throw util::UsageError("--shard requires --out <shard.jsonl>");
    }
    if (!opts.from_path.empty() &&
        (shard_given || !opts.out_path.empty())) {
      throw util::UsageError("--from cannot be combined with --shard/--out");
    }
    if ((opts.anchors_only || !opts.anchors_from.empty()) &&
        opts.out_path.empty()) {
      throw util::UsageError(
          "--anchors-only/--anchors-from require worker mode (--shard/--out)");
    }
    if (opts.anchors_only && !opts.anchors_from.empty()) {
      throw util::UsageError(
          "--anchors-only cannot be combined with --anchors-from");
    }
    if (!opts.csv_path.empty()) opts.sink->mirror_csv(opts.csv_path);
    if (!opts.json_path.empty()) opts.sink->mirror_jsonl(opts.json_path);
    if (!telemetry_out.empty()) {
      // The custom deleter bookends the stream: the start frame is emitted
      // here, the end frame when the last HarnessOptions copy releases the
      // stream (i.e. at harness exit, success or failure).
      auto* stream = new stats::TelemetryStream(telemetry_out);
      opts.telemetry_stream = std::shared_ptr<stats::TelemetryStream>(
          stream, [tool](stats::TelemetryStream* s) {
            util::Json body = util::Json::object();
            body.set("tool", tool);
            s->emit(stats::TelemetryFrameKind::kEnd, std::move(body));
            delete s;
          });
      util::Json body = util::Json::object();
      body.set("tool", tool);
      body.set("seed", opts.seed);
      if (opts.telemetry_epoch > 0) {
        body.set("epoch_ps", static_cast<std::uint64_t>(opts.telemetry_epoch));
      }
      opts.telemetry_stream->emit(stats::TelemetryFrameKind::kStart,
                                  std::move(body));
    }
  } catch (const ConfigError& error) {
    std::fprintf(stderr, "%s: %s\n", tool.c_str(), error.what());
    std::fputs(cli.usage().c_str(), stderr);
    std::exit(2);
  }
  return opts;
}

/// Builds the harness's sweep session. Sweep configuration errors — a
/// --from file from another tool or seed, an --out file belonging to a
/// different sweep — are user errors, reported cleanly as exit 2 rather
/// than escaping main as exceptions.
inline stats::ShardedSweep make_sweep(const HarnessOptions& opts) {
  try {
    return stats::ShardedSweep(opts.sweep());
  } catch (const ConfigError& error) {
    std::fprintf(stderr, "%s: %s\n", opts.tool.c_str(), error.what());
    std::exit(2);
  }
}

inline void emit(const Table& table, const std::string& title,
                 const HarnessOptions& opts) {
  opts.sink->table(table, title);
}

inline void note(const std::string& text) { std::cout << text << "\n"; }

/// Accumulates per-run telemetry rows; emitted only under --telemetry.
/// A failed run shows its (truncated) error in place of numbers, so one bad
/// cell is visible without poisoning the batch.
class TelemetryTable {
 public:
  void add(const std::string& label, const sim::RunOutcome& run) {
    rows_.push_back({label, run});
    events_total_ += run.telemetry.events_executed;
    wall_total_ms_ += run.telemetry.wall_ms;
    if (!run.ok) ++failures_;
  }

  template <typename P>
  void add_all(const std::vector<stats::Outcome<P>>& outcomes) {
    for (const auto& outcome : outcomes) {
      add(P::label(outcome.spec), outcome.run);
    }
  }

  std::uint64_t failures() const { return failures_; }

  void emit(const std::string& title, const HarnessOptions& opts) const {
    if (!opts.telemetry) return;
    Table table({"Run", "Status", "Attempts", "Events", "Wall (ms)"});
    for (const auto& row : rows_) {
      if (row.run.ok) {
        table.add_row({row.label, "ok",
                       std::to_string(row.run.telemetry.attempts),
                       std::to_string(row.run.telemetry.events_executed),
                       cell(row.run.telemetry.wall_ms, 1)});
      } else {
        table.add_row({row.label, "FAIL: " + row.run.error.substr(0, 40),
                       std::to_string(row.run.telemetry.attempts), "-", "-"});
      }
    }
    table.add_row({"total",
                   failures_ == 0 ? "ok"
                                  : std::to_string(failures_) + " failed",
                   "-", std::to_string(events_total_),
                   cell(wall_total_ms_, 1)});
    bench::emit(table, title + " (per-run telemetry)", opts);
  }

 private:
  struct Row {
    std::string label;
    sim::RunOutcome run;
  };
  std::vector<Row> rows_;
  std::uint64_t events_total_ = 0;
  double wall_total_ms_ = 0.0;
  std::uint64_t failures_ = 0;
};

/// Accumulates the MetricsSnapshots collected under --metrics and writes
/// them as one JSON document (see EXPERIMENTS.md for the schema). Inactive
/// — add_all() and write() are no-ops — unless --metrics was given.
class MetricsReport {
 public:
  template <typename P>
  void add_all(const std::string& grid,
               const std::vector<stats::Outcome<P>>& outcomes) {
    for (const auto& outcome : outcomes) {
      if (!outcome.metrics.has_value()) continue;
      util::Json entry = util::Json::object();
      entry.set("grid", grid);
      entry.set("key", P::spec_key(outcome.spec));
      entry.set("metrics", stats::to_json(*outcome.metrics));
      spills_total_ += outcome.metrics->dest_spills;
      spill_bytes_total_ += outcome.metrics->dest_spill_bytes;
      std::uint64_t arena_bytes = 0;
      for (const auto& pool : outcome.metrics->arena) {
        arena_bytes += pool.reserved_bytes;
      }
      if (arena_bytes > arena_bytes_peak_) arena_bytes_peak_ = arena_bytes;
      runs_.push_back(std::move(entry));
    }
  }

  void write(const HarnessOptions& opts) {
    if (opts.metrics_path.empty()) return;
    util::Json doc = util::Json::object();
    doc.set("format", "specnoc-metrics");
    doc.set("schema", std::uint64_t{1});
    doc.set("tool", opts.tool);
    doc.set("seed", opts.seed);
    // Aggregate DestSet heap-spill count: the zero-spill-at-radix-64 claim
    // is checkable from the report alone (exact at --jobs 1, an upper
    // bound under concurrent grids).
    doc.set("dest_spills_total", spills_total_);
    doc.set("dest_spill_bytes_total", spill_bytes_total_);
    // Largest single-run arena footprint (slab reservations, all pools) —
    // the peak simulated-structure memory any one network needed.
    doc.set("arena_bytes_peak", arena_bytes_peak_);
    util::Json runs = util::Json::array();
    for (auto& entry : runs_) runs.push_back(std::move(entry));
    doc.set("runs", std::move(runs));
    std::ofstream out(opts.metrics_path, std::ios::trunc);
    if (!out) {
      throw ConfigError("cannot write metrics file '" + opts.metrics_path +
                        "'");
    }
    out << util::json_write(doc) << "\n";
  }

 private:
  std::vector<util::Json> runs_;
  std::uint64_t spills_total_ = 0;
  std::uint64_t spill_bytes_total_ = 0;
  std::uint64_t arena_bytes_peak_ = 0;
};

}  // namespace specnoc::bench
