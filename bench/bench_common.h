// Shared helpers for the experiment harnesses.
//
// Every harness prints (a) the measured table in the paper's layout and
// (b) the paper's published values for side-by-side comparison, then key
// derived ratios. Absolute units differ from the paper's testbed (our
// substrate is a calibrated simulator); the claims under reproduction are
// the relative numbers.
//
// Grid harnesses pass Flags::kGrid to parse_args and run every grid
// through the stats::ShardedSweep session that make_sweep opens: it owns
// the runner, the --metrics document and the exit code, so a harness
// builds specs, calls grids, renders tables and returns sweep.finish().
// Grids run on a pool of worker threads (--jobs N, default: hardware
// concurrency). Results are aggregated in spec order, so the tables are
// byte-identical for any thread count; --jobs 1 preserves the exact serial
// code path. --shard i/K --out writes this worker's cells to a JSONL shard
// file, and --from renders the normal tables from a merged shard file —
// byte-identical to a --jobs 1 run.
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
#include "sim/shard.h"
#include "stats/experiment.h"
#include "stats/sweep.h"
#include "stats/telemetry.h"
#include "util/cli.h"
#include "util/json.h"
#include "util/table.h"

namespace specnoc::bench {

/// Routes every emitted table and note to the report stream (stdout, or
/// stderr when the telemetry frames claim stdout) plus the optional --csv /
/// --json table mirrors. The mirror files are opened (truncating) once per
/// process and kept open, so a re-run never leaves stale sections from a
/// previous invocation behind — the old per-emit append-mode open did.
class OutputSink {
 public:
  void report_to(std::ostream& out) { out_ = &out; }

  void mirror_csv(const std::string& path) {
    csv_.open(path, std::ios::trunc);
    if (!csv_) throw ConfigError("cannot write CSV file '" + path + "'");
  }

  void mirror_jsonl(const std::string& path) {
    jsonl_.open(path, std::ios::trunc);
    if (!jsonl_) throw ConfigError("cannot write JSONL file '" + path + "'");
  }

  void table(const Table& table, const std::string& title) {
    *out_ << "\n== " << title << " ==\n";
    table.print(*out_);
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

  void note(const std::string& text) { *out_ << text << "\n"; }

 private:
  std::ostream* out_ = &std::cout;
  std::ofstream csv_;
  std::ofstream jsonl_;
};

/// The flag groups a harness takes. Every harness takes --seed, --jobs,
/// --csv, --json and --list-arch.
enum class Flags {
  kCommon,
  /// Also the grid flags, for harnesses that run their grids through a
  /// sweep session (make_sweep): --metrics, --telemetry-epoch,
  /// --telemetry-ring, --telemetry-out, the kernel flags
  /// --sim-threads and --partition, and the sharded-sweep flags --shard,
  /// --out, --from, --anchors-only and --anchors-from.
  kGrid,
};

struct HarnessOptions {
  std::uint64_t seed = 42;
  /// Worker threads for experiment grids; 0 = hardware concurrency,
  /// 1 = the exact serial code path.
  unsigned jobs = 0;
  /// The session settings: the harness name (its shard-file identity) and
  /// the grid flags (Flags::kGrid); make_sweep adds the jobs count.
  stats::SweepOptions sweep;
  /// --telemetry-out: live NDJSON frame stream, one frame per completed run
  /// as the sweep executes; sweep.telemetry_stream points at it. Opened in
  /// parse_args; the end frame is emitted when the last HarnessOptions copy
  /// goes away. With "-" the frames own stdout and the harness's tables and
  /// notes go to stderr, so stdout is a pure frame stream.
  std::shared_ptr<stats::TelemetryStream> telemetry_stream;
  /// --sim-threads: scheduler lanes/worker threads for the partitioned
  /// kernel inside each simulation (distinct from --jobs, which
  /// parallelizes across grid cells). 1 = the exact sequential path; any
  /// count above 1 gives identical results, which equal the sequential ones
  /// except on tie-heavy multicast traffic (DESIGN.md §9).
  unsigned sim_threads = 1;
  /// --partition: static partition strategy for the partitioned kernel.
  noc::PartitionStrategy partition = noc::PartitionStrategy::kAuto;
  std::shared_ptr<OutputSink> sink = std::make_shared<OutputSink>();
};

/// Declarative argument parsing for all harnesses: the common flag set,
/// the grid flags when `flags` is kGrid, plus any harness-specific flags
/// registered by `extra`. Bad usage exits 2 with the message and the
/// generated usage text; --help exits 0.
inline HarnessOptions parse_args(
    int argc, char** argv, const std::string& tool, const std::string& summary,
    Flags flags = Flags::kCommon,
    const std::function<void(util::CliParser&)>& extra = {}) {
  HarnessOptions opts;
  opts.sweep.tool = tool;
  stats::SweepOptions& sweep = opts.sweep;

  util::CliParser cli(tool, summary);
  cli.add_uint64("--seed", &opts.seed, "experiment seed");
  cli.add_unsigned("--jobs", &opts.jobs,
                   "grid worker threads (0: hardware concurrency, 1: exact "
                   "serial path); tables are byte-identical for any N");
  std::string csv_path;
  std::string json_path;
  cli.add_string("--csv", &csv_path, "also mirror tables to this CSV");
  cli.add_string("--json", &json_path,
                 "also mirror tables to this JSONL file");
  bool list_arch = false;
  cli.add_flag("--list-arch", &list_arch,
               "list the registered network architectures and exit (the "
               "canonical MoTs and the 2D meshes; harnesses may register "
               "design points later)");
  std::string telemetry_out;
  if (flags == Flags::kGrid) {
    cli.add_string("--metrics", &sweep.metrics_path,
                   "collect per-run speculation/stall metrics and write them "
                   "to this JSON file (observational; tables are unchanged)");
    cli.add_custom("--telemetry-epoch", "NS",
                   "sample an epoch-delta time series every NS simulated ns; "
                   "the series rides each run's metrics (observational — "
                   "results are byte-identical with sampling on)",
                   [&sweep](const std::string& value) {
                     sweep.batch.telemetry.epoch_ps =
                         util::parse_i64(value, "--telemetry-epoch") * 1000;
                   });
    cli.add_uint64("--telemetry-ring", &sweep.batch.telemetry.ring_capacity,
                   "epochs retained per run (flight-recorder depth)");
    cli.add_string("--telemetry-out", &telemetry_out,
                   "stream one NDJSON telemetry frame per completed run to "
                   "this file as the sweep executes ('-' = stdout, and the "
                   "tables move to stderr); tail with sweep_merge --follow");
    cli.add_unsigned("--sim-threads", &opts.sim_threads,
                     "partitioned-kernel worker threads inside each "
                     "simulation (1: exact sequential path; results "
                     "identical for any N > 1)");
    cli.add_custom("--partition", "NAME",
                   "partition strategy: auto | none | tree | quadrant | rows",
                   [&opts](const std::string& value) {
                     opts.partition =
                         noc::partition_strategy_from_string(value);
                   });
    cli.add_custom("--shard", "i/K",
                   "worker mode: run only shard i of K (requires --out)",
                   [&sweep](const std::string& value) {
                     sweep.shard = sim::ShardRef::parse(value);
                   });
    cli.add_string("--out", &sweep.out_path,
                   "worker mode: write this shard's results to a JSONL file");
    cli.add_string("--from", &sweep.from_path,
                   "render tables from a merged shard file (see sweep_merge) "
                   "instead of simulating");
    cli.add_flag("--anchors-only", &sweep.anchors_only,
                 "worker mode, phase 1: run only this shard's anchor cells "
                 "and exit (merge the anchor shards, then run phase 2 with "
                 "--anchors-from)");
    cli.add_string("--anchors-from", &sweep.anchors_from,
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
    if (!csv_path.empty()) opts.sink->mirror_csv(csv_path);
    if (!json_path.empty()) opts.sink->mirror_jsonl(json_path);
    if (!telemetry_out.empty()) {
      // Frames on stdout: the tables and notes make way, to stderr.
      if (telemetry_out == "-") opts.sink->report_to(std::cerr);
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
      sweep.telemetry_stream = stream;
      util::Json body = util::Json::object();
      body.set("tool", tool);
      body.set("seed", opts.seed);
      const TimePs epoch_ps = sweep.batch.telemetry.epoch_ps;
      if (epoch_ps > 0) {
        body.set("epoch_ps", static_cast<std::uint64_t>(epoch_ps));
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

/// Opens the harness's sweep session: its one ExperimentRunner over `cfg`
/// with the kernel flags applied, executing grids per the grid flags.
/// Sweep configuration errors — a --from file from another tool or seed,
/// an --out file belonging to a different sweep, conflicting sweep flags
/// — exit 2.
inline stats::ShardedSweep make_sweep(const HarnessOptions& opts,
                                      core::NetworkConfig cfg = {}) {
  cfg.sim_threads = opts.sim_threads;
  cfg.partition = opts.partition;
  stats::SweepOptions sweep = opts.sweep;
  sweep.batch.jobs = opts.jobs;
  return stats::ShardedSweep::open_or_exit(std::move(cfg), opts.seed,
                                           std::move(sweep));
}

inline void emit(const Table& table, const std::string& title,
                 const HarnessOptions& opts) {
  opts.sink->table(table, title);
}

inline void note(const std::string& text, const HarnessOptions& opts) {
  opts.sink->note(text);
}

}  // namespace specnoc::bench
