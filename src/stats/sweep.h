// Sharded design-space sweeps: shard files, merging, and the harness
// session that ties them to ExperimentRunner's batch APIs.
//
// A sweep is a harness's set of run grids. To spread a large grid over K
// machines, run the same harness K times with --shard i/K --out shard.jsonl:
// each *worker* executes only the cells sim::ShardPlan assigns to it (a
// pure function of each cell's spec key) and appends them to a JSONL shard
// file. `sweep_merge` validates that the K files came from the same sweep
// (schema version, tool, seed, per-grid hash) and combines them into one
// merged file; the harness then renders its normal tables from that file
// with --from, byte-identical to a single-process --jobs 1 run. That
// invariant — merge(shard outputs) == single-process output — is what the
// whole format is built around, and it holds because outcomes are merged
// in spec order and every number round-trips JSON exactly.
//
// Shard file layout (JSONL, one record per line, schema_version 2; the
// loader refuses any other version):
//   {"record":"manifest","format":"specnoc-sweep","schema":2,"tool":...,
//    "shard":i,"shards":K,"seed":S}
//   {"record":"grid","name":...,"kind":<Protocol::kind>,
//    "size":N,"hash":<hex fnv1a64 of the N spec keys>[,"shared":true]}
//   {"record":"outcome","grid":...,"cell":c,"key":...,
//    "status":"ok|retried|failed","data":{spec,run[,result]}}   (x many)
//   {"record":"done","outcomes":M}
//
// Partial files (no "done" record, or grids cut short) are legal inputs:
// merging reports their missing cells, and re-running a worker with the
// same --out resumes it — completed cells are carried over, failed and
// missing ones re-run.
//
// Anchor grids are *shared* grids: cheap prerequisite runs whose results
// parameterize the downstream sharded specs (e.g. the saturation points
// that fix the 25%-load operating rates). Every worker needs every anchor
// result to build its downstream grids, so a worker simulates whatever
// anchor cells it cannot load. The two-phase protocol runs each anchor cell
// once across the fleet:
//   phase 1: each worker runs with --anchors-only; it simulates only its
//            owned anchor cells and stops before the downstream grids.
//   merge:   sweep_merge combines the anchor shards as usual.
//   phase 2: each worker runs with --anchors-from <merged.jsonl>; the
//            anchors load from that file and the downstream grids run
//            sharded as before.
// Every worker records its owned anchor cells (a phase-2 worker copies the
// whole loaded anchor grid), so a merged file carries the anchors and
// --from renders without simulating them. Shared grids are the one place
// the merge accepts the same cell from multiple files: records are
// value-identical by construction (same spec key, same deterministic
// runner), so the first input wins and the duplicate is not an error.
//
// One rule resolves every cell of every grid, in every mode:
//   trusted records  render: the --from file. Worker, anchor grid under
//                    --anchors-from: that file, strictly (a missing or
//                    failed cell is a ConfigError). Any other worker grid:
//                    the owned, non-failed cells of the resumed --out file.
//                    Run mode: none.
//   cells to simulate  run mode: all. Render: none. Worker: its owned
//                    cells, plus every cell of an anchor grid unless
//                    --anchors-only is set.
// A cell is loaded if trusted, else simulated if wanted, else a failed
// placeholder saying why (missing from the --from file; owned by another
// shard). The simulated cells run as one batch; a worker records the
// loaded records and its simulated owned cells, then rewrites its file
// once per grid.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "sim/shard.h"
#include "stats/experiment.h"
#include "stats/serialization.h"
#include "stats/telemetry.h"
#include "util/json.h"

namespace specnoc::stats {

inline constexpr int kSweepSchemaVersion = 2;
inline constexpr const char* kSweepFormat = "specnoc-sweep";

struct SweepManifest {
  int schema_version = kSweepSchemaVersion;
  std::string tool;      ///< harness name; merge refuses mixed tools
  sim::ShardRef shard;   ///< which worker produced the file (0/1 = merged)
  std::uint64_t seed = 0;
};

/// One registered grid: identity shared by every worker of the sweep.
struct SweepGrid {
  std::string name;  ///< unique within the tool (e.g. the harness grid name)
  std::string kind;  ///< the grid's protocol (Protocol::kind)
  std::size_t size = 0;  ///< full grid size across all shards
  std::string hash;      ///< grid_hash() of all spec keys, in grid order
  /// Anchor grids: multiple workers may record the same cell (identical
  /// bytes); the merge keeps the first and does not flag the overlap.
  bool shared = false;
};

/// One recorded cell. `data` holds the serialized outcome (spec/run, plus
/// result when the run succeeded).
struct SweepRecord {
  std::size_t cell = 0;
  std::string key;
  std::string status;  ///< "ok" | "retried" | "failed"
  util::Json data;
};

/// A parsed shard (or merged) file. Within one file, a later record for
/// the same cell replaces an earlier one — that is what makes appending
/// re-runs a valid resume.
struct ShardFile {
  SweepManifest manifest;
  std::vector<SweepGrid> grids;
  std::map<std::string, std::map<std::size_t, SweepRecord>> records;
  bool complete = false;  ///< saw the "done" record

  const SweepGrid* find_grid(const std::string& name) const;
  const SweepRecord* find_record(const std::string& grid,
                                 std::size_t cell) const;
};

/// Parses a shard file; throws ConfigError naming `path:line` on any
/// malformed record (syntax, missing or mistyped field, misplaced record)
/// or schema mismatch.
ShardFile load_shard_file(const std::string& path);

/// Serializes a ShardFile back to disk (manifest, grids, outcomes in cell
/// order, plus the "done" record when `file.complete`). The file is
/// written to `<path>.tmp` and renamed over `path`, so a failed or killed
/// write leaves the previous file intact; throws ConfigError on failure.
void write_shard_file(const ShardFile& file, const std::string& path);

/// What the merge found, per grid. Cells are indexes into the grid.
struct MergeReport {
  struct Grid {
    std::string name;
    std::size_t size = 0;
    std::size_t present = 0;
    bool shared = false;
    std::vector<std::size_t> missing;
    /// Recorded by more than one file. Expected (and not reported) for
    /// shared grids, where overlap is by construction.
    std::vector<std::size_t> duplicates;
    std::vector<std::size_t> failed;      ///< status "failed"
  };
  std::vector<Grid> grids;
  unsigned incomplete_inputs = 0;  ///< input files without a "done" record

  /// True when every grid is fully covered with no duplicates. Failed
  /// cells do not make a merge incomplete — they are real outcomes, and
  /// the rendered table shows them as FAIL exactly like the single-process
  /// path would.
  bool complete() const;

  std::string summary() const;  ///< deterministic multi-line report
};

/// Validates that the inputs belong to one sweep (same format, schema,
/// tool, seed, and shard count; distinct shard indexes; identical grid
/// identities) and merges their outcomes in spec order. On conflicting
/// duplicates the first input in argument order wins and the cell is
/// reported. Throws ConfigError for files that cannot belong to the same
/// sweep.
ShardFile merge_shards(const std::vector<ShardFile>& inputs,
                       MergeReport* report);

/// Work one shard file accounts for: cell count, summed run wall time, and
/// how many cells needed more than one attempt, read from the serialized
/// "run" objects (so any harness's or machine's file can be tallied).
struct ShardWork {
  std::size_t cells = 0;
  double wall_ms = 0.0;
  std::uint64_t retries = 0;
  std::size_t telemetry_runs = 0;  ///< cells carrying an epoch series
  std::uint64_t epochs = 0;        ///< total retained epochs across them
};

/// Tallies one shard file. A cell of a shared (anchor) grid counts only in
/// the file of the shard that owns it by sim::ShardPlan: a phase-2 worker
/// copies the whole anchor grid into its file, but each anchor ran once,
/// so summing the tallies of a sweep's files counts every cell once. Also
/// validates every embedded telemetry series: each must parse under the
/// strict codec and re-serialize to the exact bytes stored, so the merged
/// file provably carries the worker's time series unmodified (ConfigError
/// naming `path` otherwise).
ShardWork tally_shard(const ShardFile& file, const std::string& path);

/// How a harness executes its grids this invocation. It follows from the
/// options: from_path selects render mode, out_path worker mode.
enum class SweepMode {
  kRun,     ///< plain single-process run (no sharding involved)
  kWorker,  ///< --shard i/K --out: run our cells, write the shard file
  kRender,  ///< --from: take outcomes from a merged file, render tables
};

struct SweepOptions {
  std::string tool;       ///< manifest identity; must match across workers
  /// How grids execute. The session sets collect_metrics when
  /// metrics_path or telemetry_stream is set. A negative telemetry epoch
  /// or a zero telemetry ring is a ConfigError.
  BatchOptions batch;
  sim::ShardRef shard;    ///< worker mode
  std::string out_path;   ///< set: worker mode, this shard's file
  std::string from_path;  ///< set: render mode, the merged file
  /// Worker mode, phase 1: simulate only this shard's anchor cells and
  /// stop — the harness must skip its downstream grids (anchors_only()).
  bool anchors_only = false;
  /// Worker mode, phase 2: load anchor outcomes from this merged shard
  /// file instead of simulating them.
  std::string anchors_from;
  /// Set: finish() writes the specnoc-metrics document (EXPERIMENTS.md)
  /// here — one entry per returned cell that carried a MetricsSnapshot,
  /// in grid order.
  std::string metrics_path;
  /// Live telemetry sink (non-owning; the harness opens it from
  /// --telemetry-out). Every simulated grid then emits one NDJSON "run"
  /// frame per cell as it completes, mid-batch — grid, cell, grid_runs (how
  /// many cells of the grid this invocation simulates), key, status,
  /// events, wall time, summary counters, and the sampled series when
  /// batch.telemetry is enabled. Render mode simulates nothing and emits
  /// nothing.
  TelemetryStream* telemetry_stream = nullptr;
};

/// The harness-facing session. It owns the harness's one ExperimentRunner;
/// every grid registered through it resolves cell by cell through the rule
/// in the file comment. It keeps every returned cell's metrics for the
/// metrics document and counts its failures, and finish() turns them into
/// the exit code.
class ShardedSweep {
 public:
  /// Builds the runner from `config` and `seed`; the seed is also the
  /// sweep's identity in shard files and the metrics document. Throws
  /// ConfigError for conflicting options, or a --from, --anchors-from or
  /// --out file that belongs to another sweep.
  ShardedSweep(core::NetworkConfig config, std::uint64_t seed,
               SweepOptions options);

  /// The constructor for a harness main(): a ConfigError is a usage error,
  /// printed as "<tool>: <what>" to stderr, and the process exits 2.
  static ShardedSweep open_or_exit(core::NetworkConfig config,
                                   std::uint64_t seed, SweepOptions options);

  SweepMode mode() const {
    if (!options_.from_path.empty()) return SweepMode::kRender;
    if (!options_.out_path.empty()) return SweepMode::kWorker;
    return SweepMode::kRun;
  }

  /// False in worker mode: the harness should skip its table rendering and
  /// return finish() instead.
  bool should_render() const { return mode() != SweepMode::kWorker; }

  /// True when this worker runs with --anchors-only: the harness should
  /// return finish() right after its anchor grids, never constructing the
  /// downstream grids (their specs would need the missing anchor results).
  bool anchors_only() const { return options_.anchors_only; }

  /// Anchors: a shared grid of cheap prerequisite runs whose results
  /// parameterize the downstream sharded specs. A worker returns every
  /// cell (loaded or simulated), except that under --anchors-only the
  /// cells of other shards come back run.ok == false and the harness exits
  /// via finish() next.
  template <Protocol P>
  std::vector<Outcome<P>> anchors(const std::vector<typename P::Spec>& specs,
                                  const std::string& name = "anchor") {
    return execute<P>(name, specs, /*anchor=*/true);
  }

  /// A sharded grid. `name` must be unique within the harness and identical
  /// across its workers. In worker mode, cells not owned by this shard
  /// come back with run.ok == false and an informative error (the harness
  /// never renders them). Render mode only loads outcomes; it simulates
  /// nothing. Spec keys embed trace hashes where a protocol has them, so
  /// workers replaying different trace bytes produce different grid hashes
  /// and the merge refuses to combine them.
  template <Protocol P>
  std::vector<Outcome<P>> grid(const std::string& name,
                               const std::vector<typename P::Spec>& specs) {
    return execute<P>(name, specs, /*anchor=*/false);
  }

  /// Ends the invocation: writes the metrics document when metrics_path
  /// is set and, in worker mode, the "done" record plus a one-line summary
  /// on stderr. Returns the process exit code: 1 if any cell this
  /// invocation ran or loaded failed (in worker mode, any cell this shard
  /// owns; cells owned by other shards do not count), else 0.
  int finish();

 private:
  /// How one grid's cells resolve in this invocation.
  struct Resolution {
    std::vector<const SweepRecord*> loaded;  ///< trusted record, or nullptr
    std::vector<std::size_t> simulate;       ///< ascending; none loaded
    /// Cells whose failures this invocation answers for: all of them,
    /// except that a worker answers only for its own shard's.
    std::vector<bool> owned;
    std::string placeholder;  ///< error of a cell neither loaded nor run
  };

  template <Protocol P>
  std::vector<Outcome<P>> execute(const std::string& name,
                                  const std::vector<typename P::Spec>& specs,
                                  bool anchor) {
    const std::vector<std::string> keys = spec_keys(specs);
    const Resolution cells =
        resolve({name, P::kind, specs.size(), grid_hash(keys), anchor}, keys);
    std::vector<typename P::Spec> wanted;
    for (const std::size_t cell : cells.simulate) {
      wanted.push_back(specs[cell]);
    }
    std::vector<Outcome<P>> fresh = runner_.run_grid<P>(
        wanted, streaming_batch(name, keys, cells.simulate));

    std::vector<Outcome<P>> outcomes(specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i) {
      if (cells.loaded[i] != nullptr) {
        outcomes[i] = outcome_from_json<P>(cells.loaded[i]->data);
      } else {
        outcomes[i].run.ok = false;
        outcomes[i].run.error = cells.placeholder;
      }
    }
    for (std::size_t j = 0; j < fresh.size(); ++j) {
      const std::size_t cell = cells.simulate[j];
      outcomes[cell] = std::move(fresh[j]);
      if (mode() == SweepMode::kWorker && cells.owned[cell]) {
        record(name, cell, keys[cell], outcomes[cell].run,
               to_json(outcomes[cell]));
      }
    }
    if (mode() == SweepMode::kWorker) flush();
    for (std::size_t i = 0; i < specs.size(); ++i) {
      outcomes[i].spec = specs[i];
      if (!outcomes[i].run.ok && cells.owned[i]) ++failures_;
      if (outcomes[i].metrics.has_value()) {
        keep_metrics(name, keys[i], *outcomes[i].metrics);
      }
    }
    return outcomes;
  }

  /// Applies the rule to `grid`: in worker mode it also registers the grid
  /// and copies the loaded records into this shard's file.
  Resolution resolve(const SweepGrid& grid,
                     const std::vector<std::string>& keys);

  /// The records trusted_ holds for `grid`, cell by cell (nullptr where a
  /// cell must not be loaded), after checking the grid's identity and each
  /// record's key. Throws ConfigError where the rule says so.
  std::vector<const SweepRecord*> trusted_records(
      const SweepGrid& grid, const std::vector<std::string>& keys,
      const std::vector<bool>& owned) const;

  void register_grid(const SweepGrid& grid);
  /// Records one owned cell's outcome in this worker's shard file.
  void record(const std::string& grid, std::size_t cell,
              const std::string& key, const sim::RunOutcome& run,
              util::Json data);

  /// options_.batch plus the live-telemetry hook when a stream is
  /// attached: on_run_done emits one "run" frame per completed run.
  /// `cells` maps batch index -> grid cell; `keys` are the grid's spec
  /// keys, indexed by cell.
  BatchOptions streaming_batch(const std::string& name,
                               const std::vector<std::string>& keys,
                               const std::vector<std::size_t>& cells) const;

  void flush() const;

  /// Adds one run to the metrics document.
  void keep_metrics(const std::string& grid, const std::string& key,
                    const MetricsSnapshot& metrics);
  void write_metrics();

  SweepOptions options_;
  ExperimentRunner runner_;
  ShardFile out_;  ///< worker: this shard's file as built so far
  /// Records this invocation may load instead of simulating. Render: the
  /// --from file. Worker: the resumed --out file, with its anchor grids
  /// replaced by the --anchors-from file's when that is set.
  ShardFile trusted_;
  std::size_t executed_ = 0;  ///< worker: cells simulated
  std::size_t carried_ = 0;   ///< worker: cells loaded
  std::size_t failures_ = 0;
  std::vector<util::Json> metrics_runs_;
  std::uint64_t spills_total_ = 0;
  std::uint64_t spill_bytes_total_ = 0;
  std::uint64_t arena_bytes_peak_ = 0;
};

}  // namespace specnoc::stats
