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
// Shard file layout (JSONL, one record per line, schema_version 2;
// version-1 files — which predate shared grids — still load):
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
// Anchor grids (schema 2) are *shared* grids: cheap prerequisite runs
// whose results parameterize the downstream sharded specs (e.g. the
// saturation points that fix the 25%-load operating rates). Because every
// worker needs every anchor result to even construct its downstream grid,
// anchors historically re-ran in full in each of the K workers. Shared
// grids break that duplication with a two-phase protocol:
//   phase 1: each worker runs with --anchors-only; it simulates only its
//            owned anchor cells, records them under a shared grid, and
//            exits before touching the downstream grids.
//   merge:   sweep_merge combines the anchor shards as usual.
//   phase 2: each worker runs with --anchors-from <merged.jsonl>; anchor
//            outcomes load from the file (zero anchor simulation), the
//            downstream grids run sharded as before, and the anchors are
//            copied into each shard file so the final merge stays
//            self-contained.
// The classic single-invocation worker (neither flag) still runs the full
// anchor grid but now records its owned cells under the shared grid, so a
// merged file always carries the anchors and --from renders without
// resimulating them. Shared grids are the one place the merge accepts the
// same cell from multiple files: records are value-identical by
// construction (same spec key, same deterministic runner), so the first
// input wins and the duplicate is not an error.
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
/// Oldest schema the loader still reads (1 = before shared anchor grids).
inline constexpr int kSweepSchemaVersionMin = 1;
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
  /// find_record() for cells [0, size) of `grid`.
  std::vector<const SweepRecord*> records_of(const std::string& grid,
                                             std::size_t size) const;
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

/// How a harness executes its grids this invocation. It follows from the
/// options: from_path selects render mode, out_path worker mode.
enum class SweepMode {
  kRun,     ///< plain single-process run (no sharding involved)
  kWorker,  ///< --shard i/K --out: run our cells, write the shard file
  kRender,  ///< --from: take outcomes from a merged file, render tables
};

struct SweepOptions {
  std::string tool;       ///< manifest identity; must match across workers
  /// How grids execute. The session derives the rest: collect_metrics
  /// when metrics_path or telemetry_stream is set, and under progress
  /// reporting a "<tool>/<grid>" progress_label.
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
  /// frame per cell as it completes, mid-batch — grid, cell, key, status,
  /// events, wall time, summary counters, and the sampled series when
  /// batch.telemetry is enabled. Render mode simulates nothing and emits
  /// nothing.
  TelemetryStream* telemetry_stream = nullptr;
};

/// One cell the session handed back to the harness: a per-run table row.
struct SweepRun {
  std::string label;  ///< Protocol::label of the cell's spec
  sim::RunOutcome run;
};

/// The harness-facing session. It owns the harness's one ExperimentRunner;
/// grids registered through it execute according to the mode; anchor
/// grids (cheap prerequisites whose results parameterize the sharded
/// specs, e.g. the saturation points that fix 25%-load operating rates)
/// always run in full so every worker can build identical downstream
/// grids. It keeps every returned cell for the per-run table and the
/// metrics document, and finish() turns them into the exit code.
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
  /// parameterize the downstream sharded specs. Mode behavior:
  ///  - run: simulate in full (unchanged).
  ///  - worker, classic: simulate in full, record owned cells.
  ///  - worker --anchors-only: simulate owned cells only; unowned cells
  ///    come back run.ok == false (the harness exits via finish() next).
  ///  - worker --anchors-from: load every cell from the merged anchor
  ///    file — zero anchor simulation — and copy the records into this
  ///    shard file so the final merge is self-contained.
  ///  - render: load from the --from file; files predating shared grids
  ///    (schema 1) fall back to simulating, as before.
  template <Protocol P>
  std::vector<Outcome<P>> anchors(const std::vector<typename P::Spec>& specs,
                                  const std::string& name = "anchor") {
    return keep<P>(name, execute<P>(name, specs, /*anchor=*/true));
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
    return keep<P>(name, execute<P>(name, specs, /*anchor=*/false));
  }

  /// Every cell handed back so far, in grid order: the per-run table.
  const std::vector<SweepRun>& runs() const { return runs_; }

  /// Ends the invocation: writes the metrics document when metrics_path
  /// is set and, in worker mode, the "done" record plus a one-line summary
  /// on stderr. Returns the process exit code: 1 if any cell this
  /// invocation ran or loaded failed (in worker mode, any cell this shard
  /// owns; cells owned by other shards do not count), else 0.
  int finish();

 private:
  template <Protocol P>
  std::vector<Outcome<P>> execute(const std::string& name,
                                  const std::vector<typename P::Spec>& specs,
                                  bool anchor) {
    const std::vector<std::string> keys = spec_keys(specs);
    if (mode() == SweepMode::kRun) {
      return runner_.run_grid<P>(specs, streaming_batch(name, keys, {}));
    }
    const SweepGrid grid{name, P::kind, specs.size(), grid_hash(keys), anchor};

    if (mode() == SweepMode::kRender) {
      if (anchor && file_.find_grid(name) == nullptr) {
        // The merged file predates shared anchor grids (schema-1 workers
        // never recorded anchors): simulate them, exactly as before.
        return runner_.run_grid<P>(specs, labeled_batch(name));
      }
      return load<P>(file_, "--from file '" + options_.from_path + "'",
                     grid, keys, specs, /*strict=*/false);
    }

    // Worker. Sharded grids — and anchors in phase 1 (--anchors-only, after
    // which the harness exits via finish()) — simulate only the owned cells.
    if (!anchor || options_.anchors_only) {
      return run_owned<P>(grid, specs, keys);
    }

    // --anchors-from skips simulation entirely: the anchor records are copied
    // into this shard file, so the merged downstream file carries the anchors
    // itself and --from never needs the phase-1 file. The merge accepts the
    // K-way overlap (shared grid).
    if (!options_.anchors_from.empty()) {
      auto outcomes =
          load<P>(anchors_,
                  "--anchors-from file '" + options_.anchors_from + "'", grid,
                  keys, specs, /*strict=*/true);
      register_grid(grid);
      const auto records = anchors_.records.find(name);
      if (records != anchors_.records.end()) {
        file_.records[name].insert(records->second.begin(),
                                   records->second.end());
      }
      flush();
      return outcomes;
    }

    // Classic worker: every anchor result is needed to construct the
    // downstream specs, so the full grid still runs — but the owned cells
    // are recorded, giving the merged file complete anchor coverage.
    auto outcomes = runner_.run_grid<P>(specs, streaming_batch(name, keys, {}));
    register_grid(grid);
    const sim::ShardPlan plan(options_.shard.count);
    for (const std::size_t cell : plan.cells_of(keys, options_.shard.index)) {
      record(name, cell, keys[cell], outcomes[cell].run,
             to_json(outcomes[cell]));
    }
    flush();
    return outcomes;
  }

  /// Worker mode: runs this shard's cells of `grid` that a resumed file
  /// has not completed, records them, and reads every owned cell back from
  /// the shard file — exactly the outcomes a merge will see.
  template <Protocol P>
  std::vector<Outcome<P>> run_owned(const SweepGrid& grid,
                                    const std::vector<typename P::Spec>& specs,
                                    const std::vector<std::string>& keys) {
    const std::vector<std::size_t> to_run = claim(grid, keys);
    std::vector<typename P::Spec> subset;
    for (const std::size_t cell : to_run) subset.push_back(specs[cell]);
    const std::vector<Outcome<P>> fresh =
        runner_.run_grid<P>(subset, streaming_batch(grid.name, keys, to_run));
    for (std::size_t j = 0; j < to_run.size(); ++j) {
      record(grid.name, to_run[j], keys[to_run[j]], fresh[j].run,
             to_json(fresh[j]));
      ++executed_;
    }
    flush();
    return decode<P>(specs, file_.records_of(grid.name, specs.size()),
                     "cell not owned by shard " + options_.shard.to_string());
  }

  /// Keeps what the harness is handed: the per-run rows, failures outside
  /// worker mode (a worker counts the cells it owns as it records them;
  /// the rest belong to other shards) and the metrics entries.
  template <Protocol P>
  std::vector<Outcome<P>> keep(const std::string& grid,
                               std::vector<Outcome<P>> outcomes) {
    for (const auto& outcome : outcomes) {
      runs_.push_back({P::label(outcome.spec), outcome.run});
      if (!outcome.run.ok && mode() != SweepMode::kWorker) ++failures_;
      if (outcome.metrics.has_value()) {
        keep_metrics(grid, P::spec_key(outcome.spec), *outcome.metrics);
      }
    }
    return outcomes;
  }

  /// Reads a whole grid's outcomes out of `src` (a loaded --from or
  /// --anchors-from file).
  template <Protocol P>
  std::vector<Outcome<P>> load(const ShardFile& src, const std::string& origin,
                               const SweepGrid& grid,
                               const std::vector<std::string>& keys,
                               const std::vector<typename P::Spec>& specs,
                               bool strict) {
    return decode<P>(specs, load_records(src, origin, grid, keys, strict),
                     "cell missing from " + origin + " (partial merge?)");
  }

  /// Outcomes decoded from cell-indexed `records` (a null record yields a
  /// failed outcome reporting `missing`), with the caller's specs attached.
  template <Protocol P>
  static std::vector<Outcome<P>> decode(
      const std::vector<typename P::Spec>& specs,
      const std::vector<const SweepRecord*>& records,
      const std::string& missing) {
    std::vector<Outcome<P>> outcomes(specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i) {
      if (records[i] != nullptr) {
        outcomes[i] = outcome_from_json<P>(records[i]->data);
      } else {
        outcomes[i].run.ok = false;
        outcomes[i].run.error = missing;
      }
      outcomes[i].spec = specs[i];
    }
    return outcomes;
  }

  /// Registers `grid`, carries completed records of a resumed file over,
  /// and returns the owned cells still to run.
  std::vector<std::size_t> claim(const SweepGrid& grid,
                                 const std::vector<std::string>& keys);

  /// Validates `src`'s copy of `grid` (identity, per-cell keys) and returns
  /// each cell's record, nullptr for a missing cell. `strict` — used for
  /// anchors, whose results feed downstream spec construction — turns
  /// missing or failed cells into ConfigError instead of failed outcomes.
  std::vector<const SweepRecord*> load_records(
      const ShardFile& src, const std::string& origin, const SweepGrid& grid,
      const std::vector<std::string>& keys, bool strict);

  void register_grid(const SweepGrid& grid);
  /// Records one owned cell's outcome in this worker's shard file.
  void record(const std::string& grid, std::size_t cell,
              const std::string& key, const sim::RunOutcome& run,
              util::Json data);

  /// options_.batch with "/<name>" appended to a non-empty progress label,
  /// so live progress lines identify the grid being executed.
  BatchOptions labeled_batch(const std::string& name) const;

  /// labeled_batch() plus the live-telemetry hook when a stream is
  /// attached: on_run_done emits one "run" frame per completed run.
  /// `cells` maps batch index -> grid cell (empty = identity, for grids
  /// run in full); `keys` are the grid's spec keys, indexed by cell.
  BatchOptions streaming_batch(const std::string& name,
                               std::vector<std::string> keys,
                               std::vector<std::size_t> cells) const;

  void flush() const;

  /// Adds one run to the metrics document.
  void keep_metrics(const std::string& grid, const std::string& key,
                    const MetricsSnapshot& metrics);
  void write_metrics();

  SweepOptions options_;
  ExperimentRunner runner_;
  ShardFile file_;     ///< worker: being built; render: the loaded file
  ShardFile anchors_;  ///< worker: the loaded --anchors-from file, if any
  ShardFile resume_;   ///< worker: previous contents of out_path, if any
  bool resuming_ = false;
  std::size_t executed_ = 0;
  std::size_t carried_ = 0;
  std::size_t failures_ = 0;
  std::vector<SweepRun> runs_;
  std::vector<util::Json> metrics_runs_;
  std::uint64_t spills_total_ = 0;
  std::uint64_t spill_bytes_total_ = 0;
  std::uint64_t arena_bytes_peak_ = 0;
};

}  // namespace specnoc::stats
