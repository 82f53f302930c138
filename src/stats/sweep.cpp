#include "stats/sweep.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>

#include "util/error.h"

namespace specnoc::stats {

using util::Json;

namespace {

Json manifest_to_json(const SweepManifest& manifest) {
  Json json = Json::object();
  json.set("record", "manifest");
  json.set("format", kSweepFormat);
  json.set("schema", static_cast<std::int64_t>(manifest.schema_version));
  json.set("tool", manifest.tool);
  json.set("shard", manifest.shard.index);
  json.set("shards", manifest.shard.count);
  json.set("seed", manifest.seed);
  return json;
}

SweepManifest manifest_from_json(const Json& json) {
  if (json.at("format").as_string() != kSweepFormat) {
    throw ConfigError("not a " + std::string(kSweepFormat) + " file (format '" +
                      json.at("format").as_string() + "')");
  }
  SweepManifest manifest;
  manifest.schema_version = static_cast<int>(json.at("schema").as_i64());
  if (manifest.schema_version != kSweepSchemaVersion) {
    throw ConfigError("unsupported sweep schema version " +
                      std::to_string(manifest.schema_version) +
                      " (this build reads version " +
                      std::to_string(kSweepSchemaVersion) + ")");
  }
  manifest.tool = json.at("tool").as_string();
  manifest.shard.index = static_cast<unsigned>(json.at("shard").as_u64());
  manifest.shard.count = static_cast<unsigned>(json.at("shards").as_u64());
  if (manifest.shard.count == 0 ||
      manifest.shard.index >= manifest.shard.count) {
    throw ConfigError("manifest has invalid shard " +
                      manifest.shard.to_string());
  }
  manifest.seed = json.at("seed").as_u64();
  return manifest;
}

Json grid_to_json(const SweepGrid& grid) {
  Json json = Json::object();
  json.set("record", "grid");
  json.set("name", grid.name);
  json.set("kind", grid.kind);
  json.set("size", static_cast<std::uint64_t>(grid.size));
  json.set("hash", grid.hash);
  if (grid.shared) json.set("shared", true);
  return json;
}

SweepGrid grid_from_json(const Json& json) {
  SweepGrid grid;
  grid.name = json.at("name").as_string();
  grid.kind = json.at("kind").as_string();
  grid.size = static_cast<std::size_t>(json.at("size").as_u64());
  grid.hash = json.at("hash").as_string();
  const Json* shared = json.find("shared");  // written only when true
  grid.shared = shared != nullptr && shared->as_bool();
  return grid;
}

Json record_to_json(const std::string& grid_name, const SweepRecord& record) {
  Json json = Json::object();
  json.set("record", "outcome");
  json.set("grid", grid_name);
  json.set("cell", static_cast<std::uint64_t>(record.cell));
  json.set("key", record.key);
  json.set("status", record.status);
  json.set("data", record.data);
  return json;
}

bool valid_status(const std::string& status) {
  return status == "ok" || status == "retried" || status == "failed";
}

// One live NDJSON "run" frame: identity (grid/cell/key), how many cells of
// the grid this invocation runs (grid_runs, the N of a k/N progress
// count), outcome shape (status/events/wall), the run's headline
// speculation counters, and the full sampled series when telemetry was
// enabled. Called from worker threads mid-batch; TelemetryStream
// serializes the writes.
void emit_run_frame(TelemetryStream& stream, const std::string& grid,
                    std::size_t cell, std::size_t grid_runs,
                    const std::string& key, const sim::RunOutcome& run,
                    const MetricsSnapshot* metrics) {
  Json body = Json::object();
  body.set("grid", grid);
  body.set("cell", static_cast<std::uint64_t>(cell));
  body.set("grid_runs", static_cast<std::uint64_t>(grid_runs));
  body.set("key", key);
  body.set("status", run_status(run));
  if (!run.error.empty()) body.set("error", run.error);
  body.set("events", run.telemetry.events_executed);
  body.set("wall_ms", run.telemetry.wall_ms);
  if (metrics != nullptr) {
    body.set("kills", metrics->total_kills());
    body.set("prealloc_hits", metrics->total_prealloc_hits());
    body.set("contended_grants", metrics->total_contended_grants());
    body.set("stalls", metrics->total_stalls());
    if (metrics->dest_spills != 0) body.set("spills", metrics->dest_spills);
    if (!metrics->telemetry.empty()) {
      body.set("telemetry", telemetry_series_to_json(metrics->telemetry));
    }
  }
  stream.emit(TelemetryFrameKind::kRun, std::move(body));
}

bool same_grid(const SweepGrid& a, const SweepGrid& b) {
  return a.name == b.name && a.kind == b.kind && a.size == b.size &&
         a.hash == b.hash && a.shared == b.shared;
}

void append_cells(std::string& out, const std::vector<std::size_t>& cells) {
  constexpr std::size_t kMaxListed = 8;
  for (std::size_t i = 0; i < cells.size() && i < kMaxListed; ++i) {
    out += (i == 0 ? " [" : ", ");
    out += std::to_string(cells[i]);
  }
  if (!cells.empty()) {
    if (cells.size() > kMaxListed) out += ", ...";
    out += "]";
  }
}

}  // namespace

const SweepGrid* ShardFile::find_grid(const std::string& name) const {
  for (const auto& grid : grids) {
    if (grid.name == name) return &grid;
  }
  return nullptr;
}

const SweepRecord* ShardFile::find_record(const std::string& grid,
                                          std::size_t cell) const {
  const auto it = records.find(grid);
  if (it == records.end()) return nullptr;
  const auto rec = it->second.find(cell);
  return rec != it->second.end() ? &rec->second : nullptr;
}

ShardFile load_shard_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw ConfigError("cannot open shard file '" + path + "'");
  ShardFile file;
  bool have_manifest = false;
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) continue;
    // Whatever is wrong with a line -- its syntax, a missing or mistyped
    // field, its place in the file -- the error names path:line.
    try {
      const Json json = util::json_parse(line);
      const std::string& record = json.at("record").as_string();
      if (record == "manifest") {
        if (have_manifest) throw ConfigError("duplicate manifest record");
        file.manifest = manifest_from_json(json);
        have_manifest = true;
        continue;
      }
      if (!have_manifest) {
        throw ConfigError("first record must be the manifest");
      }
      if (file.complete) throw ConfigError("record after the done record");
      if (record == "grid") {
        SweepGrid grid = grid_from_json(json);
        if (file.find_grid(grid.name) != nullptr) {
          throw ConfigError("duplicate grid '" + grid.name + "'");
        }
        file.grids.push_back(std::move(grid));
        continue;
      }
      if (record == "outcome") {
        const std::string& grid_name = json.at("grid").as_string();
        const SweepGrid* grid = file.find_grid(grid_name);
        if (grid == nullptr) {
          throw ConfigError("outcome for unregistered grid '" + grid_name +
                            "'");
        }
        SweepRecord rec;
        rec.cell = static_cast<std::size_t>(json.at("cell").as_u64());
        if (rec.cell >= grid->size) {
          throw ConfigError("cell " + std::to_string(rec.cell) +
                            " out of range for grid '" + grid_name +
                            "' (size " + std::to_string(grid->size) + ")");
        }
        rec.key = json.at("key").as_string();
        rec.status = json.at("status").as_string();
        if (!valid_status(rec.status)) {
          throw ConfigError("unknown status '" + rec.status + "'");
        }
        rec.data = json.at("data");
        // Later records replace earlier ones: an appended re-run of a
        // previously failed cell supersedes it.
        file.records[grid_name].insert_or_assign(rec.cell, std::move(rec));
        continue;
      }
      if (record == "done") {
        file.complete = true;
        continue;
      }
      throw ConfigError("unknown record type '" + record + "'");
    } catch (const ConfigError& error) {
      throw ConfigError(path + ":" + std::to_string(line_no) + ": " +
                        error.what());
    }
  }
  if (!have_manifest) {
    throw ConfigError(path + ": no manifest record (empty or truncated file)");
  }
  return file;
}

void write_shard_file(const ShardFile& file, const std::string& path) {
  const std::string tmp_path = path + ".tmp";
  std::ofstream out(tmp_path, std::ios::trunc);
  if (!out) throw ConfigError("cannot write shard file '" + tmp_path + "'");
  out << util::json_write(manifest_to_json(file.manifest)) << "\n";
  std::size_t outcomes = 0;
  for (const auto& grid : file.grids) {
    out << util::json_write(grid_to_json(grid)) << "\n";
    const auto records = file.records.find(grid.name);
    if (records == file.records.end()) continue;
    for (const auto& [cell, record] : records->second) {
      static_cast<void>(cell);
      out << util::json_write(record_to_json(grid.name, record)) << "\n";
      ++outcomes;
    }
  }
  if (file.complete) {
    Json done = Json::object();
    done.set("record", "done");
    done.set("outcomes", static_cast<std::uint64_t>(outcomes));
    out << util::json_write(done) << "\n";
  }
  out.close();
  if (!out) throw ConfigError("short write to shard file '" + tmp_path + "'");
  if (std::rename(tmp_path.c_str(), path.c_str()) != 0) {
    throw ConfigError("cannot replace shard file '" + path + "' with '" +
                      tmp_path + "'");
  }
}

bool MergeReport::complete() const {
  for (const auto& grid : grids) {
    if (!grid.missing.empty() || !grid.duplicates.empty()) return false;
  }
  return true;
}

std::string MergeReport::summary() const {
  std::string out;
  for (const auto& grid : grids) {
    out += "grid " + grid.name + (grid.shared ? " (shared)" : "") + ": " +
           std::to_string(grid.size) +
           " cells, " + std::to_string(grid.present) + " present, " +
           std::to_string(grid.missing.size()) + " missing";
    append_cells(out, grid.missing);
    out += ", " + std::to_string(grid.duplicates.size()) + " duplicate";
    append_cells(out, grid.duplicates);
    out += ", " + std::to_string(grid.failed.size()) + " failed";
    append_cells(out, grid.failed);
    out += "\n";
  }
  if (incomplete_inputs > 0) {
    out += std::to_string(incomplete_inputs) +
           " input shard(s) had no done record (interrupted worker?)\n";
  }
  out += complete() ? "merge: complete\n" : "merge: INCOMPLETE\n";
  return out;
}

ShardFile merge_shards(const std::vector<ShardFile>& inputs,
                       MergeReport* report) {
  if (inputs.empty()) throw ConfigError("no shard files to merge");
  const SweepManifest& ref = inputs.front().manifest;
  std::vector<bool> seen_shard(ref.shard.count, false);
  for (const auto& input : inputs) {
    const SweepManifest& m = input.manifest;
    if (m.tool != ref.tool) {
      throw ConfigError("shard files are from different tools ('" + ref.tool +
                        "' vs '" + m.tool + "')");
    }
    if (m.seed != ref.seed) {
      throw ConfigError("shard files are from different seeds (" +
                        std::to_string(ref.seed) + " vs " +
                        std::to_string(m.seed) + ")");
    }
    if (m.shard.count != ref.shard.count) {
      throw ConfigError("shard files disagree on the shard count (" +
                        std::to_string(ref.shard.count) + " vs " +
                        std::to_string(m.shard.count) + ")");
    }
    if (seen_shard[m.shard.index]) {
      throw ConfigError("two inputs claim shard " + m.shard.to_string());
    }
    seen_shard[m.shard.index] = true;
  }

  ShardFile merged;
  merged.manifest.tool = ref.tool;
  merged.manifest.seed = ref.seed;
  merged.manifest.shard = {0, 1};

  // Grid identities must agree wherever they overlap; the union (in
  // first-seen order) is the merged grid list, so a worker that died
  // before registering a later grid still merges.
  for (const auto& input : inputs) {
    for (const auto& grid : input.grids) {
      const SweepGrid* existing = merged.find_grid(grid.name);
      if (existing == nullptr) {
        merged.grids.push_back(grid);
      } else if (!same_grid(*existing, grid)) {
        throw ConfigError(
            "grid '" + grid.name +
            "' differs between shard files (size/hash mismatch); the shards "
            "were not produced from the same sweep configuration");
      }
    }
  }

  MergeReport local_report;
  MergeReport& rep = report != nullptr ? *report : local_report;
  rep = MergeReport{};
  for (const auto& input : inputs) {
    if (!input.complete) ++rep.incomplete_inputs;
  }

  for (const auto& grid : merged.grids) {
    MergeReport::Grid coverage;
    coverage.name = grid.name;
    coverage.size = grid.size;
    coverage.shared = grid.shared;
    auto& out_records = merged.records[grid.name];
    for (const auto& input : inputs) {
      const auto records = input.records.find(grid.name);
      if (records == input.records.end()) continue;
      for (const auto& [cell, record] : records->second) {
        const auto existing = out_records.find(cell);
        if (existing != out_records.end()) {
          if (existing->second.key != record.key) {
            throw ConfigError("grid '" + grid.name + "' cell " +
                              std::to_string(cell) +
                              " has conflicting keys across shard files");
          }
          // Shared (anchor) grids overlap by construction — every worker
          // may carry the full grid — so the duplicate is expected, not a
          // coverage defect.
          if (!grid.shared) coverage.duplicates.push_back(cell);
          continue;  // first input in argument order wins
        }
        out_records.emplace(cell, record);
      }
    }
    coverage.present = out_records.size();
    for (std::size_t cell = 0; cell < grid.size; ++cell) {
      const auto it = out_records.find(cell);
      if (it == out_records.end()) {
        coverage.missing.push_back(cell);
      } else if (it->second.status == "failed") {
        coverage.failed.push_back(cell);
      }
    }
    std::sort(coverage.duplicates.begin(), coverage.duplicates.end());
    coverage.duplicates.erase(
        std::unique(coverage.duplicates.begin(), coverage.duplicates.end()),
        coverage.duplicates.end());
    rep.grids.push_back(std::move(coverage));
  }
  merged.complete = rep.complete();
  return merged;
}

ShardWork tally_shard(const ShardFile& file, const std::string& path) {
  const sim::ShardPlan plan(file.manifest.shard.count);
  ShardWork work;
  for (const auto& [grid, records] : file.records) {
    const SweepGrid* identity = file.find_grid(grid);
    const bool shared = identity != nullptr && identity->shared;
    for (const auto& [cell, record] : records) {
      const Json* metrics = record.data.find("metrics");
      const Json* series =
          metrics != nullptr ? metrics->find("telemetry") : nullptr;
      std::size_t epochs = 0;
      if (series != nullptr) {
        const TelemetrySeries parsed = telemetry_series_from_json(*series);
        epochs = parsed.epochs.size();
        if (util::json_write(telemetry_series_to_json(parsed)) !=
            util::json_write(*series)) {
          throw ConfigError(path + ": telemetry series for " + grid +
                            " cell " + std::to_string(cell) +
                            " does not round-trip byte-identically");
        }
      }
      if (shared && plan.shard_of(record.key) != file.manifest.shard.index) {
        continue;
      }
      ++work.cells;
      if (const Json* run = record.data.find("run")) {
        if (const Json* wall = run->find("wall_ms")) {
          work.wall_ms += wall->as_double();
        }
        if (const Json* attempts = run->find("attempts")) {
          const std::uint64_t n = attempts->as_u64();
          if (n > 1) work.retries += n - 1;
        }
      }
      if (series != nullptr) {
        ++work.telemetry_runs;
        work.epochs += epochs;
      }
    }
  }
  return work;
}

// --- ShardedSweep --------------------------------------------------------

namespace {

// Loads the merged file given by `flag`, refusing one produced by another
// harness or seed (its `what` would not match this invocation's).
ShardFile load_own_file(const std::string& flag, const std::string& path,
                        const SweepOptions& options, std::uint64_t seed,
                        const char* what) {
  ShardFile file = load_shard_file(path);
  const SweepManifest& m = file.manifest;
  if (m.tool != options.tool) {
    throw ConfigError(flag + " file '" + path + "' was produced by tool '" +
                      m.tool + "', not by this harness ('" + options.tool +
                      "')");
  }
  if (m.seed != seed) {
    throw ConfigError(flag + " file '" + path + "' was produced with seed " +
                      std::to_string(m.seed) + "; rerun with --seed " +
                      std::to_string(m.seed) + " (" + what +
                      " would not match)");
  }
  return file;
}

bool file_has_content(const std::string& path) {
  std::ifstream in(path);
  return in.good() && in.peek() != std::ifstream::traits_type::eof();
}

}  // namespace

ShardedSweep::ShardedSweep(core::NetworkConfig config, std::uint64_t seed,
                           SweepOptions options)
    : options_(std::move(options)), runner_(std::move(config), seed) {
  const bool sharded = options_.shard.count > 1;
  if (!options_.from_path.empty() &&
      (sharded || !options_.out_path.empty())) {
    throw ConfigError("--from cannot be combined with --shard/--out");
  }
  if (sharded && options_.out_path.empty()) {
    throw ConfigError("--shard requires --out <shard.jsonl>");
  }
  if (mode() != SweepMode::kWorker &&
      (options_.anchors_only || !options_.anchors_from.empty())) {
    throw ConfigError(
        "--anchors-only/--anchors-from apply to worker mode (--shard/--out)");
  }
  if (options_.anchors_only && !options_.anchors_from.empty()) {
    throw ConfigError("--anchors-only cannot be combined with --anchors-from");
  }
  if (options_.batch.telemetry.epoch_ps < 0) {
    throw ConfigError("--telemetry-epoch must not be negative");
  }
  if (options_.batch.telemetry.ring_capacity == 0) {
    throw ConfigError("--telemetry-ring must be at least 1");
  }
  // A live frame stream wants per-run counters even without a metrics
  // document; collection is observational either way.
  options_.batch.collect_metrics = options_.batch.collect_metrics ||
                                   !options_.metrics_path.empty() ||
                                   options_.telemetry_stream != nullptr;
  if (mode() == SweepMode::kRender) {
    trusted_ = load_own_file("--from", options_.from_path, options_, seed,
                             "tables");
  }
  if (mode() != SweepMode::kWorker) return;
  ShardFile anchors;
  if (!options_.anchors_from.empty()) {
    anchors = load_own_file("--anchors-from", options_.anchors_from, options_,
                            seed, "anchors");
  }
  out_.manifest.tool = options_.tool;
  out_.manifest.shard = options_.shard;
  out_.manifest.seed = seed;
  // An existing non-empty output resumes the shard: completed cells are
  // carried over, failed and missing ones re-run. A file from a different
  // sweep is an error, never silently clobbered.
  if (file_has_content(options_.out_path)) {
    trusted_ = load_shard_file(options_.out_path);
    const SweepManifest& m = trusted_.manifest;
    if (m.tool != options_.tool || m.seed != seed ||
        !(m.shard == options_.shard)) {
      throw ConfigError(
          "existing shard file '" + options_.out_path +
          "' belongs to a different sweep (tool " + m.tool + ", shard " +
          m.shard.to_string() + ", seed " + std::to_string(m.seed) +
          "); delete it or choose another --out to start fresh");
    }
  }
  if (options_.anchors_from.empty()) return;
  // Under --anchors-from the anchor grids come from that file alone.
  std::erase_if(trusted_.grids,
                [](const SweepGrid& grid) { return grid.shared; });
  for (SweepGrid& grid : anchors.grids) {
    if (!grid.shared || trusted_.find_grid(grid.name) != nullptr) continue;
    trusted_.records[grid.name] = std::move(anchors.records[grid.name]);
    trusted_.grids.push_back(std::move(grid));
  }
}

ShardedSweep ShardedSweep::open_or_exit(core::NetworkConfig config,
                                        std::uint64_t seed,
                                        SweepOptions options) {
  const std::string tool = options.tool;
  try {
    return ShardedSweep(std::move(config), seed, std::move(options));
  } catch (const ConfigError& error) {
    std::fprintf(stderr, "%s: %s\n", tool.c_str(), error.what());
    std::exit(2);
  }
}

BatchOptions ShardedSweep::streaming_batch(
    const std::string& name, const std::vector<std::string>& keys,
    const std::vector<std::size_t>& cells) const {
  BatchOptions batch = options_.batch;
  TelemetryStream* stream = options_.telemetry_stream;
  if (stream == nullptr) return batch;
  batch.on_run_done = [stream, name, keys, cells](
                          std::size_t index, const sim::RunOutcome& run,
                          const MetricsSnapshot* metrics) {
    const std::size_t cell = cells[index];
    emit_run_frame(*stream, name, cell, cells.size(), keys[cell], run,
                   metrics);
  };
  return batch;
}

void ShardedSweep::register_grid(const SweepGrid& grid) {
  if (out_.find_grid(grid.name) != nullptr) {
    throw ConfigError("sweep grid '" + grid.name + "' registered twice");
  }
  out_.grids.push_back(grid);
}

void ShardedSweep::record(const std::string& grid, std::size_t cell,
                          const std::string& key, const sim::RunOutcome& run,
                          Json data) {
  SweepRecord record;
  record.cell = cell;
  record.key = key;
  record.status = run_status(run);
  record.data = std::move(data);
  out_.records[grid].insert_or_assign(cell, std::move(record));
}

ShardedSweep::Resolution ShardedSweep::resolve(
    const SweepGrid& grid, const std::vector<std::string>& keys) {
  const std::size_t size = keys.size();
  Resolution cells{{}, {}, std::vector<bool>(size, true), {}};
  const bool worker = mode() == SweepMode::kWorker;
  if (worker) {
    register_grid(grid);
    const sim::ShardPlan plan(options_.shard.count);
    for (std::size_t cell = 0; cell < size; ++cell) {
      cells.owned[cell] = plan.shard_of(keys[cell]) == options_.shard.index;
    }
    cells.placeholder = "cell not owned by shard " + options_.shard.to_string();
  } else if (mode() == SweepMode::kRender) {
    cells.placeholder =
        "cell missing from --from file '" + options_.from_path +
        "' (partial merge?)";
  }
  cells.loaded = trusted_records(grid, keys, cells.owned);
  const bool want_all = mode() == SweepMode::kRun ||
                        (worker && grid.shared && !options_.anchors_only);
  for (std::size_t cell = 0; cell < size; ++cell) {
    if (cells.loaded[cell] != nullptr) {
      if (!worker) continue;
      out_.records[grid.name].emplace(cell, *cells.loaded[cell]);
      ++carried_;
    } else if (want_all || (worker && cells.owned[cell])) {
      cells.simulate.push_back(cell);
    }
  }
  executed_ += cells.simulate.size();
  return cells;
}

std::vector<const SweepRecord*> ShardedSweep::trusted_records(
    const SweepGrid& grid, const std::vector<std::string>& keys,
    const std::vector<bool>& owned) const {
  std::vector<const SweepRecord*> records(keys.size());
  if (mode() == SweepMode::kRun) return records;
  // A worker trusts its resumed --out file, except for the anchor grids an
  // --anchors-from file supplies; those it loads strictly, since their
  // results feed the construction of the downstream specs.
  const bool strict = mode() == SweepMode::kWorker && grid.shared &&
                      !options_.anchors_from.empty();
  const bool resumed = mode() == SweepMode::kWorker && !strict;
  const std::string origin =
      resumed  ? "existing shard file '" + options_.out_path + "'"
      : strict ? "--anchors-from file '" + options_.anchors_from + "'"
               : "--from file '" + options_.from_path + "'";
  const SweepGrid* held = trusted_.find_grid(grid.name);
  if (held == nullptr) {
    if (resumed) return records;
    throw ConfigError(origin + " has no grid '" + grid.name + "'");
  }
  if (!same_grid(*held, grid)) {
    if (resumed) {
      throw ConfigError(origin + " recorded grid '" + grid.name +
                        "' with a different identity; it was produced from "
                        "a different sweep configuration — delete it to "
                        "rerun");
    }
    throw ConfigError(
        origin + " grid '" + grid.name + "' (size " +
        std::to_string(held->size) + ", hash " + held->hash +
        ") does not match this invocation's grid (size " +
        std::to_string(grid.size) + ", hash " + grid.hash +
        "); was the sweep run with the same configuration?");
  }
  for (std::size_t cell = 0; cell < keys.size(); ++cell) {
    const SweepRecord* record = trusted_.find_record(grid.name, cell);
    if (record == nullptr) {
      if (!strict) continue;
      throw ConfigError(origin + " is missing grid '" + grid.name +
                        "' cell " + std::to_string(cell) +
                        " (merge every anchor shard before phase 2)");
    }
    if (record->key != keys[cell]) {
      throw ConfigError(origin + " grid '" + grid.name + "' cell " +
                        std::to_string(cell) + " records key '" +
                        record->key + "' but this invocation expects '" +
                        keys[cell] + "'");
    }
    if (resumed && (!owned[cell] || record->status == "failed")) continue;
    if (strict) {
      const sim::RunOutcome run = run_outcome_from_json(record->data.at("run"));
      if (!run.ok) {
        throw ConfigError(origin + " grid '" + grid.name + "' cell " +
                          std::to_string(cell) + " failed in phase 1 (" +
                          run.error +
                          "); re-run that anchor worker before phase 2");
      }
    }
    records[cell] = record;
  }
  return records;
}

void ShardedSweep::flush() const {
  write_shard_file(out_, options_.out_path);
}

void ShardedSweep::keep_metrics(const std::string& grid,
                                const std::string& key,
                                const MetricsSnapshot& metrics) {
  Json entry = Json::object();
  entry.set("grid", grid);
  entry.set("key", key);
  entry.set("metrics", to_json(metrics));
  metrics_runs_.push_back(std::move(entry));
  spills_total_ += metrics.dest_spills;
  spill_bytes_total_ += metrics.dest_spill_bytes;
  std::uint64_t arena_bytes = 0;
  for (const auto& pool : metrics.arena) arena_bytes += pool.reserved_bytes;
  arena_bytes_peak_ = std::max(arena_bytes_peak_, arena_bytes);
}

void ShardedSweep::write_metrics() {
  Json doc = Json::object();
  doc.set("format", "specnoc-metrics");
  doc.set("schema", std::uint64_t{1});
  doc.set("tool", options_.tool);
  doc.set("seed", runner_.seed());
  // Aggregate DestSet heap-spill count: the zero-spill-at-radix-64 claim
  // is checkable from the report alone (exact at --jobs 1, an upper
  // bound under concurrent grids).
  doc.set("dest_spills_total", spills_total_);
  doc.set("dest_spill_bytes_total", spill_bytes_total_);
  // Largest single-run arena footprint (slab reservations, all pools) —
  // the peak simulated-structure memory any one network needed.
  doc.set("arena_bytes_peak", arena_bytes_peak_);
  Json runs = Json::array();
  for (auto& entry : metrics_runs_) runs.push_back(std::move(entry));
  metrics_runs_.clear();
  doc.set("runs", std::move(runs));
  std::ofstream out(options_.metrics_path, std::ios::trunc);
  if (!out) {
    throw ConfigError("cannot write metrics file '" + options_.metrics_path +
                      "'");
  }
  out << util::json_write(doc) << "\n";
}

int ShardedSweep::finish() {
  if (!options_.metrics_path.empty()) write_metrics();
  if (mode() == SweepMode::kWorker) {
    out_.complete = true;
    flush();
    std::fprintf(stderr,
                 "[%s] shard %s: %zu cells run, %zu carried over, %zu failed "
                 "-> %s\n",
                 options_.tool.c_str(), options_.shard.to_string().c_str(),
                 executed_, carried_, failures_, options_.out_path.c_str());
  }
  return failures_ == 0 ? 0 : 1;
}

}  // namespace specnoc::stats
