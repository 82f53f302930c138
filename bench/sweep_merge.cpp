// sweep_merge: combine shard files produced by harness --shard workers.
//
// Validates that every input belongs to the same sweep (schema version,
// tool, seed, shard count, per-grid spec-key hashes), merges the outcomes
// in spec order, and writes one merged JSONL file the harness can render
// with --from. The coverage report (missing cells, duplicates, failures)
// goes to stderr; exit code 0 means the merge is complete, 3 means it is
// valid but has holes (a worker is still missing), 2 means the inputs do
// not belong together.
//
//   bench_table1_throughput --shard 0/3 --out s0.jsonl   # on machine A
//   bench_table1_throughput --shard 1/3 --out s1.jsonl   # on machine B
//   bench_table1_throughput --shard 2/3 --out s2.jsonl   # on machine C
//   sweep_merge --out merged.jsonl s0.jsonl s1.jsonl s2.jsonl
//   bench_table1_throughput --from merged.jsonl          # the tables
//
// --follow FILE tails a live NDJSON telemetry stream (harness
// --telemetry-out) instead of merging: one rendered line per completed run
// as frames arrive, with a k/N count per grid, and the sweep's totals on
// the end frame (stats::FollowView). --once renders what is already in the
// file and exits; --poll-ms sets the tail poll interval.
// A malformed frame exits 2 with an error naming FILE:line.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "stats/sweep.h"
#include "stats/telemetry.h"
#include "util/cli.h"
#include "util/error.h"
#include "util/fswait.h"
#include "util/json.h"

namespace {

/// How many --poll-ms intervals follow_stream waits for a stream file
/// that does not exist yet (the harness usually starts a beat after the
/// tail does). 120 polls at the default 500 ms = one minute.
constexpr unsigned kAppearPolls = 120;

/// Tails an NDJSON telemetry stream. Only complete lines (newline-
/// terminated) are parsed — a frame mid-write is left for the next poll.
/// Returns 0 after the end frame, 3 when --once hit EOF before it.
int follow_stream(const std::string& path, bool once, unsigned poll_ms) {
  const bool from_stdin = path == "-";
  std::ifstream file;
  if (!from_stdin) {
    // A not-yet-created file is the normal start-order race, not an error:
    // poll until the writer creates it. --once keeps the immediate check
    // (render what exists *now*), and a genuinely absent file still fails,
    // just after the bounded wait.
    const unsigned budget_ms = once ? 0 : kAppearPolls * std::max(poll_ms, 1u);
    if (!specnoc::util::wait_for_file(path, poll_ms, budget_ms)) {
      throw specnoc::ConfigError(
          "cannot read telemetry stream '" + path + "' (waited " +
          std::to_string(budget_ms) + " ms for it to appear)");
    }
    file.open(path);
    if (!file) {
      throw specnoc::ConfigError("cannot read telemetry stream '" + path +
                                 "'");
    }
  }
  std::istream& in = from_stdin ? std::cin : file;

  specnoc::stats::FollowView view;
  std::string line;
  std::size_t line_no = 0;
  while (!view.done()) {
    if (!std::getline(in, line)) {
      if (from_stdin || once) break;
      in.clear();
      std::this_thread::sleep_for(std::chrono::milliseconds(poll_ms));
      continue;
    }
    if (in.eof()) {
      // Partial trailing line (no newline yet): rewind to its start and
      // wait for the writer to finish it.
      if (from_stdin || once) break;
      in.clear();
      in.seekg(-static_cast<std::streamoff>(line.size()), std::ios::cur);
      std::this_thread::sleep_for(std::chrono::milliseconds(poll_ms));
      continue;
    }
    ++line_no;
    try {
      std::fputs(
          view.render(specnoc::stats::telemetry_frame_parse(line)).c_str(),
          stdout);
      std::fflush(stdout);
    } catch (const specnoc::ConfigError& error) {
      throw specnoc::ConfigError(path + ":" + std::to_string(line_no) + ": " +
                                 error.what());
    }
  }
  return view.done() ? 0 : 3;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace specnoc;

  std::string out_path;
  std::vector<std::string> shard_paths;
  bool follow = false;
  bool once = false;
  unsigned poll_ms = 500;

  util::CliParser cli(
      "sweep_merge",
      "Validate and merge shard files from a sharded design-space sweep, "
      "or tail a live telemetry stream with --follow.");
  cli.add_string("--out", &out_path,
                 "merged JSONL output path (required unless --follow)");
  cli.add_flag("--follow", &follow,
               "tail an NDJSON telemetry stream (harness --telemetry-out; "
               "'-' = stdin) and render one line per completed run");
  cli.add_flag("--once", &once,
               "with --follow: render the frames already present, then exit "
               "instead of waiting for the end frame");
  cli.add_unsigned("--poll-ms", &poll_ms,
                   "with --follow: tail poll interval in ms; also sizes the "
                   "wait for a not-yet-created stream file (120 polls)");
  cli.add_positional_list("shard.jsonl", &shard_paths,
                          "shard files produced by harness --shard workers "
                          "(with --follow: one telemetry stream file)");
  cli.parse_or_exit(argc, argv);

  try {
    if (follow) {
      if (shard_paths.size() != 1) {
        throw util::UsageError("--follow takes exactly one stream file");
      }
      if (!out_path.empty()) {
        throw util::UsageError("--follow cannot be combined with --out");
      }
      return follow_stream(shard_paths[0], once, poll_ms);
    }
    if (out_path.empty()) {
      throw util::UsageError("--out is required");
    }
    if (shard_paths.empty()) {
      throw util::UsageError("no shard files given");
    }

    std::vector<stats::ShardFile> inputs;
    inputs.reserve(shard_paths.size());
    for (const auto& path : shard_paths) {
      inputs.push_back(stats::load_shard_file(path));
    }

    // Each shard line counts what that worker ran: an anchor cell under
    // the shard that owns it, even though every phase-2 file carries a
    // copy of the whole anchor grid.
    stats::ShardWork total;
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      const stats::ShardWork work =
          stats::tally_shard(inputs[i], shard_paths[i]);
      std::fprintf(stderr, "shard %s: %zu cell(s), %.1f ms run wall time, "
                   "%llu retried attempt(s)\n",
                   shard_paths[i].c_str(), work.cells, work.wall_ms,
                   static_cast<unsigned long long>(work.retries));
      total.cells += work.cells;
      total.wall_ms += work.wall_ms;
      total.retries += work.retries;
      total.telemetry_runs += work.telemetry_runs;
      total.epochs += work.epochs;
    }
    std::fprintf(stderr, "all shards: %zu cell(s), %.1f ms run wall time, "
                 "%llu retried attempt(s)\n",
                 total.cells, total.wall_ms,
                 static_cast<unsigned long long>(total.retries));
    if (total.telemetry_runs > 0) {
      std::fprintf(stderr, "telemetry: %zu cell(s) carry an epoch series "
                   "(%llu epochs total, validated byte-identical)\n",
                   total.telemetry_runs,
                   static_cast<unsigned long long>(total.epochs));
    }

    stats::MergeReport report;
    const stats::ShardFile merged = stats::merge_shards(inputs, &report);
    stats::write_shard_file(merged, out_path);

    std::fprintf(stderr, "merged %zu shard file(s) of tool '%s' (seed %llu) "
                 "into %s\n",
                 shard_paths.size(), merged.manifest.tool.c_str(),
                 static_cast<unsigned long long>(merged.manifest.seed),
                 out_path.c_str());
    std::fputs(report.summary().c_str(), stderr);

    return report.complete() ? 0 : 3;
  } catch (const util::UsageError& error) {
    std::fprintf(stderr, "sweep_merge: %s\n", error.what());
    std::fputs(cli.usage().c_str(), stderr);
    return 2;
  } catch (const ConfigError& error) {
    std::fprintf(stderr, "sweep_merge: %s\n", error.what());
    return 2;
  }
}
