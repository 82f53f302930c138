// E10 — large-radix scaling of the addressing redesign and the arena
// memory layout.
//
// The DestSet API (DESIGN.md §10) claims the 64-endpoint ceiling fell for
// free: radix <= 64 keeps the single-word inline representation (zero
// allocations on the hot path), and larger grids spill to pooled heap words
// with cost proportional to the words actually touched. The NetworkArena
// (DESIGN.md §11) claims large-radix construction stays affordable: every
// node and channel lives in per-type slabs instead of individual heap
// objects. This harness is the proof for both: it drives backlogged
// saturation at 8x8 through 32x32 (and optionally 64x64) and records, per
// cell,
//   * scheduler events/s (the simulator's throughput figure of merit),
//   * DestSet raw spill allocations (must be 0 for radix <= 64; bounded by
//     the pool high-water mark above that),
//   * the network's arena footprint (slab reservations, all pools),
//   * the process peak RSS (getrusage ru_maxrss; cells run in ascending
//     radix order, so each cell's value is the high-water mark after it),
//   * and, for the partitioned cells at the largest radix, model_speedup:
//     total events / the largest per-worker event share (the
//     machine-independent speedup bound; wall time on a shared builder is
//     not it).
// With --json-out the grid is written as one JSON document — committed as
// BENCH_radix.json at the repo root and refreshed with
// bench/run_radix_bench.sh.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <vector>

#include "bench_common.h"
#include "core/mot_network.h"
#include "noc/dest_set.h"
#include "sim/partitioned_scheduler.h"
#include "stats/recorder.h"
#include "traffic/driver.h"
#include "util/units.h"

using namespace specnoc;
using namespace specnoc::literals;
using specnoc::bench::HarnessOptions;

namespace {

long peak_rss_kb() {
  struct rusage usage = {};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss;  // KiB on Linux
}

struct CellResult {
  std::uint64_t events = 0;
  double wall_ms = 0.0;
  double events_per_sec = 0.0;
  double delivered_flits_per_ns = 0.0;  ///< per source
  std::uint64_t spill_allocations = 0;
  std::uint64_t spill_bytes = 0;
  std::uint64_t spill_reuses = 0;
  std::uint64_t arena_reserved_bytes = 0;
  std::uint64_t arena_object_bytes = 0;
  double model_speedup = 0.0;  ///< 0 when the cell ran sequentially
  long peak_rss_kb = 0;
};

/// One backlogged saturation run, windows scaled for a single-core
/// builder (the absolute rates are what matter, not paper windows).
CellResult run_cell(std::uint32_t n, core::Architecture arch,
                    traffic::BenchmarkId bench, std::uint64_t seed,
                    unsigned sim_threads) {
  core::NetworkConfig cfg;
  cfg.n = n;
  cfg.sim_threads = sim_threads;
  core::MotNetwork network(arch, cfg);
  const auto pattern = traffic::make_benchmark(bench, n);
  traffic::DriverConfig driver_cfg;
  driver_cfg.mode = traffic::InjectionMode::kBacklogged;
  driver_cfg.seed = seed;
  traffic::TrafficDriver driver(network, *pattern, driver_cfg);
  stats::TrafficRecorder recorder(network.net().packets());
  network.net().hooks().traffic = &recorder;

  const auto spills_before = noc::DestSet::spill_allocations();
  const auto spill_bytes_before = noc::DestSet::spill_bytes();
  const auto spill_reuses_before = noc::DestSet::spill_reuses();
  const auto start = std::chrono::steady_clock::now();
  driver.start();
  auto& net = network.net();
  net.run_until(100_ns);  // warmup
  recorder.open_window(net.now());
  net.run_until(400_ns);  // measure window end
  recorder.close_window(net.now());
  const auto stop = std::chrono::steady_clock::now();

  CellResult result;
  result.events = net.executed();
  result.wall_ms =
      std::chrono::duration<double, std::milli>(stop - start).count();
  result.events_per_sec =
      result.wall_ms > 0.0
          ? static_cast<double>(result.events) / (result.wall_ms / 1000.0)
          : 0.0;
  result.delivered_flits_per_ns = recorder.delivered_flits_per_ns(n);
  result.spill_allocations =
      noc::DestSet::spill_allocations() - spills_before;
  result.spill_bytes = noc::DestSet::spill_bytes() - spill_bytes_before;
  result.spill_reuses = noc::DestSet::spill_reuses() - spill_reuses_before;
  result.arena_reserved_bytes = net.arena().total_reserved_bytes();
  result.arena_object_bytes = net.arena().total_bytes();
  if (const sim::PartitionedScheduler* psched = net.partitioned_scheduler();
      psched != nullptr && sim_threads > 1) {
    // Static contiguous lane blocks, as the worker pool assigns them: the
    // largest per-worker event share is the per-window critical path.
    const std::vector<std::uint64_t> lane_events = psched->per_lane_executed();
    const std::uint32_t lanes = psched->lanes();
    std::uint64_t max_share = 0;
    for (std::uint32_t w = 0; w < sim_threads; ++w) {
      const std::uint32_t first = w * lanes / sim_threads;
      const std::uint32_t last = (w + 1) * lanes / sim_threads;
      std::uint64_t share = 0;
      for (std::uint32_t lane = first; lane < last; ++lane) {
        share += lane_events[lane];
      }
      max_share = std::max(max_share, share);
    }
    if (max_share > 0) {
      result.model_speedup =
          static_cast<double>(result.events) / static_cast<double>(max_share);
    }
  }
  result.peak_rss_kb = peak_rss_kb();
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_out;
  unsigned max_radix = 1024;
  unsigned partitioned_threads = 4;
  const HarnessOptions opts = specnoc::bench::parse_args(
      argc, argv, "bench_radix",
      "E10: events/s, arena footprint and peak RSS across radixes 64..1024 "
      "(or 4096) — the cost profile of the multi-word DestSet addressing "
      "and the arena memory layout.",
      specnoc::bench::Flags::kCommon, [&](util::CliParser& cli) {
        cli.add_string("--json-out", &json_out,
                       "write the grid as one JSON document (BENCH_radix "
                       "format) to this path");
        cli.add_unsigned("--max-radix", &max_radix,
                         "largest endpoint count to run (default 1024; "
                         "4096 exercises the full DestSet range)");
        cli.add_unsigned("--sim-threads", &partitioned_threads,
                         "partitioned-kernel worker threads for the "
                         "largest radix's extra cells (default 4)");
      });

  std::vector<std::uint32_t> radixes;
  for (std::uint32_t n = 64; n <= max_radix; n *= 4) radixes.push_back(n);
  // The largest radix also runs under the partitioned kernel: same
  // simulation (byte-identical results), different execution engine.
  const unsigned kPartitionedThreads =
      partitioned_threads > 1 ? partitioned_threads : 4;
  constexpr core::Architecture kArch =
      core::Architecture::kOptHybridSpeculative;
  constexpr traffic::BenchmarkId kBenches[] = {
      traffic::BenchmarkId::kUniformRandom,
      traffic::BenchmarkId::kMulticast10};

  Table table({"Endpoints", "Benchmark", "Threads", "Events", "Wall (ms)",
               "Events/s", "Delivered (flits/ns/src)", "DestSet spills",
               "Model speedup", "Arena (MiB)", "Peak RSS (KiB)"});
  util::Json cells = util::Json::array();
  for (const auto n : radixes) {
    std::vector<unsigned> thread_counts = {1};
    if (n == radixes.back()) thread_counts.push_back(kPartitionedThreads);
    for (const auto bench : kBenches) {
      for (const unsigned sim_threads : thread_counts) {
        const auto cell_result =
            run_cell(n, kArch, bench, opts.seed, sim_threads);
        table.add_row(
            {cell(static_cast<long long>(n)), traffic::to_string(bench),
             cell(static_cast<long long>(sim_threads)),
             cell(static_cast<long long>(cell_result.events)),
             cell(cell_result.wall_ms, 1),
             cell(cell_result.events_per_sec, 0),
             cell(cell_result.delivered_flits_per_ns, 3),
             cell(static_cast<long long>(cell_result.spill_allocations)),
             cell(cell_result.model_speedup, 2),
             cell(static_cast<double>(cell_result.arena_reserved_bytes) /
                      (1024.0 * 1024.0),
                  1),
             cell(static_cast<long long>(cell_result.peak_rss_kb))});
        util::Json record = util::Json::object();
        record.set("endpoints", n);
        record.set("arch", core::to_string(kArch));
        record.set("bench", traffic::to_string(bench));
        record.set("sim_threads", sim_threads);
        record.set("events", cell_result.events);
        record.set("wall_ms", cell_result.wall_ms);
        record.set("events_per_sec", cell_result.events_per_sec);
        record.set("delivered_flits_per_ns",
                   cell_result.delivered_flits_per_ns);
        record.set("destset_spill_allocations",
                   cell_result.spill_allocations);
        record.set("destset_spill_bytes", cell_result.spill_bytes);
        record.set("destset_spill_reuses", cell_result.spill_reuses);
        record.set("arena_reserved_bytes", cell_result.arena_reserved_bytes);
        record.set("arena_object_bytes", cell_result.arena_object_bytes);
        if (sim_threads > 1) {
          record.set("model_speedup", cell_result.model_speedup);
        }
        record.set("peak_rss_kb",
                   static_cast<std::uint64_t>(cell_result.peak_rss_kb));
        cells.push_back(std::move(record));
        // The inline-word claim, enforced: radix <= 64 must not allocate.
        if (n <= noc::DestSet::kWordBits &&
            cell_result.spill_allocations != 0) {
          std::fprintf(stderr,
                       "bench_radix: %u endpoints spilled %llu DestSet "
                       "allocations (expected 0)\n",
                       n,
                       static_cast<unsigned long long>(
                           cell_result.spill_allocations));
          return 1;
        }
      }
    }
  }
  // The pooled-spill claim, enforced: with pooling on, a raw allocation
  // happens only when every previously allocated block is live, so the
  // process-wide raw-allocation count can never exceed the high-water mark
  // of simultaneously outstanding blocks. Unbounded raw spills (a leak or
  // a pool bypass) break this immediately.
  if (noc::DestSet::spill_pooling() &&
      noc::DestSet::spill_allocations() > noc::DestSet::spill_high_water()) {
    std::fprintf(
        stderr,
        "bench_radix: %llu raw spill allocations exceed the outstanding "
        "high-water mark %llu — the spill pool is not bounding allocations\n",
        static_cast<unsigned long long>(noc::DestSet::spill_allocations()),
        static_cast<unsigned long long>(noc::DestSet::spill_high_water()));
    return 1;
  }
  specnoc::bench::emit(
      table, "E10: saturation throughput across radix (OptHybridSpeculative)",
      opts);
  specnoc::bench::note(
      "Peak RSS is the process high-water mark; cells run in ascending "
      "radix order so each value is the watermark after that cell. "
      "Model speedup (partitioned cells) is total events over the largest "
      "per-worker share — the machine-independent bound.");

  if (!json_out.empty()) {
    util::Json doc = util::Json::object();
    doc.set("format", "specnoc-bench-radix");
    doc.set("schema", 2);
    doc.set("arch", core::to_string(kArch));
    doc.set("windows", [] {
      util::Json windows = util::Json::object();
      windows.set("warmup_ns", 100);
      windows.set("measure_ns", 300);
      return windows;
    }());
    doc.set("destset_spill_pool", [] {
      util::Json pool = util::Json::object();
      pool.set("pooling", noc::DestSet::spill_pooling());
      pool.set("raw_allocations", noc::DestSet::spill_allocations());
      pool.set("raw_bytes", noc::DestSet::spill_bytes());
      pool.set("reuses", noc::DestSet::spill_reuses());
      pool.set("outstanding_high_water", noc::DestSet::spill_high_water());
      return pool;
    }());
    doc.set("cells", std::move(cells));
    std::ofstream out(json_out);
    out << util::json_write(doc) << "\n";
    if (!out) {
      std::fprintf(stderr, "bench_radix: cannot write %s\n",
                   json_out.c_str());
      return 1;
    }
  }
  return 0;
}
