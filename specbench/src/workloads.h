// The benchmark's workloads: fixed grids of cells built and driven through
// the simulator's public entry points (core::MotNetwork, traffic::
// TrafficDriver / cmp::CmpSystem, noc::Network::run_until / run, and the
// stats / power observers), exactly as ExperimentRunner's single-run
// workers use them.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "stats/metrics.h"

namespace specbench {

/// What one cell of a pass produced: its simulated outputs (fingerprinted)
/// and the host-side observations the ledger reports.
struct CellRecord {
  std::string name;
  bool ok = false;
  std::string error;
  std::string outputs;      ///< canonical simulated outputs
  std::string fingerprint;  ///< fnv1a64 hex of `outputs`

  double wall_s = 0.0;   ///< first build to last teardown
  double setup_s = 0.0;  ///< build + input synthesis + driver start
  double build_s = 0.0;  ///< MotNetwork constructor alone
  double run_s = 0.0;    ///< wall time inside run_until / run
  double run_thread_s = 0.0;  ///< run_s x worker threads
  double sim_ns = 0.0;   ///< simulated time advanced by the run calls
  double encode_s = 0.0;
  std::uint64_t records = 0;  ///< results encoded
  std::uint64_t events = 0;

  std::uint64_t nodes = 0;
  std::uint64_t channels = 0;
  std::uint64_t arena_reserved_bytes = 0;
  std::uint64_t spill_allocations = 0;
  std::uint64_t spill_reuses = 0;
  std::uint64_t spill_bytes = 0;

  std::vector<std::size_t> pending_samples;  ///< epoch-probe samples
  std::size_t pending_peak = 0;
  std::size_t overflow_peak = 0;

  unsigned workers = 1;
  std::uint32_t lanes = 0;  ///< 0 = sequential kernel
  std::uint64_t windows = 0;
  std::vector<std::uint64_t> lane_events;

  specnoc::stats::MetricsSnapshot snapshot;
  specnoc::stats::CmpMetrics cmp;
  std::array<std::uint64_t, 8> node_ops{};  ///< traced passes only
};

struct PassOptions {
  bool traced = false;    ///< install the timing decorators
  bool recorder = true;   ///< TrafficRecorder (plus PowerMeter on cmp cells)
  bool registry = true;   ///< MetricsRegistry
  bool epoch_probe = false;  ///< sample pending() from the epoch hook
  bool setup_only = false;   ///< build and start every cell, run nothing
  unsigned workers = 0;      ///< PDES worker threads; 0 = the cell's own
  std::size_t only_cell = std::numeric_limits<std::size_t>::max();
};

struct PassResult {
  std::vector<CellRecord> cells;
  double wall_s = 0.0;
  double synth_s = 0.0;
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Runs every cell (or options.only_cell) back to back.
  virtual PassResult run_pass(const PassOptions& options) = 0;
  /// Reference fingerprints per cell from an independent path: the
  /// library's own ExperimentRunner grid where one exists, else the same
  /// cell on one PDES worker (results are worker-count invariant).
  virtual std::vector<std::string> crosscheck() = 0;
  /// Worker threads of the workload's PDES cells (1 = sequential).
  virtual unsigned workers() const = 0;
};

/// Throws std::invalid_argument naming the valid workloads.
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed);

}  // namespace specbench
