// Parallel execution of independent simulation runs.
//
// Every run in an experiment grid is an isolated simulation — its own
// Scheduler, Rng streams, and network are constructed inside the job — so
// runs can execute on any thread in any order: workers claim the next
// unstarted run index from one shared atomic cursor. Determinism is preserved by
// construction: outcomes are collected into a slot keyed by run index,
// never by completion order, so aggregated results are bit-identical to
// the serial path regardless of thread count. With jobs() == 1 the runner
// executes every run inline on the calling thread, in index order (no
// threads are spawned).
//
// Failure policy: a run that throws is retried up to Options::max_attempts
// times and, if it keeps throwing, reported failed in its own outcome slot.
// One bad run never aborts the batch or the process.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace specnoc::sim {

/// Worker count used when Options::jobs == 0: the hardware concurrency,
/// at least 1.
unsigned default_jobs();

/// Per-run measurement data, surfaced in the harnesses' output tables.
struct RunTelemetry {
  double wall_ms = 0.0;  ///< wall time of the last attempt
  /// Scheduler events the run executed (whatever the job returned).
  std::uint64_t events_executed = 0;
  unsigned attempts = 0;  ///< 1 = succeeded on the first try
};

struct RunOutcome {
  bool ok = false;
  std::string error;  ///< what() of the last failure when !ok
  RunTelemetry telemetry;
};

struct RunnerOptions {
  unsigned jobs = 0;          ///< worker threads; 0 = default_jobs()
  unsigned max_attempts = 2;  ///< tries per run before reporting failure
  /// Called once per run right after its final attempt resolves (ok or
  /// failed), from whichever worker thread finished it — the live
  /// streaming hook (stats::TelemetryStream frames go out through this
  /// mid-batch, before the batch returns). Must be thread-safe; runs
  /// complete in nondeterministic order under jobs > 1.
  std::function<void(std::size_t index, const RunOutcome& outcome)>
      on_run_done = {};
};

class ParallelRunner {
 public:
  using Options = RunnerOptions;

  explicit ParallelRunner(Options options = {});

  unsigned jobs() const { return jobs_; }

  /// One run: executes simulation `index` and returns the number of
  /// scheduler events it executed (telemetry only; return 0 if unknown).
  /// Must be safe to call concurrently for distinct indices, and must not
  /// share mutable state between indices (each run builds its own world).
  /// On retry the job is simply invoked again, so any per-run state it
  /// creates must be re-created from scratch inside the call.
  using Job = std::function<std::uint64_t(std::size_t index)>;

  /// Executes runs [0, count), each exactly once (plus retries), and
  /// returns their outcomes indexed by run.
  std::vector<RunOutcome> run(std::size_t count, const Job& job) const;

 private:
  unsigned jobs_;
  unsigned max_attempts_;
  std::function<void(std::size_t, const RunOutcome&)> on_run_done_;
};

}  // namespace specnoc::sim
