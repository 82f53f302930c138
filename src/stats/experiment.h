// ExperimentRunner: runs the measurement protocols — the paper's
// saturation, latency and power (Section 5.1/5.2) plus trace replay and CMP
// co-simulation, one file pair each under stats/protocols/ — as parallel
// batch grids (the Protocol trait is in stats/protocol.h).
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "core/config.h"
#include "stats/protocol.h"
#include "stats/protocols/cmp.h"
#include "stats/protocols/latency.h"
#include "stats/protocols/power.h"
#include "stats/protocols/saturation.h"
#include "stats/protocols/workload.h"

namespace specnoc::stats {

/// Shared knobs for the batch API.
struct BatchOptions {
  /// Worker threads; 0 = hardware concurrency, 1 = inline serial execution
  /// on the calling thread (the exact serial code path).
  unsigned jobs = 0;
  /// Tries per run before reporting it failed in its outcome slot.
  unsigned max_attempts = 2;
  /// Attach a MetricsRegistry to every run and return its snapshot in the
  /// outcome. Purely observational: results are identical either way.
  bool collect_metrics = false;
  /// Live progress lines to stderr every this many ms; 0 (default) =
  /// silent. Progress goes to stderr only, so stdout tables are identical
  /// with and without it.
  unsigned progress_interval_ms = 0;
  std::string progress_label = {};  ///< prefix for progress lines
  /// Epoch-sample every run (stats/telemetry.h). Enabling this implies
  /// collect_metrics — the series rides each outcome's MetricsSnapshot.
  /// Observational only: simulated results are identical either way.
  TelemetryOptions telemetry = {};
  /// Called once per run right after it completes, from the worker thread
  /// that finished it (runs complete in nondeterministic order under
  /// jobs > 1, so the callback must be thread-safe). `metrics` is the
  /// run's snapshot when one was collected and the run succeeded, else
  /// nullptr. This is the live-streaming hook: sweep shards emit NDJSON
  /// telemetry frames through it mid-batch.
  std::function<void(std::size_t index, const sim::RunOutcome& run,
                     const MetricsSnapshot* metrics)>
      on_run_done = {};
};

/// A stateless function from plain-data specs to outcomes: run_grid<P> is
/// its one run API. Specs name their network by `arch` plus an optional
/// ArchitectureRegistry `custom` label, so a spec decoded from a shard file
/// runs exactly like the one that was encoded. Operating points relative to
/// saturation (the paper's 25% loads) are two grids: saturation first, then
/// the downstream specs at operating_rate() of its outcomes.
class ExperimentRunner {
 public:
  explicit ExperimentRunner(core::NetworkConfig config, std::uint64_t seed = 1,
                            power::EnergyModelParams energy = {});

  /// The seed runs use unless their spec carries its own.
  std::uint64_t seed() const { return seed_; }

  /// Windows used for saturation runs (shorter than latency windows; the
  /// backlogged estimator converges quickly).
  static traffic::SimWindows saturation_windows();

  /// Executes independent runs of protocol P on options.jobs worker
  /// threads (sim::ParallelRunner). Outcomes are aggregated in spec order,
  /// so results are bit-identical for any thread count. A run that throws
  /// is retried and, failing that, reported per-spec in its outcome —
  /// never process-fatal.
  template <Protocol P>
  std::vector<Outcome<P>> run_grid(const std::vector<typename P::Spec>& specs,
                                   const BatchOptions& options = {}) const;

  /// run_grid spellings that specbench/ calls by name.
  std::vector<SaturationOutcome> run_saturation_grid(
      const std::vector<SaturationSpec>& specs,
      const BatchOptions& options = {}) const {
    return run_grid<SaturationProtocol>(specs, options);
  }
  std::vector<CmpOutcome> run_cmp_grid(
      const std::vector<CmpSpec>& specs,
      const BatchOptions& options = {}) const {
    return run_grid<CmpProtocol>(specs, options);
  }

 private:
  /// Builds a spec's network from the process-wide ArchitectureRegistry,
  /// fresh for every run so runs are independent and deterministic: the
  /// entry a non-empty `custom` label names, otherwise the architecture's
  /// canonical one. `sequential` builds it with sim_threads = 1 regardless
  /// of config_.
  std::unique_ptr<noc::MessageNetwork> build_network(
      core::Architecture arch, const std::string& custom,
      bool sequential) const;

  /// The batch loop behind run_grid: runs cells [0, count) on the worker
  /// pool, handing run_cell a fresh rig for each attempt. metrics[i]
  /// receives cell i's snapshot when collected and the run succeeded.
  std::vector<sim::RunOutcome> run_cells(
      std::size_t count, const BatchOptions& options,
      std::vector<std::optional<MetricsSnapshot>>& metrics,
      const std::function<void(std::size_t, ProbeRig&)>& run_cell) const;

  core::NetworkConfig config_;
  std::uint64_t seed_;
  power::EnergyModelParams energy_;
};

template <Protocol P>
std::vector<Outcome<P>> ExperimentRunner::run_grid(
    const std::vector<typename P::Spec>& specs,
    const BatchOptions& options) const {
  std::vector<Outcome<P>> outcomes(specs.size());
  std::vector<std::optional<MetricsSnapshot>> metrics(specs.size());
  const std::vector<sim::RunOutcome> runs = run_cells(
      specs.size(), options, metrics,
      [&](std::size_t i, ProbeRig& rig) {
        const auto& spec = specs[i];
        const auto network =
            build_network(spec.arch, spec.custom, P::sequential(spec));
        outcomes[i].result = P::run(spec, {*network, seed_, energy_, rig});
      });
  // Deterministic reduction: spec order, independent of completion order.
  for (std::size_t i = 0; i < specs.size(); ++i) {
    outcomes[i].spec = specs[i];
    outcomes[i].run = runs[i];
    outcomes[i].metrics = std::move(metrics[i]);
  }
  return outcomes;
}

}  // namespace specnoc::stats
