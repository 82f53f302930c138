#include "stats/experiment.h"

#include <cstdio>
#include <memory>
#include <mutex>
#include <string>

#include "core/mot_network.h"
#include "core/registry.h"

namespace specnoc::stats {

namespace {

// Shared progress annotation: accumulates the PDES shape of completed
// partitioned runs so --progress lines show lane occupancy while a
// partitioned grid executes. update() is called from worker threads.
class PdesNote {
 public:
  void update(const PdesMetrics& pdes) {
    if (pdes.empty()) return;
    std::uint64_t idle = 0;
    for (const std::uint64_t windows : pdes.lane_idle_windows) {
      idle += windows;
    }
    const std::lock_guard<std::mutex> lock(mutex_);
    ++runs_;
    lanes_ = pdes.lanes;
    windows_ += pdes.windows;
    idle_lane_windows_ += idle;
  }

  std::string text() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (runs_ == 0) return {};
    // Occupancy = fraction of (window x lane) slots that executed events.
    const double slots =
        static_cast<double>(windows_) * static_cast<double>(lanes_);
    const double busy =
        slots > 0.0
            ? 100.0 * (slots - static_cast<double>(idle_lane_windows_)) /
                  slots
            : 0.0;
    char buf[96];
    std::snprintf(buf, sizeof buf,
                  "pdes %llu runs x %u lanes, %llu windows, %.0f%% busy",
                  static_cast<unsigned long long>(runs_), lanes_,
                  static_cast<unsigned long long>(windows_), busy);
    return buf;
  }

 private:
  mutable std::mutex mutex_;
  std::uint64_t runs_ = 0;
  std::uint32_t lanes_ = 0;
  std::uint64_t windows_ = 0;
  std::uint64_t idle_lane_windows_ = 0;
};

}  // namespace

ExperimentRunner::ExperimentRunner(core::NetworkConfig config,
                                   std::uint64_t seed,
                                   power::EnergyModelParams energy)
    : config_(std::move(config)), seed_(seed), energy_(energy) {}

NetworkFactory ExperimentRunner::network_for(core::Architecture arch,
                                             const NetworkFactory& factory,
                                             const std::string& custom,
                                             bool sequential) const {
  if (factory) return factory;
  core::NetworkConfig config = sequential ? config_.sequential() : config_;
  if (!custom.empty()) {
    return [custom, config] {
      return core::ArchitectureRegistry::global().build(custom, config);
    };
  }
  return [arch, config] {
    return std::make_unique<core::MotNetwork>(arch, config);
  };
}

std::vector<sim::RunOutcome> ExperimentRunner::run_cells(
    std::size_t count, const BatchOptions& options,
    std::vector<std::optional<MetricsSnapshot>>& metrics,
    const std::function<void(std::size_t, ProbeRig&)>& run_cell) const {
  const bool collect = options.collect_metrics || options.telemetry.enabled();
  sim::RunnerOptions runner;
  runner.jobs = options.jobs;
  runner.max_attempts = options.max_attempts;
  runner.progress_interval_ms = options.progress_interval_ms;
  runner.progress_label = options.progress_label;
  const auto pdes_note = std::make_shared<PdesNote>();
  if (options.progress_interval_ms > 0) {
    runner.progress_note = [pdes_note] { return pdes_note->text(); };
  }
  if (options.on_run_done) {
    runner.on_run_done = [&metrics, &options](std::size_t i,
                                              const sim::RunOutcome& run) {
      options.on_run_done(i, run, metrics[i] ? &*metrics[i] : nullptr);
    };
  }
  const sim::ParallelRunner pool(std::move(runner));
  std::vector<sim::RunOutcome> runs = pool.run(count, [&](std::size_t i) {
    ProbeRig rig(collect, options.telemetry);
    run_cell(i, rig);
    if (collect) metrics[i] = rig.snapshot();
    pdes_note->update(rig.pdes());
    return rig.events();
  });
  for (std::size_t i = 0; i < count; ++i) {
    if (!runs[i].ok) metrics[i].reset();
  }
  return runs;
}

}  // namespace specnoc::stats
