#include "stats/experiment.h"

#include <memory>

#include "core/registry.h"

namespace specnoc::stats {

ExperimentRunner::ExperimentRunner(core::NetworkConfig config,
                                   std::uint64_t seed,
                                   power::EnergyModelParams energy)
    : config_(std::move(config)), seed_(seed), energy_(energy) {}

std::unique_ptr<noc::MessageNetwork> ExperimentRunner::build_network(
    core::Architecture arch, const std::string& custom,
    bool sequential) const {
  const core::NetworkConfig config =
      sequential ? config_.sequential() : config_;
  return core::ArchitectureRegistry::global().build(
      custom.empty() ? core::to_string(arch) : custom, config);
}

std::vector<sim::RunOutcome> ExperimentRunner::run_cells(
    std::size_t count, const BatchOptions& options,
    std::vector<std::optional<MetricsSnapshot>>& metrics,
    const std::function<void(std::size_t, ProbeRig&)>& run_cell) const {
  const bool collect = options.collect_metrics || options.telemetry.enabled();
  sim::RunnerOptions runner;
  runner.jobs = options.jobs;
  runner.max_attempts = options.max_attempts;
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
    return rig.events();
  });
  for (std::size_t i = 0; i < count; ++i) {
    if (!runs[i].ok) metrics[i].reset();
  }
  return runs;
}

}  // namespace specnoc::stats
