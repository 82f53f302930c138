#include "sim/parallel_runner.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <thread>

namespace specnoc::sim {

unsigned default_jobs() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

RunOutcome execute(const ParallelRunner::Job& job, std::size_t index,
                   unsigned max_attempts) {
  RunOutcome outcome;
  for (unsigned attempt = 1; attempt <= max_attempts; ++attempt) {
    outcome.telemetry.attempts = attempt;
    const auto start = Clock::now();
    try {
      outcome.telemetry.events_executed = job(index);
      outcome.telemetry.wall_ms = ms_since(start);
      outcome.ok = true;
      return outcome;
    } catch (const std::exception& e) {
      outcome.telemetry.wall_ms = ms_since(start);
      outcome.error = e.what();
    } catch (...) {
      outcome.telemetry.wall_ms = ms_since(start);
      outcome.error = "unknown exception";
    }
  }
  return outcome;
}

}  // namespace

ParallelRunner::ParallelRunner(Options options)
    : jobs_(options.jobs == 0 ? default_jobs() : options.jobs),
      max_attempts_(options.max_attempts == 0 ? 1 : options.max_attempts),
      on_run_done_(std::move(options.on_run_done)) {}

std::vector<RunOutcome> ParallelRunner::run(std::size_t count,
                                            const Job& job) const {
  std::vector<RunOutcome> outcomes(count);
  if (count == 0) return outcomes;

  // Each worker claims the next unstarted index until none is left. Every
  // outcome lands in its own index's slot, so the order in which runs are
  // handed out never shows in the result. The calling thread is one of the
  // workers, so with one worker every run executes inline, in index order.
  std::atomic<std::size_t> next{0};
  auto worker_loop = [&] {
    for (std::size_t index = next.fetch_add(1); index < count;
         index = next.fetch_add(1)) {
      // Distinct vector slots: no synchronization needed on the write.
      outcomes[index] = execute(job, index, max_attempts_);
      if (on_run_done_) on_run_done_(index, outcomes[index]);
    }
  };

  const auto workers =
      static_cast<unsigned>(std::min<std::size_t>(jobs_, count));
  std::vector<std::thread> threads;
  threads.reserve(workers - 1);
  for (unsigned w = 1; w < workers; ++w) {
    threads.emplace_back(worker_loop);
  }
  worker_loop();
  for (auto& thread : threads) thread.join();
  return outcomes;
}

}  // namespace specnoc::sim
