// ParallelRunner: determinism and failure-isolation regression suite.
//
// The contract under test: a batch of independent runs produces outcomes
// keyed by run index, byte-identical for any --jobs value (1 thread, N
// threads, or repeated executions), and a run that throws is retried and
// then reported in its own outcome slot without poisoning the batch.
#include <atomic>
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "sim/parallel_runner.h"
#include "stats/experiment.h"
#include "util/error.h"

namespace specnoc {
namespace {

using sim::ParallelRunner;
using sim::RunOutcome;

TEST(ParallelRunnerTest, DefaultJobsIsAtLeastOne) {
  EXPECT_GE(sim::default_jobs(), 1u);
  EXPECT_EQ(ParallelRunner({.jobs = 0}).jobs(), sim::default_jobs());
  EXPECT_EQ(ParallelRunner({.jobs = 3}).jobs(), 3u);
}

TEST(ParallelRunnerTest, ExecutesEveryIndexExactlyOnce) {
  constexpr std::size_t kCount = 97;
  for (const unsigned jobs : {1u, 4u}) {
    std::vector<std::atomic<int>> hits(kCount);
    ParallelRunner pool({.jobs = jobs});
    const auto outcomes = pool.run(kCount, [&](std::size_t i) {
      hits[i].fetch_add(1, std::memory_order_relaxed);
      return std::uint64_t{i};
    });
    ASSERT_EQ(outcomes.size(), kCount);
    for (std::size_t i = 0; i < kCount; ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "index " << i << ", jobs " << jobs;
      EXPECT_TRUE(outcomes[i].ok);
      EXPECT_EQ(outcomes[i].telemetry.events_executed, i);
      EXPECT_EQ(outcomes[i].telemetry.attempts, 1u);
    }
  }
}

TEST(ParallelRunnerTest, ResultsIdenticalAcrossThreadCounts) {
  constexpr std::size_t kCount = 64;
  auto run_with = [&](unsigned jobs) {
    std::vector<std::uint64_t> results(kCount, 0);
    ParallelRunner pool({.jobs = jobs});
    pool.run(kCount, [&](std::size_t i) {
      // A deterministic function of the index alone, as every simulation
      // run is of its spec.
      std::uint64_t h = 0x9e3779b97f4a7c15ull * (i + 1);
      h ^= h >> 31;
      results[i] = h;
      return h;
    });
    return results;
  };
  const auto serial = run_with(1);
  EXPECT_EQ(serial, run_with(4));
  EXPECT_EQ(serial, run_with(4));  // and across repeated executions
}

TEST(ParallelRunnerTest, ThrowingRunIsIsolatedAndRetried) {
  constexpr std::size_t kCount = 8;
  for (const unsigned jobs : {1u, 4u}) {
    ParallelRunner pool({.jobs = jobs, .max_attempts = 3});
    const auto outcomes = pool.run(kCount, [&](std::size_t i) {
      if (i == 3) throw ConfigError("bad spec 3");
      return std::uint64_t{1};
    });
    ASSERT_EQ(outcomes.size(), kCount);
    for (std::size_t i = 0; i < kCount; ++i) {
      if (i == 3) {
        EXPECT_FALSE(outcomes[i].ok);
        EXPECT_NE(outcomes[i].error.find("bad spec 3"), std::string::npos);
        EXPECT_EQ(outcomes[i].telemetry.attempts, 3u);
      } else {
        EXPECT_TRUE(outcomes[i].ok) << "run " << i << " poisoned by run 3";
        EXPECT_EQ(outcomes[i].telemetry.attempts, 1u);
      }
    }
  }
}

TEST(ParallelRunnerTest, TransientFailureSucceedsOnRetry) {
  std::atomic<int> first_attempts{0};
  ParallelRunner pool({.jobs = 1, .max_attempts = 2});
  const auto outcomes = pool.run(4, [&](std::size_t i) {
    if (i == 2 && first_attempts.fetch_add(1) == 0) {
      throw std::runtime_error("transient");
    }
    return std::uint64_t{7};
  });
  EXPECT_TRUE(outcomes[2].ok);
  EXPECT_EQ(outcomes[2].telemetry.attempts, 2u);
  EXPECT_EQ(outcomes[2].telemetry.events_executed, 7u);
}

// ---------------------------------------------------------------------------
// Determinism of the stats-layer batch APIs: the same grid of real
// simulation runs must aggregate to bit-identical results for --jobs 1,
// --jobs 4, and repeated executions.

std::vector<stats::LatencySpec> small_grid() {
  using core::Architecture;
  const traffic::SimWindows windows{.warmup = 100'000, .measure = 300'000};
  std::vector<stats::LatencySpec> specs;
  for (const auto arch : {Architecture::kBasicNonSpeculative,
                          Architecture::kOptHybridSpeculative}) {
    for (const auto bench : {traffic::BenchmarkId::kUniformRandom,
                             traffic::BenchmarkId::kMulticast5}) {
      specs.push_back({.arch = arch,
                       .bench = bench,
                       .injected_flits_per_ns = 0.05,
                       .windows = windows,
                       .seed = 0,
                       .custom = {}});
    }
  }
  return specs;
}

bool bitwise_equal(const stats::LatencyResult& a,
                   const stats::LatencyResult& b) {
  return std::memcmp(&a, &b, sizeof(a)) == 0;
}

TEST(BatchDeterminismTest, LatencySweepIdenticalForAnyJobCount) {
  core::NetworkConfig cfg;
  cfg.n = 4;
  const stats::ExperimentRunner runner(cfg, /*seed=*/9);
  const auto specs = small_grid();

  using stats::LatencyProtocol;
  const auto serial = runner.run_grid<LatencyProtocol>(specs, {.jobs = 1});
  const auto parallel = runner.run_grid<LatencyProtocol>(specs, {.jobs = 4});
  const auto repeat = runner.run_grid<LatencyProtocol>(specs, {.jobs = 4});
  ASSERT_EQ(serial.size(), specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    ASSERT_TRUE(serial[i].run.ok);
    EXPECT_GT(serial[i].result.messages_measured, 0u);
    EXPECT_TRUE(bitwise_equal(serial[i].result, parallel[i].result))
        << "spec " << i << ": jobs=4 diverged from jobs=1";
    EXPECT_TRUE(bitwise_equal(serial[i].result, repeat[i].result))
        << "spec " << i << ": repeated run diverged";
  }
}

TEST(BatchDeterminismTest, SaturationGridIdenticalForAnyJobCount) {
  core::NetworkConfig cfg;
  cfg.n = 4;
  std::vector<stats::SaturationSpec> specs;
  for (const auto arch : {core::Architecture::kBaseline,
                          core::Architecture::kOptAllSpeculative}) {
    specs.push_back({.arch = arch,
                     .bench = traffic::BenchmarkId::kMulticastStatic,
                     .seed = 0,
                     .custom = {}});
  }
  stats::ExperimentRunner a(cfg, 9), b(cfg, 9);
  const auto serial = a.run_saturation_grid(specs, {.jobs = 1});
  const auto parallel = b.run_saturation_grid(specs, {.jobs = 4});
  ASSERT_EQ(serial.size(), specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    ASSERT_TRUE(serial[i].run.ok);
    EXPECT_GT(serial[i].result.delivered_flits_per_ns, 0.0);
    EXPECT_EQ(std::memcmp(&serial[i].result, &parallel[i].result,
                          sizeof(serial[i].result)),
              0);
  }
}

TEST(BatchDeterminismTest, BadSpecReportedPerOutcomeNotFatal) {
  core::NetworkConfig cfg;
  cfg.n = 4;
  const stats::ExperimentRunner runner(cfg, 9);
  auto specs = small_grid();
  specs[1].injected_flits_per_ns = 0.0;  // rejected by the rate check
  const auto outcomes =
      runner.run_grid<stats::LatencyProtocol>(specs,
                                              {.jobs = 4, .max_attempts = 2});
  ASSERT_EQ(outcomes.size(), specs.size());
  EXPECT_FALSE(outcomes[1].run.ok);
  EXPECT_NE(outcomes[1].run.error.find("positive"), std::string::npos);
  EXPECT_EQ(outcomes[1].run.telemetry.attempts, 2u);
  for (const std::size_t i : {std::size_t{0}, std::size_t{2}, std::size_t{3}}) {
    EXPECT_TRUE(outcomes[i].run.ok) << "outcome " << i;
    EXPECT_GT(outcomes[i].result.messages_measured, 0u);
  }
}

}  // namespace
}  // namespace specnoc
