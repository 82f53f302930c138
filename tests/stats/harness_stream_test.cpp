// A grid harness run with `--telemetry-out -`: the NDJSON frame stream owns
// stdout, so the harness's tables and notes go to stderr and a pipe such as
// `bench_fig6b_latency --telemetry-out - | sweep_merge --follow -` reads
// frames only.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "../../bench/bench_common.h"
#include "stats/experiment.h"
#include "stats/telemetry.h"

namespace specnoc::stats {
namespace {

using namespace specnoc::literals;

std::vector<LatencySpec> two_cells() {
  std::vector<LatencySpec> specs;
  for (const double rate : {0.05, 0.15}) {
    specs.push_back({.arch = core::Architecture::kOptHybridSpeculative,
                     .bench = traffic::BenchmarkId::kUniformRandom,
                     .injected_flits_per_ns = rate,
                     .windows = {.warmup = 100_ns, .measure = 800_ns},
                     .seed = 0,
                     .custom = {}});
  }
  return specs;
}

TEST(HarnessTelemetryStdoutTest, StdoutCarriesFramesOnly) {
  const auto specs = two_cells();
  ::testing::internal::CaptureStdout();
  ::testing::internal::CaptureStderr();
  {
    const char* args[] = {"harness_stream_test", "--telemetry-out", "-",
                          "--jobs", "1"};
    const bench::HarnessOptions opts = bench::parse_args(
        5, const_cast<char**>(args), "harness_stream_test",
        "frames on stdout", bench::Flags::kGrid);
    ShardedSweep sweep = bench::make_sweep(opts);
    sweep.grid<LatencyProtocol>("latency", specs);
    Table table({"cell", "value"});
    table.add_row({"a", "1"});
    bench::emit(table, "Stream table", opts);
    bench::note("stream note", opts);
    EXPECT_EQ(sweep.finish(), 0);
  }  // the last options copy goes: the end frame is written
  const std::string out = ::testing::internal::GetCapturedStdout();
  const std::string err = ::testing::internal::GetCapturedStderr();

  std::vector<TelemetryFrame> frames;
  std::istringstream lines(out);
  for (std::string line; std::getline(lines, line);) {
    EXPECT_NO_THROW(frames.push_back(telemetry_frame_parse(line)))
        << "not a frame: " << line;
  }
  ASSERT_EQ(frames.size(), specs.size() + 2) << out;
  EXPECT_EQ(frames.front().kind, TelemetryFrameKind::kStart);
  for (std::size_t i = 1; i + 1 < frames.size(); ++i) {
    EXPECT_EQ(frames[i].kind, TelemetryFrameKind::kRun);
  }
  EXPECT_EQ(frames.back().kind, TelemetryFrameKind::kEnd);

  EXPECT_NE(err.find("== Stream table =="), std::string::npos) << err;
  EXPECT_NE(err.find("stream note"), std::string::npos) << err;
}

}  // namespace
}  // namespace specnoc::stats
