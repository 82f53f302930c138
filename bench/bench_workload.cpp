// E9 — Trace-driven workloads: replay the synthesized application traces
// (DNN-layer dataflow, directory coherence) on all six networks, in both
// replay modes.
//
// Unlike the open-loop harnesses, the figure of merit here is completion
// time: closed-loop replay feeds the network's own latencies back into the
// injection schedule, so a network that multicasts faster finishes the
// whole dependency DAG sooner. The timed columns replay the same trace
// open loop (recorded times, dependencies ignored) as the load-bound
// reference point.
#include <array>
#include <memory>

#include "bench_common.h"
#include "stats/experiment.h"
#include "workload/synth.h"

using namespace specnoc;
using specnoc::bench::HarnessOptions;

namespace {

constexpr std::array<core::Architecture, 6> kRowOrder = {
    core::Architecture::kBaseline,
    core::Architecture::kBasicNonSpeculative,
    core::Architecture::kBasicHybridSpeculative,
    core::Architecture::kOptNonSpeculative,
    core::Architecture::kOptHybridSpeculative,
    core::Architecture::kOptAllSpeculative,
};

constexpr std::array<workload::SynthId, 2> kWorkloads = {
    workload::SynthId::kDnnLayers,
    workload::SynthId::kCoherence,
};

constexpr std::array<workload::ReplayMode, 2> kModes = {
    workload::ReplayMode::kClosedLoop,
    workload::ReplayMode::kTimed,
};

}  // namespace

int main(int argc, char** argv) {
  const HarnessOptions opts = specnoc::bench::parse_args(
      argc, argv, "bench_workload",
      "Trace-driven workloads: DNN-layer and coherence traces replayed on "
      "all six networks, closed loop and timed.",
      specnoc::bench::Flags::kGrid);
  const core::NetworkConfig cfg;  // 8x8, 5-flit packets
  stats::ShardedSweep sweep = specnoc::bench::make_sweep(opts, cfg);

  // Every worker of a sweep synthesizes the same traces (pure functions of
  // n/flits/seed), so their spec keys — which embed the trace hash — and
  // grid hash agree; a worker run with a different seed is refused at
  // merge time.
  std::vector<std::shared_ptr<const workload::Trace>> traces;
  for (const auto id : kWorkloads) {
    traces.push_back(std::make_shared<const workload::Trace>(
        workload::make_synth_workload(id, cfg.n, cfg.flits_per_packet,
                                      opts.seed)));
  }

  std::vector<stats::WorkloadSpec> specs;
  for (std::size_t w = 0; w < kWorkloads.size(); ++w) {
    for (const auto mode : kModes) {
      for (const auto arch : kRowOrder) {
        specs.push_back(stats::make_workload_spec(
            arch, workload::to_string(kWorkloads[w]), mode, traces[w]));
      }
    }
  }
  const auto outcomes =
      sweep.grid<stats::WorkloadProtocol>("workload", specs);
  if (!sweep.should_render()) return sweep.finish();

  // One table per workload: completion time and latency profile per
  // network, closed loop next to timed.
  std::size_t cursor = 0;
  for (std::size_t w = 0; w < kWorkloads.size(); ++w) {
    const std::size_t closed_base = cursor;
    const std::size_t timed_base = cursor + kRowOrder.size();
    cursor += kModes.size() * kRowOrder.size();

    Table table({"Scheme", "Closed makespan (ns)", "Closed mean lat (ns)",
                 "Closed p95 (ns)", "Timed makespan (ns)",
                 "Timed mean lat (ns)", "Delivered flits"});
    for (std::size_t r = 0; r < kRowOrder.size(); ++r) {
      const auto& closed = outcomes[closed_base + r];
      const auto& timed = outcomes[timed_base + r];
      std::vector<std::string> row{core::to_string(kRowOrder[r])};
      if (closed.run.ok && closed.result.completed) {
        row.push_back(cell(closed.result.makespan_ns, 1));
        row.push_back(cell(closed.result.mean_latency_ns, 1));
        row.push_back(cell(closed.result.p95_latency_ns, 1));
      } else {
        row.insert(row.end(), 3, closed.run.ok ? "STALLED" : "FAIL");
      }
      if (timed.run.ok && timed.result.completed) {
        row.push_back(cell(timed.result.makespan_ns, 1));
        row.push_back(cell(timed.result.mean_latency_ns, 1));
      } else {
        row.insert(row.end(), 2, timed.run.ok ? "STALLED" : "FAIL");
      }
      row.push_back(closed.run.ok
                        ? std::to_string(closed.result.flits_delivered)
                        : "-");
      table.add_row(std::move(row));
    }
    const std::string title =
        std::string(workload::to_string(kWorkloads[w])) + " workload (" +
        std::to_string(traces[w]->records.size()) + " messages, trace " +
        specs[closed_base].trace_hash + ")";
    specnoc::bench::emit(table, title, opts);
  }

  // Headline ratio: multicast hardware should finish the dependency DAG
  // faster than serialized multicast under closed-loop replay.
  Table claims({"Claim", "Measured"});
  for (std::size_t w = 0; w < kWorkloads.size(); ++w) {
    const std::size_t closed_base = w * kModes.size() * kRowOrder.size();
    const auto& base = outcomes[closed_base + 0];      // Baseline
    const auto& opt = outcomes[closed_base + 4];       // OptHybridSpeculative
    if (base.run.ok && opt.run.ok && base.result.completed &&
        opt.result.completed && opt.result.makespan_ns > 0.0) {
      claims.add_row(
          {std::string("OptHybrid speedup over Baseline, ") +
               workload::to_string(kWorkloads[w]) + " makespan",
           cell(base.result.makespan_ns / opt.result.makespan_ns, 2) + "x"});
    } else {
      claims.add_row({std::string("OptHybrid speedup over Baseline, ") +
                          workload::to_string(kWorkloads[w]) + " makespan",
                      "n/a"});
    }
  }
  specnoc::bench::emit(claims, "Workload claims", opts);
  return sweep.finish();
}
