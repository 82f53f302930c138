// E11 — CMP memory-hierarchy co-simulation: closed-loop caches, a home-node
// directory whose invalidations are genuine multicasts, and banked DRAM,
// co-simulated on all six networks.
//
// Unlike the trace-replay workloads (E9), no message schedule exists up
// front: each processor walks its access stream through a private MSI
// cache, and every protocol message — GetS/GetX to the line's home, one
// multicast invalidation to the *current* sharer set, acks and data — is
// generated reactively from delivery events. The figure of merit is
// application makespan: the wall-clock effect of multicast hardware on a
// directory protocol's sharer invalidations. The energy column shows where
// speculation's redundant-copy traffic lands once the "traffic" is a
// coherence protocol rather than synthetic load.
#include <array>
#include <memory>
#include <vector>

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

constexpr std::array<workload::AccessSynthId, 2> kWorkloads = {
    workload::AccessSynthId::kLuBlocks,
    workload::AccessSynthId::kBarnesRegions,
};

std::string percent(std::uint64_t part, std::uint64_t whole) {
  if (whole == 0) return "-";
  return cell(100.0 * static_cast<double>(part) / static_cast<double>(whole),
              1) +
         "%";
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  const HarnessOptions opts = specnoc::bench::parse_args(
      argc, argv, "bench_cmp",
      "CMP co-simulation: per-endpoint MSI caches, directory-generated "
      "multicast invalidations, and banked DRAM driven closed loop on all "
      "six networks; the figure of merit is application makespan.",
      specnoc::bench::Flags::kGrid, [&smoke](util::CliParser& cli) {
        cli.add_flag("--smoke", &smoke,
                     "small CI grid: LU pattern on Baseline and "
                     "OptHybridSpeculative only");
      });
  const core::NetworkConfig cfg;  // 8x8, 5-flit packets
  // --sim-threads/--partition reach the runner, but cmp runs force 1.
  stats::ShardedSweep sweep = specnoc::bench::make_sweep(opts, cfg);

  const std::vector<workload::AccessSynthId> workloads =
      smoke ? std::vector<workload::AccessSynthId>{kWorkloads[0]}
            : std::vector<workload::AccessSynthId>(kWorkloads.begin(),
                                                   kWorkloads.end());
  const std::vector<core::Architecture> rows =
      smoke ? std::vector<core::Architecture>{
                  core::Architecture::kBaseline,
                  core::Architecture::kOptHybridSpeculative}
            : std::vector<core::Architecture>(kRowOrder.begin(),
                                              kRowOrder.end());

  // Every worker of a sweep synthesizes the same access streams (pure
  // functions of n/seed), so their spec keys — which embed the trace hash —
  // and grid hash agree across shards.
  std::vector<std::shared_ptr<const workload::AccessTrace>> traces;
  for (const auto id : workloads) {
    traces.push_back(std::make_shared<const workload::AccessTrace>(
        workload::make_access_workload(id, cfg.n, opts.seed)));
  }

  std::vector<stats::CmpSpec> specs;
  for (std::size_t w = 0; w < workloads.size(); ++w) {
    for (const auto arch : rows) {
      specs.push_back(stats::make_cmp_spec(
          arch, workload::to_string(workloads[w]), traces[w]));
    }
  }
  const auto outcomes = sweep.grid<stats::CmpProtocol>("cmp", specs);
  if (!sweep.should_render()) return sweep.finish();

  // One table per workload: end-to-end makespan plus the protocol shape
  // that produced it.
  for (std::size_t w = 0; w < workloads.size(); ++w) {
    const std::size_t base = w * rows.size();
    Table table({"Scheme", "Makespan (ns)", "Miss rate", "Inv msgs",
                 "Inv multicast", "Mean inv fan-out", "DRAM conflicts",
                 "Energy (nJ)"});
    for (std::size_t r = 0; r < rows.size(); ++r) {
      const auto& outcome = outcomes[base + r];
      std::vector<std::string> row{core::to_string(rows[r])};
      if (outcome.run.ok && outcome.result.completed) {
        const auto& res = outcome.result;
        row.push_back(cell(res.makespan_ns, 1));
        row.push_back(percent(res.l1_misses, res.l1_hits + res.l1_misses));
        row.push_back(std::to_string(res.inv_messages));
        row.push_back(std::to_string(res.inv_multicasts));
        row.push_back(res.inv_messages > 0
                          ? cell(static_cast<double>(res.inv_targets) /
                                     static_cast<double>(res.inv_messages),
                                 2)
                          : "-");
        row.push_back(std::to_string(res.dram_conflicts));
        row.push_back(cell(res.energy_nj, 2));
      } else {
        row.insert(row.end(), 7, outcome.run.ok ? "STALLED" : "FAIL");
      }
      table.add_row(std::move(row));
    }
    const std::string title =
        std::string(workload::to_string(workloads[w])) + " co-simulation (" +
        std::to_string(traces[w]->total_accesses()) + " accesses, trace " +
        specs[base].access_hash + ")";
    specnoc::bench::emit(table, title, opts);
  }

  // Headline claims: multicast hardware should shorten the application's
  // critical path (makespan), and the speculative networks should pay for
  // it with redundant-copy switching energy relative to the equally-fast
  // non-speculative tree.
  Table claims({"Claim", "Measured"});
  for (std::size_t w = 0; w < workloads.size(); ++w) {
    const std::size_t base = w * rows.size();
    const auto find = [&](core::Architecture arch) -> const stats::CmpOutcome* {
      for (std::size_t r = 0; r < rows.size(); ++r) {
        if (rows[r] == arch) return &outcomes[base + r];
      }
      return nullptr;
    };
    const auto ok = [](const stats::CmpOutcome* o) {
      return o != nullptr && o->run.ok && o->result.completed;
    };
    const stats::CmpOutcome* baseline = find(core::Architecture::kBaseline);
    const stats::CmpOutcome* opt_hybrid =
        find(core::Architecture::kOptHybridSpeculative);
    const std::string workload_name = workload::to_string(workloads[w]);
    if (ok(baseline) && ok(opt_hybrid) &&
        opt_hybrid->result.makespan_ns > 0.0) {
      claims.add_row({"OptHybrid speedup over Baseline, " + workload_name +
                          " makespan",
                      cell(baseline->result.makespan_ns /
                               opt_hybrid->result.makespan_ns,
                           2) +
                          "x"});
    } else {
      claims.add_row({"OptHybrid speedup over Baseline, " + workload_name +
                          " makespan",
                      "n/a"});
    }
    const stats::CmpOutcome* opt_nonspec =
        find(core::Architecture::kOptNonSpeculative);
    if (ok(opt_nonspec) && ok(opt_hybrid) &&
        opt_nonspec->result.energy_nj > 0.0) {
      claims.add_row({"OptHybrid redundant-copy energy vs OptNonSpec, " +
                          workload_name,
                      cell(opt_hybrid->result.energy_nj /
                               opt_nonspec->result.energy_nj,
                           2) +
                          "x"});
    } else {
      claims.add_row({"OptHybrid redundant-copy energy vs OptNonSpec, " +
                          workload_name,
                      "n/a"});
    }
  }
  specnoc::bench::emit(claims, "CMP co-simulation claims", opts);
  return sweep.finish();
}
