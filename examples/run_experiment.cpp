// run_experiment — command-line driver for single simulation runs.
//
// Examples:
//   ./run_experiment --mode saturation --arch OptHybridSpeculative
//                    --bench Multicast10
//   ./run_experiment --mode latency --arch Baseline --bench UniformRandom
//                    --fraction 0.25
//   ./run_experiment --mode power --arch OptAllSpeculative
//                    --bench Multicast5 --n 16 --clock 600
//   ./run_experiment --mode trace --arch OptHybridSpeculative
//                    --bench Multicast10 --perfetto out.json --horizon-ns 200
//   ./run_experiment --mode trace --arch OptHybridSpeculative
//                    --bench Multicast10 --perfetto out.json --horizon-ns 200
//                    --telemetry-epoch-ns 20
//   ./run_experiment --mode capture --arch Baseline --bench Multicast10
//                    --dump-trace run.jsonl --horizon-ns 200
//   ./run_experiment --workload run.jsonl --arch OptHybridSpeculative
//   ./run_experiment --synth DnnLayers --arch OptHybridSpeculative
//                    --replay closed --dump-trace dnn.jsonl
//
// --list prints the available architectures, benchmarks, and synthesizers.
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <optional>
#include <string>

#include "core/registry.h"
#include "noc/hooks.h"
#include "noc/partition.h"
#include "stats/experiment.h"
#include "stats/metrics.h"
#include "stats/perfetto_trace.h"
#include "stats/telemetry.h"
#include "stats/recorder.h"
#include "traffic/driver.h"
#include "util/cli.h"
#include "util/error.h"
#include "workload/record.h"
#include "workload/replay.h"
#include "workload/synth.h"
#include "workload/trace.h"

using namespace specnoc;
using namespace specnoc::literals;

namespace {

struct Options {
  std::string mode = "saturation";
  std::string arch = "OptHybridSpeculative";
  std::string bench = "UniformRandom";
  std::uint32_t n = 8;
  double fraction = 0.25;
  double rate = 0.0;  // explicit flits/ns/source (overrides fraction)
  std::uint64_t seed = 42;
  TimePs clock = 0;
  std::string perfetto_path;
  TimePs telemetry_epoch = 0;  ///< --telemetry-epoch-ns: counter-track period
  TimePs horizon = 200_ns;
  std::string workload_path;  ///< --workload: replay this trace file
  std::string synth_name;     ///< --synth: synthesize a workload trace
  std::string replay_mode = "closed";
  std::string dump_path;      ///< --dump-trace: write the trace here
  /// --threads: scheduler lanes/worker threads for the partitioned kernel
  /// (1 = the exact sequential path). Honored by the saturation and timed
  /// workload modes; event-order-sensitive modes force 1 with a note.
  unsigned threads = 1;
  noc::PartitionStrategy partition = noc::PartitionStrategy::kAuto;
};

void list_names() {
  std::printf("architectures (core::ArchitectureRegistry):\n");
  for (const auto& name : core::ArchitectureRegistry::global().names()) {
    std::printf("  %s\n", name.c_str());
  }
  std::printf("benchmarks:\n");
  for (const auto bench : traffic::all_benchmarks()) {
    std::printf("  %s\n", traffic::to_string(bench));
  }
  std::printf("workload synthesizers (--synth):\n");
  std::printf("  %s\n", workload::to_string(workload::SynthId::kDnnLayers));
  std::printf("  %s\n", workload::to_string(workload::SynthId::kCoherence));
  std::printf("replay modes (--replay): timed, closed\n");
}

Options parse(int argc, char** argv) {
  Options opts;
  util::CliParser cli("run_experiment",
                      "Run one simulation (saturation, latency, power, or "
                      "trace) and print its results.");
  cli.add_string("--mode", &opts.mode,
                 "saturation | latency | power | trace | workload | capture");
  cli.add_string("--arch", &opts.arch, "architecture name (see --list)");
  cli.add_string("--bench", &opts.bench, "benchmark name (see --list)");
  cli.add_uint32("--n", &opts.n, "network radix");
  cli.add_double("--fraction", &opts.fraction,
                 "operating point as a fraction of saturation");
  cli.add_double("--rate", &opts.rate,
                 "explicit flits/ns/source (overrides --fraction)");
  cli.add_uint64("--seed", &opts.seed, "traffic seed");
  cli.add_int64("--clock", &opts.clock, "clock period in ps (0 = async)");
  cli.add_string("--perfetto", &opts.perfetto_path,
                 "Chrome-trace JSON path (trace mode; open in ui.perfetto.dev "
                 "or chrome://tracing)");
  cli.add_custom("--telemetry-epoch-ns", "NS",
                 "sample epoch-delta counter tracks every NS simulated ns "
                 "(trace mode; 0 = off)",
                 [&opts](const std::string& v) {
                   opts.telemetry_epoch =
                       util::parse_i64(v, "--telemetry-epoch-ns") * 1000;
                 });
  cli.add_custom("--horizon-ns", "NS", "trace horizon in ns",
                 [&opts](const std::string& v) {
                   opts.horizon = util::parse_i64(v, "--horizon-ns") * 1000;
                 });
  cli.add_string("--workload", &opts.workload_path,
                 "replay this workload trace file (implies --mode workload)");
  cli.add_string("--synth", &opts.synth_name,
                 "synthesize a workload trace (see --list) instead of loading "
                 "one (implies --mode workload)");
  cli.add_string("--replay", &opts.replay_mode,
                 "replay mode: timed (open loop, recorded times) or closed "
                 "(dependency-aware)");
  cli.add_string("--dump-trace", &opts.dump_path,
                 "write the workload trace (synthesized, or captured in "
                 "capture mode) to this file");
  cli.add_unsigned("--threads", &opts.threads,
                   "worker threads for the partitioned kernel (1: exact "
                   "sequential path); results are identical for any count");
  cli.add_custom("--partition", "NAME",
                 "partition strategy: auto | none | tree | quadrant | rows",
                 [&opts](const std::string& value) {
                   opts.partition = noc::partition_strategy_from_string(value);
                 });
  cli.add_action("--list",
                 "print available architectures, benchmarks, and synthesizers",
                 [] {
                   list_names();
                   std::exit(0);
                 });
  cli.parse_or_exit(argc, argv);
  if (!(opts.fraction > 0.0 && opts.fraction < 1.0)) {
    std::fprintf(stderr, "run_experiment: --fraction must lie in (0, 1)\n");
    std::exit(2);
  }
  if (opts.mode == "saturation" &&
      (!opts.workload_path.empty() || !opts.synth_name.empty())) {
    opts.mode = "workload";
  }
  return opts;
}

/// Runs one spec; a failed run prints "error: <why>" and yields nothing.
template <stats::Protocol P>
std::optional<typename P::Result> run_single(
    const stats::ExperimentRunner& runner, const typename P::Spec& spec) {
  const auto outcome =
      runner.run_grid<P>({spec}, {.jobs = 1, .max_attempts = 1})[0];
  if (!outcome.run.ok) {
    std::fprintf(stderr, "error: %s\n", outcome.run.error.c_str());
    return std::nullopt;
  }
  return outcome.result;
}

/// The commanded rate of --rate or, failing that, --fraction of `anchor`'s
/// saturation (run first); nothing when that saturation run failed.
std::optional<double> commanded_rate(const stats::ExperimentRunner& runner,
                                     const Options& opts,
                                     const stats::SaturationSpec& anchor) {
  if (opts.rate > 0.0) return opts.rate;
  const auto sat = run_single<stats::SaturationProtocol>(runner, anchor);
  if (!sat) return std::nullopt;
  return stats::operating_rate(*sat, opts.fraction);
}

int run(const Options& opts) {
  // --arch is any registry name: a spec carries the architecture the entry
  // reports, plus the name itself when the entry is not canonical.
  const auto& registry = core::ArchitectureRegistry::global();
  const auto arch = registry.reported(opts.arch);
  const std::string custom =
      opts.arch == core::to_string(arch) ? std::string() : opts.arch;
  const auto bench = traffic::benchmark_from_string(opts.bench);
  core::NetworkConfig cfg;
  cfg.n = opts.n;
  cfg.clock_period = opts.clock;
  cfg.sim_threads = opts.threads;
  cfg.partition = opts.partition;
  // Event-order-sensitive modes have no windowed equivalent (DESIGN.md §9):
  // latency/power drain event-by-event or accumulate order-dependent
  // doubles, and capture/trace observe the global event interleave.
  if (opts.threads > 1 &&
      (opts.mode == "latency" || opts.mode == "power" ||
       opts.mode == "capture" || opts.mode == "trace")) {
    std::printf("note: %s mode is sequential-only; ignoring --threads %u\n",
                opts.mode.c_str(), opts.threads);
    cfg.sim_threads = 1;
  }
  if (opts.mode == "workload" && opts.replay_mode == "closed" &&
      opts.threads > 1) {
    std::printf("note: closed-loop replay is sequential-only (zero-lookahead "
                "feedback); ignoring --threads %u\n",
                opts.threads);
    cfg.sim_threads = 1;
  }
  stats::ExperimentRunner runner(cfg, opts.seed);
  const stats::SaturationSpec saturation{
      .arch = arch, .bench = bench, .seed = 0, .custom = custom};

  if (opts.mode == "saturation") {
    const auto sat = run_single<stats::SaturationProtocol>(runner, saturation);
    if (!sat) return 1;
    std::printf("%s / %s (n=%u%s)\n", opts.arch.c_str(), opts.bench.c_str(),
                opts.n, opts.clock ? ", clocked" : "");
    std::printf("  delivered: %.3f flits/ns/source\n",
                sat->delivered_flits_per_ns);
    std::printf("  injected:  %.3f flits/ns/source\n",
                sat->injected_flits_per_ns);
    std::printf("  delivery factor: %.3f, serialization expansion: %.3f\n",
                sat->delivery_factor, sat->message_expansion);
    return 0;
  }
  if (opts.mode == "latency") {
    // --fraction is of this network's own saturation.
    const auto rate = commanded_rate(runner, opts, saturation);
    if (!rate) return 1;
    const auto result = run_single<stats::LatencyProtocol>(
        runner, {.arch = arch,
                 .bench = bench,
                 .injected_flits_per_ns = *rate,
                 .windows = traffic::default_windows(bench),
                 .seed = 0,
                 .custom = custom});
    if (!result) return 1;
    if (opts.rate > 0.0) {
      std::printf("%s / %s at %.3f flits/ns/src\n", opts.arch.c_str(),
                  opts.bench.c_str(), opts.rate);
    } else {
      std::printf("%s / %s at %.0f%% of own saturation\n",
                  opts.arch.c_str(), opts.bench.c_str(),
                  opts.fraction * 100.0);
    }
    std::printf("  mean latency: %.3f ns   p95: %.3f ns   max: %.3f ns\n",
                result->mean_latency_ns, result->p95_latency_ns,
                result->max_latency_ns);
    std::printf("  messages measured: %llu   drained: %s\n",
                static_cast<unsigned long long>(result->messages_measured),
                result->drained ? "yes" : "NO (saturated)");
    return 0;
  }
  if (opts.mode == "power") {
    // --fraction is of the Baseline's saturation, for every network.
    const auto rate = commanded_rate(runner, opts,
                                     {.arch = core::Architecture::kBaseline,
                                      .bench = bench,
                                      .seed = 0,
                                      .custom = {}});
    if (!rate) return 1;
    const auto result = run_single<stats::PowerProtocol>(
        runner, {.arch = arch,
                 .bench = bench,
                 .injected_flits_per_ns = *rate,
                 .windows = traffic::default_windows(bench),
                 .seed = 0,
                 .custom = custom});
    if (!result) return 1;
    std::printf("%s / %s\n", opts.arch.c_str(), opts.bench.c_str());
    std::printf("  total power: %.2f mW (nodes %.2f + wires %.2f)\n",
                result->power_mw, result->node_power_mw,
                result->wire_power_mw);
    std::printf("  delivered: %.3f flits/ns/src; throttled flits: %llu; "
                "broadcast ops: %llu\n",
                result->delivered_flits_per_ns,
                static_cast<unsigned long long>(result->throttled_flits),
                static_cast<unsigned long long>(result->broadcast_ops));
    return 0;
  }
  if (opts.mode == "workload") {
    if (opts.workload_path.empty() == opts.synth_name.empty()) {
      std::fprintf(stderr,
                   "workload mode needs exactly one of --workload FILE or "
                   "--synth NAME\n");
      return 2;
    }
    const auto trace = std::make_shared<const workload::Trace>(
        opts.workload_path.empty()
            ? workload::make_synth_workload(
                  workload::synth_from_string(opts.synth_name), cfg.n,
                  cfg.flits_per_packet, opts.seed)
            : workload::load_trace(opts.workload_path));
    const auto mode = workload::replay_mode_from_string(opts.replay_mode);
    stats::WorkloadSpec spec =
        stats::make_workload_spec(arch, trace->meta.generator, mode, trace);
    spec.custom = custom;
    if (!opts.dump_path.empty()) {
      workload::save_trace(*trace, opts.dump_path);
      std::printf("wrote %zu-message trace to %s (hash %s)\n",
                  trace->records.size(), opts.dump_path.c_str(),
                  spec.trace_hash.c_str());
    }
    const auto replayed = run_single<stats::WorkloadProtocol>(runner, spec);
    if (!replayed) return 1;
    const auto& result = *replayed;
    std::printf("%s / %s replay of %s (%llu messages, trace %s)\n",
                opts.arch.c_str(), workload::to_string(mode),
                trace->meta.generator.empty() ? "<trace>"
                                              : trace->meta.generator.c_str(),
                static_cast<unsigned long long>(result.messages),
                spec.trace_hash.c_str());
    std::printf("  makespan: %.3f ns   delivered: %llu/%llu messages, "
                "%llu flits\n",
                result.makespan_ns,
                static_cast<unsigned long long>(result.messages_delivered),
                static_cast<unsigned long long>(result.messages),
                static_cast<unsigned long long>(result.flits_delivered));
    std::printf("  mean latency: %.3f ns   p95: %.3f ns   max: %.3f ns\n",
                result.mean_latency_ns, result.p95_latency_ns,
                result.max_latency_ns);
    if (!result.completed) {
      std::printf("  WARNING: replay did not complete\n");
      return 1;
    }
    return 0;
  }
  if (opts.mode == "capture") {
    if (opts.dump_path.empty()) {
      std::fprintf(stderr, "capture mode needs --dump-trace FILE\n");
      return 2;
    }
    const auto network = registry.build(opts.arch, cfg);
    noc::Network& net = network->net();
    workload::TraceRecorder capture(net.packets(), cfg.n,
                                    std::string("capture:") + opts.bench);
    stats::TrafficRecorder recorder(net.packets());
    capture.set_downstream(&recorder);
    net.hooks().traffic = &capture;
    auto pattern = traffic::make_benchmark(bench, cfg.n);
    traffic::DriverConfig dcfg;
    dcfg.mode = traffic::InjectionMode::kOpenLoop;
    dcfg.flits_per_ns_per_source = opts.rate > 0.0 ? opts.rate : 0.3;
    dcfg.seed = opts.seed;
    traffic::TrafficDriver driver(*network, *pattern, dcfg);
    driver.set_measured(true);
    recorder.open_window(0);
    driver.start();
    net.run_until(opts.horizon);
    recorder.close_window(net.now());
    const workload::Trace trace = capture.trace();
    workload::save_trace(trace, opts.dump_path);
    std::printf("captured %zu messages (%llu flits delivered, %lld ns) to "
                "%s (hash %s)\n",
                trace.records.size(),
                static_cast<unsigned long long>(
                    recorder.window_flits_ejected()),
                static_cast<long long>(opts.horizon / 1000),
                opts.dump_path.c_str(), workload::trace_hash(trace).c_str());
    return 0;
  }
  if (opts.mode == "trace") {
    if (opts.perfetto_path.empty()) {
      std::fprintf(stderr,
                   "trace mode needs --perfetto FILE (Chrome-trace JSON)\n");
      return 2;
    }
    std::ofstream out(opts.perfetto_path);
    if (!out) {
      std::fprintf(stderr, "cannot open %s\n", opts.perfetto_path.c_str());
      return 2;
    }
    const auto network = registry.build(opts.arch, cfg);
    noc::Network& net = network->net();
    stats::PerfettoTracer perfetto;
    net.hooks().traffic = &perfetto;
    net.hooks().energy = &perfetto;
    net.hooks().metrics = &perfetto;
    std::unique_ptr<stats::TelemetrySampler> sampler;
    stats::MetricsRegistry telemetry_registry;
    noc::TeeMetricsObserver metrics_tee;
    if (opts.telemetry_epoch > 0) {
      stats::TelemetryOptions topts;
      topts.epoch_ps = opts.telemetry_epoch;
      sampler = std::make_unique<stats::TelemetrySampler>(topts);
      // The sampler diffs a registry's totals, so tee one in beside the
      // tracer's own metrics instants.
      metrics_tee.add(&perfetto);
      metrics_tee.add(&telemetry_registry);
      net.hooks().metrics = &metrics_tee;
      sampler->arm(net, telemetry_registry);
    }
    auto pattern = traffic::make_benchmark(bench, cfg.n);
    traffic::DriverConfig dcfg;
    dcfg.mode = traffic::InjectionMode::kOpenLoop;
    dcfg.flits_per_ns_per_source = opts.rate > 0.0 ? opts.rate : 0.3;
    dcfg.seed = opts.seed;
    traffic::TrafficDriver driver(*network, *pattern, dcfg);
    driver.start();
    net.run_until(opts.horizon);
    if (sampler != nullptr) {
      stats::TelemetrySeries series = sampler->finish();
      std::printf("sampled %zu telemetry epochs (%llu ps period)\n",
                  series.epochs.size(),
                  static_cast<unsigned long long>(series.epoch_ps));
      perfetto.set_telemetry(std::move(series));
    }
    perfetto.write(out);
    std::printf("wrote %llu trace events to %s (%lld ns simulated); open "
                "in ui.perfetto.dev or chrome://tracing\n",
                static_cast<unsigned long long>(perfetto.num_events()),
                opts.perfetto_path.c_str(),
                static_cast<long long>(opts.horizon / 1000));
    return 0;
  }
  std::fprintf(stderr, "unknown mode '%s'\n", opts.mode.c_str());
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse(argc, argv));
  } catch (const ConfigError& error) {
    std::fprintf(stderr, "error: %s\n", error.what());
    std::fprintf(stderr, "use --list to see valid names\n");
    return 2;
  }
}
