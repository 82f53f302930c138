#include "workloads.h"

#include <cinttypes>
#include <cstdio>
#include <functional>
#include <stdexcept>

#include "cmp/access_source.h"
#include "cmp/system.h"
#include "core/mot_network.h"
#include "ledger.h"
#include "noc/dest_set.h"
#include "power/power_meter.h"
#include "sim/partitioned_scheduler.h"
#include "stats/experiment.h"
#include "stats/recorder.h"
#include "stats/serialization.h"
#include "traffic/benchmark.h"
#include "traffic/driver.h"
#include "util/json.h"
#include "workload/synth.h"

namespace specbench {

using namespace specnoc;
using namespace specnoc::literals;

namespace {

std::string fnv1a64_hex(const std::string& data) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const unsigned char c : data) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, h);
  return buf;
}

double seconds_since(std::int64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) / 1e9;
}

void append(std::string& out, const char* key, double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%s=%.17g;", key, v);
  out += buf;
}

void append(std::string& out, const char* key, std::uint64_t v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%s=%" PRIu64 ";", key, v);
  out += buf;
}

// Speculation and backpressure counters: simulated outputs every cell
// shares. Host-side shapes (PDES windows, arena, spills) stay out.
void append_snapshot(std::string& out, const stats::MetricsSnapshot& s) {
  append(out, "kills", s.total_kills());
  append(out, "prealloc_hits", s.total_prealloc_hits());
  append(out, "prealloc_misses", s.total_prealloc_misses());
  append(out, "contended_grants", s.total_contended_grants());
  append(out, "watchdog_releases", s.total_watchdog_releases());
  for (const stats::ChannelClassMetrics& c : s.channels) {
    out += "stall." + c.klass + "=" + std::to_string(c.stalls) + "/" +
           std::to_string(c.stall_time_ps) + ";";
  }
}

std::string saturation_outputs(const stats::SaturationResult& r,
                               const stats::MetricsSnapshot& s) {
  std::string out;
  append(out, "delivered_flits_per_ns", r.delivered_flits_per_ns);
  append(out, "injected_flits_per_ns", r.injected_flits_per_ns);
  append(out, "message_expansion", r.message_expansion);
  append_snapshot(out, s);
  return out;
}

std::string cmp_outputs(const stats::CmpResult& r, const stats::CmpMetrics& m,
                        const stats::MetricsSnapshot& s) {
  std::string out;
  append(out, "completed", std::uint64_t{r.completed ? 1u : 0u});
  append(out, "accesses", r.accesses);
  append(out, "makespan_ns", r.makespan_ns);
  append(out, "l1_hits", r.l1_hits);
  append(out, "l1_misses", r.l1_misses);
  append(out, "mshr_merges", r.mshr_merges);
  append(out, "inv_messages", r.inv_messages);
  append(out, "inv_multicasts", r.inv_multicasts);
  append(out, "inv_targets", r.inv_targets);
  append(out, "writebacks", m.writebacks);
  append(out, "dram_reads", r.dram_reads);
  append(out, "dram_writes", r.dram_writes);
  append(out, "dram_conflicts", r.dram_conflicts);
  append(out, "barriers", m.barriers);
  append(out, "lock_acquires", m.lock_acquires);
  append(out, "lock_contended", m.lock_contended);
  append(out, "messages", r.messages);
  append(out, "flits_delivered", r.flits_delivered);
  append(out, "energy_nj", r.energy_nj);
  append_snapshot(out, s);
  return out;
}

// Encode -> write -> parse -> decode -> re-encode; the two texts must be
// byte-identical.
template <typename T, typename Decode>
void roundtrip(const T& value, Decode decode, const char* what) {
  const std::string first = util::json_write(stats::to_json(value));
  const std::string second =
      util::json_write(stats::to_json(decode(util::json_parse(first))));
  if (first != second) {
    throw std::runtime_error(std::string("codec round trip changed the ") +
                             what + " record");
  }
}

void finish_outputs(CellRecord& r, std::string outputs) {
  r.fingerprint = fnv1a64_hex(outputs);
  r.outputs = std::move(outputs);
  r.ok = true;
}

// Network-shape and kernel observations common to every cell.
void harvest_network(CellRecord& r, noc::Network& net) {
  r.events = net.executed();
  r.nodes = net.nodes().size();
  r.channels = net.channels().size();
  r.arena_reserved_bytes = net.arena().total_reserved_bytes();
  if (const sim::PartitionedScheduler* psched = net.partitioned_scheduler();
      psched != nullptr) {
    r.lanes = psched->lanes();
    r.windows = psched->windows();
    r.lane_events = psched->per_lane_executed();
  }
}

// Samples the kernel's pending depth once per simulated ns.
class EpochProbe {
 public:
  EpochProbe(noc::Network& net, CellRecord& record, bool enabled)
      : net_(net), enabled_(enabled) {
    if (!enabled_) return;
    net_.set_epoch_hook(1_ns, [this, &record](TimePs) {
      const std::size_t pending = net_.pending();
      record.pending_samples.push_back(pending);
      record.pending_peak = std::max(record.pending_peak, pending);
      record.overflow_peak =
          std::max(record.overflow_peak, net_.overflow_pending());
    });
  }
  ~EpochProbe() {
    if (enabled_) net_.clear_epoch_hook();
  }
  EpochProbe(const EpochProbe&) = delete;
  EpochProbe& operator=(const EpochProbe&) = delete;

 private:
  noc::Network& net_;
  bool enabled_;
};

// Times one run call as a kRun span and adds it to the cell's run totals.
template <typename F>
void timed_run(CellRecord& r, F&& run) {
  const std::int64_t start = now_ns();
  {
    const Scope scope(Layer::kRun);
    run();
  }
  const double elapsed = seconds_since(start);
  r.run_s += elapsed;
  r.run_thread_s += elapsed * r.workers;
}

unsigned effective_workers(noc::Network& net) {
  if (!net.partitioned()) return 1;
  const unsigned threads = net.worker_threads();
  return std::min<unsigned>(threads == 0 ? 1 : threads, net.partitions());
}

// Runs cells [0, count) back to back (only options.only_cell when set),
// each as a kCell span; a cell that throws is recorded as failed.
template <typename Name, typename RunCell>
void run_cells(std::size_t count, const PassOptions& options, Name name,
               RunCell run_cell, PassResult& pass) {
  for (std::size_t i = 0; i < count; ++i) {
    if (options.only_cell < count && i != options.only_cell) continue;
    Ledger::get().set_cell(static_cast<std::uint32_t>(i));
    const Scope scope(Layer::kCell);
    CellRecord record;
    record.name = name(i);
    const std::int64_t start = now_ns();
    try {
      run_cell(i, record);
    } catch (const std::exception& e) {
      record.ok = false;
      record.error = e.what();
    }
    record.wall_s = seconds_since(start);
    pass.cells.push_back(std::move(record));
  }
}

// ---------------------------------------------------------------------------
// Backlogged saturation cells (table1_8x8, radix1024_pdes).

struct SatCell {
  core::Architecture arch;
  traffic::BenchmarkId bench;
  std::uint32_t n;
  unsigned sim_threads;
  TimePs warmup;
  TimePs end;

  std::string name() const {
    return std::string(core::to_string(arch)) + "/" +
           traffic::to_string(bench) + "@" + std::to_string(n);
  }
};

class SaturationWorkload final : public Workload {
 public:
  SaturationWorkload(std::vector<SatCell> cells, std::uint64_t seed,
                     bool runner_crosscheck)
      : cells_(std::move(cells)),
        seed_(seed),
        runner_crosscheck_(runner_crosscheck) {}

  unsigned workers() const override { return cells_.front().sim_threads; }

  PassResult run_pass(const PassOptions& options) override {
    PassResult pass;
    const std::int64_t start = now_ns();
    {
      const Scope scope(Layer::kPass);
      run_cells(
          cells_.size(), options,
          [this](std::size_t i) { return cells_[i].name(); },
          [&](std::size_t i, CellRecord& r) {
            run_cell(cells_[i], options, r);
          },
          pass);
    }
    pass.wall_s = seconds_since(start);
    return pass;
  }

  std::vector<std::string> crosscheck() override {
    std::vector<std::string> fingerprints;
    if (!runner_crosscheck_) {
      PassOptions options;
      options.workers = 1;
      for (const CellRecord& r : run_pass(options).cells) {
        fingerprints.push_back(r.ok ? r.fingerprint : "error: " + r.error);
      }
      return fingerprints;
    }
    core::NetworkConfig config;
    config.n = cells_.front().n;
    stats::ExperimentRunner runner(config, seed_);
    std::vector<stats::SaturationSpec> specs;
    for (const SatCell& c : cells_) {
      stats::SaturationSpec spec;
      spec.arch = c.arch;
      spec.bench = c.bench;
      specs.push_back(spec);
    }
    stats::BatchOptions batch;
    batch.jobs = 1;
    batch.max_attempts = 1;
    batch.collect_metrics = true;
    for (const auto& outcome : runner.run_saturation_grid(specs, batch)) {
      fingerprints.push_back(
          outcome.run.ok && outcome.metrics
              ? fnv1a64_hex(saturation_outputs(outcome.result,
                                               *outcome.metrics))
              : "error: " + outcome.run.error);
    }
    return fingerprints;
  }

 private:
  void run_cell(const SatCell& c, const PassOptions& o, CellRecord& r) {
    const std::int64_t setup_start = now_ns();
    const std::uint64_t spills0 = noc::DestSet::spill_allocations();
    const std::uint64_t reuses0 = noc::DestSet::spill_reuses();
    const std::uint64_t bytes0 = noc::DestSet::spill_bytes();

    std::unique_ptr<core::MotNetwork> network;
    {
      const Scope scope(Layer::kBuild);
      const std::int64_t build_start = now_ns();
      core::NetworkConfig config;
      config.n = c.n;
      config.sim_threads = c.sim_threads;
      network = std::make_unique<core::MotNetwork>(c.arch, config);
      r.build_s = seconds_since(build_start);
    }
    noc::Network& net = network->net();
    if (o.workers != 0) net.set_worker_threads(o.workers);
    r.workers = effective_workers(net);

    stats::TrafficRecorder recorder(net.packets());
    stats::MetricsRegistry registry;
    TracedTraffic traced_recorder(recorder, Layer::kTrafficObserver);
    TracedMetrics traced_registry(registry);
    CountingEnergy counting(nullptr);
    if (o.recorder) {
      net.hooks().traffic = o.traced
                                ? static_cast<noc::TrafficObserver*>(
                                      &traced_recorder)
                                : &recorder;
    }
    if (o.registry) {
      net.hooks().metrics = o.traced
                                ? static_cast<noc::MetricsObserver*>(
                                      &traced_registry)
                                : &registry;
    }
    if (o.traced) net.hooks().energy = &counting;

    const auto pattern = traffic::make_benchmark(c.bench, c.n);
    TracedPattern traced_pattern(*pattern);
    TracedNetwork traced_network(*network);
    traffic::DriverConfig driver_config;
    driver_config.mode = traffic::InjectionMode::kBacklogged;
    driver_config.seed = seed_;
    traffic::TrafficDriver driver(
        o.traced ? static_cast<noc::MessageNetwork&>(traced_network)
                 : *network,
        o.traced ? static_cast<traffic::TrafficPattern&>(traced_pattern)
                 : *pattern,
        driver_config);
    driver.start();
    r.setup_s = seconds_since(setup_start);
    if (o.setup_only) {
      r.ok = true;
      return;
    }

    {
      const EpochProbe probe(net, r, o.epoch_probe);
      timed_run(r, [&] { net.run_until(c.warmup); });
      recorder.open_window(net.now());
      timed_run(r, [&] { net.run_until(c.end); });
      recorder.close_window(net.now());
    }
    r.sim_ns = ps_to_ns(c.end);

    // The result exactly as ExperimentRunner's saturation worker forms it.
    stats::SaturationResult result;
    result.delivered_flits_per_ns = recorder.delivered_flits_per_ns(c.n);
    result.injected_flits_per_ns = recorder.injected_flits_per_ns(c.n);
    result.delivery_factor =
        result.injected_flits_per_ns > 0.0
            ? result.delivered_flits_per_ns / result.injected_flits_per_ns
            : 1.0;
    const noc::PacketStore& store = net.packets();
    result.message_expansion =
        store.num_messages() > 0
            ? static_cast<double>(store.num_packets()) /
                  static_cast<double>(store.num_messages())
            : 1.0;
    r.snapshot = registry.snapshot();
    harvest_network(r, net);
    r.spill_allocations = noc::DestSet::spill_allocations() - spills0;
    r.spill_reuses = noc::DestSet::spill_reuses() - reuses0;
    r.spill_bytes = noc::DestSet::spill_bytes() - bytes0;
    for (const noc::NodeOp op : noc::all_node_ops()) {
      r.node_ops[static_cast<std::size_t>(op)] = counting.ops(op);
    }

    {
      const Scope scope(Layer::kEncode);
      const std::int64_t encode_start = now_ns();
      roundtrip(result, stats::saturation_result_from_json, "saturation");
      roundtrip(r.snapshot, stats::metrics_snapshot_from_json, "metrics");
      r.encode_s = seconds_since(encode_start);
      r.records = 2;
    }
    finish_outputs(r, saturation_outputs(result, r.snapshot));
  }

  std::vector<SatCell> cells_;
  std::uint64_t seed_;
  bool runner_crosscheck_;
};

// ---------------------------------------------------------------------------
// Closed-loop CMP co-simulation cells (cmp64_closed).

constexpr std::uint32_t kCmpProcessors = 64;

struct CmpInputs {
  std::shared_ptr<const workload::AccessTrace> lu;
  std::shared_ptr<const workload::AccessTrace> barnes;
};

// The E11 LuBlocks / BarnesRegions streams, scaled up to give the 64
// processors more phases of sharing and invalidation.
CmpInputs synthesize_cmp_inputs(std::uint64_t seed) {
  workload::LuAccessParams lu;
  lu.n = kCmpProcessors;
  lu.blocks = 8;
  lu.reads_per_block = 3;
  lu.seed = seed;
  workload::BarnesAccessParams barnes;
  barnes.n = kCmpProcessors;
  barnes.steps = 4;
  barnes.tree_cells = 48;
  barnes.reads_per_step = 16;
  barnes.seed = seed;
  CmpInputs inputs;
  inputs.lu = std::make_shared<const workload::AccessTrace>(
      workload::make_lu_access_trace(lu));
  inputs.barnes = std::make_shared<const workload::AccessTrace>(
      workload::make_barnes_access_trace(barnes));
  return inputs;
}

struct CmpCell {
  core::Architecture arch;
  bool barnes;

  std::string name() const {
    return std::string(core::to_string(arch)) + "/" +
           (barnes ? "BarnesRegions" : "LuBlocks") + "@" +
           std::to_string(kCmpProcessors);
  }
};

stats::CmpMetrics cmp_metrics_of(const cmp::CmpCounters& counters) {
  stats::CmpMetrics m;
  m.accesses = counters.accesses;
  m.l1_hits = counters.l1_hits;
  m.l1_misses = counters.l1_misses;
  m.mshr_merges = counters.mshr_merges;
  m.inv_messages = counters.inv_messages;
  m.inv_multicasts = counters.inv_multicasts;
  m.inv_targets = counters.inv_targets;
  m.writebacks = counters.writebacks;
  m.dram_reads = counters.dram_reads;
  m.dram_writes = counters.dram_writes;
  m.dram_conflicts = counters.dram_conflicts;
  m.barriers = counters.barriers;
  m.lock_acquires = counters.lock_acquires;
  m.lock_contended = counters.lock_contended;
  return m;
}

class CmpWorkload final : public Workload {
 public:
  explicit CmpWorkload(std::uint64_t seed) : seed_(seed) {
    for (const bool barnes : {false, true}) {
      for (const core::Architecture arch :
           {core::Architecture::kBaseline,
            core::Architecture::kOptHybridSpeculative}) {
        cells_.push_back({arch, barnes});
      }
    }
  }

  unsigned workers() const override { return 1; }

  PassResult run_pass(const PassOptions& options) override {
    PassResult pass;
    const std::int64_t start = now_ns();
    {
      const Scope scope(Layer::kPass);
      CmpInputs inputs;
      {
        const Scope synth(Layer::kSynth);
        const std::int64_t synth_start = now_ns();
        inputs = synthesize_cmp_inputs(seed_);
        pass.synth_s = seconds_since(synth_start);
      }
      run_cells(
          cells_.size(), options,
          [this](std::size_t i) { return cells_[i].name(); },
          [&](std::size_t i, CellRecord& r) {
            run_cell(cells_[i],
                     cells_[i].barnes ? *inputs.barnes : *inputs.lu, options,
                     r);
          },
          pass);
    }
    pass.wall_s = seconds_since(start);
    // Synthesis is part of set-up and of the wall time: split it evenly
    // over the cells run.
    for (CellRecord& r : pass.cells) {
      const double share =
          pass.synth_s / static_cast<double>(pass.cells.size());
      r.setup_s += share;
      r.wall_s += share;
    }
    return pass;
  }

  std::vector<std::string> crosscheck() override {
    const CmpInputs inputs = synthesize_cmp_inputs(seed_);
    core::NetworkConfig config;
    config.n = kCmpProcessors;
    stats::ExperimentRunner runner(config, seed_);
    std::vector<stats::CmpSpec> specs;
    for (const CmpCell& c : cells_) {
      specs.push_back(stats::make_cmp_spec(
          c.arch, c.barnes ? "BarnesRegions" : "LuBlocks",
          c.barnes ? inputs.barnes : inputs.lu));
    }
    stats::BatchOptions batch;
    batch.jobs = 1;
    batch.max_attempts = 1;
    batch.collect_metrics = true;
    std::vector<std::string> fingerprints;
    for (const auto& outcome : runner.run_cmp_grid(specs, batch)) {
      fingerprints.push_back(
          outcome.run.ok && outcome.metrics
              ? fnv1a64_hex(cmp_outputs(outcome.result, outcome.metrics->cmp,
                                        *outcome.metrics))
              : "error: " + outcome.run.error);
    }
    return fingerprints;
  }

 private:
  void run_cell(const CmpCell& c, const workload::AccessTrace& access,
                const PassOptions& o, CellRecord& r) {
    const std::int64_t setup_start = now_ns();
    std::unique_ptr<core::MotNetwork> network;
    {
      const Scope scope(Layer::kBuild);
      const std::int64_t build_start = now_ns();
      core::NetworkConfig config;
      config.n = kCmpProcessors;
      network = std::make_unique<core::MotNetwork>(c.arch, config);
      r.build_s = seconds_since(build_start);
    }
    noc::Network& net = network->net();
    r.workers = 1;

    const cmp::CmpConfig cmp_config;
    stats::TrafficRecorder recorder(net.packets());
    TracedTraffic traced_recorder(recorder, Layer::kTrafficObserver);
    TracedNetwork traced_network(*network);
    const cmp::AccessTraceSource source(access, cmp_config.line_bytes);
    cmp::CmpSystem system(
        o.traced ? static_cast<noc::MessageNetwork&>(traced_network)
                 : *network,
        source, cmp_config);
    TracedTraffic traced_system(system, Layer::kCmpObserver);
    power::PowerMeter meter;
    CountingEnergy traced_meter(&meter);
    stats::MetricsRegistry registry;
    TracedMetrics traced_registry(registry);
    if (o.recorder) {
      system.set_downstream(o.traced ? static_cast<noc::TrafficObserver*>(
                                           &traced_recorder)
                                     : &recorder);
      net.hooks().energy = o.traced ? static_cast<noc::EnergyObserver*>(
                                          &traced_meter)
                                    : &meter;
    }
    net.hooks().traffic = o.traced ? static_cast<noc::TrafficObserver*>(
                                         &traced_system)
                                   : &system;
    if (o.registry) {
      net.hooks().metrics = o.traced ? static_cast<noc::MetricsObserver*>(
                                           &traced_registry)
                                     : &registry;
    }
    recorder.open_window(net.now());
    meter.open_window(net.now());
    system.start();
    r.setup_s = seconds_since(setup_start);
    if (o.setup_only) {
      r.ok = true;
      return;
    }

    {
      const EpochProbe probe(net, r, o.epoch_probe);
      timed_run(r, [&] { net.run(); });
    }
    recorder.close_window(net.now());
    meter.close_window(net.now());
    r.sim_ns = ps_to_ns(system.makespan());

    // The result exactly as ExperimentRunner's cmp worker forms it.
    const cmp::CmpCounters counters = system.counters();
    stats::CmpResult result;
    result.accesses = system.retired();
    result.makespan_ns = ps_to_ns(system.makespan());
    result.l1_hits = counters.l1_hits;
    result.l1_misses = counters.l1_misses;
    result.mshr_merges = counters.mshr_merges;
    result.inv_messages = counters.inv_messages;
    result.inv_multicasts = counters.inv_multicasts;
    result.inv_targets = counters.inv_targets;
    result.dram_reads = counters.dram_reads;
    result.dram_writes = counters.dram_writes;
    result.dram_conflicts = counters.dram_conflicts;
    result.messages = counters.messages_sent;
    result.flits_delivered = recorder.window_flits_ejected();
    result.energy_nj = meter.window_energy() / 1e6;
    result.completed = system.finished();
    if (!result.completed) {
      throw std::runtime_error("co-simulation did not retire every access");
    }
    r.cmp = cmp_metrics_of(counters);
    r.snapshot = registry.snapshot();
    harvest_network(r, net);
    for (const noc::NodeOp op : noc::all_node_ops()) {
      r.node_ops[static_cast<std::size_t>(op)] = traced_meter.ops(op);
    }

    {
      const Scope scope(Layer::kEncode);
      const std::int64_t encode_start = now_ns();
      roundtrip(result, stats::cmp_result_from_json, "cmp");
      roundtrip(r.snapshot, stats::metrics_snapshot_from_json, "metrics");
      r.encode_s = seconds_since(encode_start);
      r.records = 2;
    }
    finish_outputs(r, cmp_outputs(result, r.cmp, r.snapshot));
  }

  std::uint64_t seed_;
  std::vector<CmpCell> cells_;
};

}  // namespace

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed) {
  if (name == "table1_8x8") {
    // The paper's Table 1 grid with ExperimentRunner::saturation_windows().
    const traffic::SimWindows windows =
        stats::ExperimentRunner::saturation_windows();
    std::vector<SatCell> cells;
    for (const core::Architecture arch : core::all_architectures()) {
      for (const traffic::BenchmarkId bench : traffic::all_benchmarks()) {
        cells.push_back({arch, bench, 8, 1, windows.warmup,
                         windows.warmup + windows.measure});
      }
    }
    return std::make_unique<SaturationWorkload>(std::move(cells), seed, true);
  }
  if (name == "radix1024_pdes") {
    // From an empty network: a short warmup, then the measured window.
    return std::make_unique<SaturationWorkload>(
        std::vector<SatCell>{{core::Architecture::kOptHybridSpeculative,
                              traffic::BenchmarkId::kMulticast10, 1024, 2,
                              10_ns, 20_ns}},
        seed, false);
  }
  if (name == "cmp64_closed") return std::make_unique<CmpWorkload>(seed);
  throw std::invalid_argument("unknown workload '" + name +
                              "' (valid: table1_8x8, radix1024_pdes, "
                              "cmp64_closed)");
}

}  // namespace specbench
