// specbench: runs one benchmark workload and prints one JSON document with
// the raw measurements (the specbench/run.py driver turns them into the
// scored metrics and checks the fingerprints against the reference).
//
//   specbench --workload NAME --seed N --seconds S [--trace 0|1]
//             [--crosscheck 0|1] [--spans-out PATH]
//
// Scored run (--trace 0): repeats the workload's full grid until S seconds
// have passed (at least once), then repeats its set-up until there are at
// least five set-up samples. Traced run (--trace 1): one untraced pass, one
// pass with every layer decorator installed, subtraction runs, layer
// microbenchmarks and (for PDES workloads) the 1/2/4-worker ledger.
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "ledger.h"
#include "micro.h"
#include "noc/hooks.h"
#include "util/json.h"
#include "workloads.h"

using specnoc::util::Json;
using namespace specbench;

namespace {

// SPECBENCH_BUILD_TYPE, _CXX_ID, _CXX_VERSION and _CXX_FLAGS come from
// CMakeLists.txt.
bool sanitized_build() {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return true;
#else
  return std::strstr(SPECBENCH_CXX_FLAGS, "-fsanitize") != nullptr;
#endif
}

Json build_stamp() {
  Json stamp = Json::object();
  stamp.set("build_type", SPECBENCH_BUILD_TYPE);
  stamp.set("compiler", std::string(SPECBENCH_CXX_ID) + " " +
                            SPECBENCH_CXX_VERSION);
  stamp.set("flags", SPECBENCH_CXX_FLAGS);
  return stamp;
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool crosscheck = false;
  std::string spans_out;
};

[[noreturn]] void usage(const std::string& message) {
  std::fprintf(stderr,
               "specbench: %s\nusage: specbench --workload NAME --seed N "
               "--seconds S [--trace 0|1] [--crosscheck 0|1] "
               "[--spans-out PATH]\n",
               message.c_str());
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0') usage("bad --seed " + value);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (value.empty() || *end != '\0' || args.seconds < 0) {
        usage("bad --seconds " + value);
      }
    } else if (flag == "--trace" || flag == "--crosscheck") {
      if (value != "0" && value != "1") usage("bad " + flag + " " + value);
      (flag == "--trace" ? args.trace : args.crosscheck) = value == "1";
    } else if (flag == "--spans-out") {
      args.spans_out = value;
    } else {
      usage("unknown flag " + flag);
    }
  }
  if (args.workload.empty()) usage("--workload is required");
  return args;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : (v[mid - 1] + v[mid]) / 2.0;
}

double peak_rss_mb() {
  struct rusage usage = {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

struct PassTotals {
  double setup_s = 0.0;
  double build_s = 0.0;
  double run_s = 0.0;
  double run_thread_s = 0.0;
  double sim_ns = 0.0;
  double encode_s = 0.0;
  std::uint64_t records = 0;
  std::uint64_t events = 0;
};

PassTotals totals_of(const PassResult& pass) {
  PassTotals t;
  for (const CellRecord& r : pass.cells) {
    t.setup_s += r.setup_s;
    t.build_s += r.build_s;
    t.run_s += r.run_s;
    t.run_thread_s += r.run_thread_s;
    t.sim_ns += r.sim_ns;
    t.encode_s += r.encode_s;
    t.records += r.records;
    t.events += r.events;
  }
  return t;
}

Json cells_json(const PassResult& pass) {
  Json cells = Json::array();
  for (const CellRecord& r : pass.cells) {
    Json cell = Json::object();
    cell.set("name", r.name);
    cell.set("ok", r.ok);
    if (!r.ok) cell.set("error", r.error);
    cell.set("fingerprint", r.fingerprint);
    cell.set("outputs", r.outputs);
    cell.set("wall_s", r.wall_s);
    cell.set("setup_s", r.setup_s);
    cell.set("run_s", r.run_s);
    cell.set("sim_ns", r.sim_ns);
    cells.push_back(std::move(cell));
  }
  return cells;
}

Json pass_json(const PassResult& pass) {
  const PassTotals t = totals_of(pass);
  Json j = Json::object();
  j.set("wall_s", pass.wall_s);
  j.set("setup_s", t.setup_s);
  j.set("run_s", t.run_s);
  j.set("sim_ns", t.sim_ns);
  j.set("events", t.events);
  j.set("cells", cells_json(pass));
  return j;
}

// Simulated outputs must not depend on tracing or worker count: compare a
// pass's fingerprints against the reference pass, cell by cell (a pass of
// only the first cell compares against the reference's first cell).
std::uint64_t mismatches(const PassResult& pass, const PassResult& reference,
                         Json& report) {
  std::uint64_t failed = 0;
  for (std::size_t i = 0; i < pass.cells.size(); ++i) {
    const CellRecord& r = pass.cells[i];
    const CellRecord& ref = reference.cells[i];
    if (!r.ok || r.fingerprint != ref.fingerprint) {
      ++failed;
      report.push_back(r.name + (r.ok ? ": fingerprint " + r.fingerprint +
                                            " != " + ref.fingerprint
                                      : ": " + r.error));
    }
  }
  return failed;
}

class Metrics {
 public:
  void add(const std::string& name, double value, const char* unit) {
    Json m = Json::object();
    m.set("value", value);
    m.set("unit", unit);
    json_.set(name, std::move(m));
  }
  Json take() { return std::move(json_); }

 private:
  Json json_ = Json::object();
};

// Median and the highest percentile with at least ten samples beyond it.
struct CallSummary {
  std::uint64_t calls = 0;
  double median_ns = 0.0;
  double tail_ns = 0.0;
  double tail_percentile = 0.0;
};

CallSummary summarize(const LogHist& hist) {
  CallSummary s;
  s.calls = hist.count();
  s.median_ns = hist.quantile(0.5);
  for (const double p : {0.5, 0.9, 0.99, 0.999, 0.9999, 0.99999}) {
    if (static_cast<double>(s.calls) * (1.0 - p) >= 10.0) {
      s.tail_percentile = p * 100.0;
      s.tail_ns = hist.quantile(p);
    }
  }
  return s;
}

void add_calls(Metrics& m, Json& ledger, const std::string& prefix,
               const LayerStats& stats) {
  const CallSummary s = summarize(stats.duration);
  m.add(prefix + ".calls", static_cast<double>(s.calls), "count");
  m.add(prefix + ".ns", s.median_ns, "ns");
  m.add(prefix + ".tail_ns", s.tail_ns, "ns");
  Json j = Json::object();
  j.set("calls", s.calls);
  j.set("median_ns", s.median_ns);
  j.set("tail_ns", s.tail_ns);
  j.set("tail_percentile", s.tail_percentile);
  j.set("total_s", static_cast<double>(stats.total_ns) / 1e9);
  j.set("self_s", static_cast<double>(stats.self_ns) / 1e9);
  ledger.set(prefix, std::move(j));
}

// Speed-up bound of a partitioned run on `workers` threads: total events
// over the largest per-worker share under the static contiguous lane blocks
// the worker pool executes.
double model_speedup(const std::vector<std::uint64_t>& lanes,
                     unsigned workers) {
  std::uint64_t total = 0;
  std::uint64_t max_share = 0;
  const std::size_t n = lanes.size();
  for (unsigned w = 0; w < workers; ++w) {
    std::uint64_t share = 0;
    for (std::size_t l = w * n / workers; l < (w + 1) * n / workers; ++l) {
      share += lanes[l];
    }
    total += share;
    max_share = std::max(max_share, share);
  }
  return max_share > 0 ? static_cast<double>(total) /
                             static_cast<double>(max_share)
                       : 0.0;
}

void write_spans(const std::string& path, const std::vector<Span>& spans) {
  std::ofstream out(path);
  std::int64_t origin = 0;
  for (const Span& s : spans) {
    if (origin == 0 || s.start_ns < origin) origin = s.start_ns;
  }
  for (const Span& s : spans) {
    Json j = Json::object();
    j.set("id", s.id);
    j.set("parent", s.parent);
    j.set("name", layer_name(s.layer));
    j.set("cell", s.cell);
    j.set("start_ns", s.start_ns - origin);
    j.set("end_ns", s.end_ns - origin);
    out << specnoc::util::json_write(j) << "\n";
  }
}

// One set-up sample: every cell's set-up time in one pass.
Json setup_sample(const PassResult& pass) {
  Json sample = Json::array();
  for (const CellRecord& r : pass.cells) sample.push_back(r.setup_s);
  return sample;
}

Json scored_run(Workload& workload, const Args& args) {
  Json doc = Json::object();
  Json passes = Json::array();
  Json setup_samples = Json::array();
  std::size_t setups = 0;
  PassOptions setup_only;
  setup_only.setup_only = true;
  // Warm-up: the first build of a process pays for faulting in fresh
  // memory (over a gigabyte at radix 1024); keep it out of every sample.
  if (args.seconds > 0) workload.run_pass(setup_only);
  const std::int64_t deadline =
      now_ns() + static_cast<std::int64_t>(args.seconds * 1e9);
  do {
    const PassResult pass = workload.run_pass({});
    setup_samples.push_back(setup_sample(pass));
    ++setups;
    passes.push_back(pass_json(pass));
  } while (now_ns() < deadline);
  if (args.seconds > 0) {
    for (; setups < 5; ++setups) {
      setup_samples.push_back(setup_sample(workload.run_pass(setup_only)));
    }
  }
  doc.set("peak_rss_mb", peak_rss_mb());
  doc.set("passes", std::move(passes));
  doc.set("setup_samples", std::move(setup_samples));
  return doc;
}

Json traced_run(Workload& workload, const Args& args) {
  Json doc = Json::object();
  Json ledger = Json::object();
  Json problems = Json::array();
  Metrics m;

  // Untraced reference pass, then the same pass with every decorator.
  const PassResult plain = workload.run_pass({});
  const PassTotals pt = totals_of(plain);
  std::uint64_t attempted = plain.cells.size();
  std::uint64_t failed = 0;
  for (const CellRecord& r : plain.cells) {
    if (!r.ok) {
      ++failed;
      problems.push_back(r.name + ": " + r.error);
    }
  }

  Ledger& spans = Ledger::get();
  spans.reset();
  spans.set_enabled(true);
  PassOptions traced_options;
  traced_options.traced = true;
  traced_options.epoch_probe = true;
  const PassResult traced = workload.run_pass(traced_options);
  spans.set_enabled(false);
  const LedgerTotals lt = spans.totals();
  const PassTotals tt = totals_of(traced);
  attempted += traced.cells.size();
  failed += mismatches(traced, plain, problems);
  if (!args.spans_out.empty()) write_spans(args.spans_out, spans.spans());

  auto layer = [&lt](Layer l) -> const LayerStats& {
    return lt.stats[static_cast<std::size_t>(l)];
  };

  // sim: kernel throughput, self time, queue depth.
  m.add("sim.events", static_cast<double>(pt.events), "count");
  m.add("sim.events_per_s",
        pt.run_s > 0 ? static_cast<double>(pt.events) / pt.run_s : 0.0,
        "1/s");
  const double run_self_s =
      tt.run_thread_s - static_cast<double>(lt.run_children_ns) / 1e9;
  m.add("sim.run_self_s", run_self_s, "s");
  m.add("trace.overhead_s", tt.run_s - pt.run_s, "s");
  ledger.set("untraced_run_s", pt.run_s);
  ledger.set("traced_run_s", tt.run_s);
  ledger.set("traced_run_thread_s", tt.run_thread_s);

  std::vector<double> depths;
  std::size_t pending_peak = 0;
  std::size_t overflow_peak = 0;
  for (const CellRecord& r : traced.cells) {
    for (const std::size_t d : r.pending_samples) {
      depths.push_back(static_cast<double>(d));
    }
    pending_peak = std::max(pending_peak, r.pending_peak);
    overflow_peak = std::max(overflow_peak, r.overflow_peak);
  }
  m.add("sim.pending_peak", static_cast<double>(pending_peak), "count");
  m.add("sim.overflow_peak", static_cast<double>(overflow_peak), "count");
  const double depth = median(depths);
  const double queue_ns = queue_micro(static_cast<std::size_t>(depth),
                                      args.seed);
  const double queue_peak_ns = queue_micro(pending_peak, args.seed);
  m.add("sim.queue_ns_per_op", queue_ns, "ns");
  Json queue = Json::object();
  queue.set("median_depth", depth);
  queue.set("ns_per_op_at_median_depth", queue_ns);
  queue.set("peak_depth", pending_peak);
  queue.set("ns_per_op_at_peak_depth", queue_peak_ns);
  ledger.set("sim.queue", std::move(queue));

  // core / noc: construction, arena, DestSet spills and algebra.
  std::uint64_t nodes = 0;
  std::uint64_t channels = 0;
  std::uint64_t arena = 0;
  std::uint64_t spills = 0;
  std::uint64_t reuses = 0;
  std::uint64_t spill_bytes = 0;
  for (const CellRecord& r : plain.cells) {
    nodes = std::max(nodes, r.nodes);
    channels = std::max(channels, r.channels);
    arena = std::max(arena, r.arena_reserved_bytes);
    spills += r.spill_allocations;
    reuses += r.spill_reuses;
    spill_bytes += r.spill_bytes;
  }
  m.add("core.build_s", pt.build_s, "s");
  m.add("core.nodes", static_cast<double>(nodes), "count");
  m.add("core.channels", static_cast<double>(channels), "count");
  m.add("noc.arena_reserved_mb", static_cast<double>(arena) / 1048576.0,
        "MiB");
  m.add("noc.destset.spill_allocations", static_cast<double>(spills),
        "count");
  m.add("noc.destset.spill_reuses", static_cast<double>(reuses), "count");
  m.add("noc.destset.spill_bytes", static_cast<double>(spill_bytes), "B");
  for (const DestSetMicro& d : destset_micro(args.seed)) {
    m.add("noc.destset.ns_per_op." + std::to_string(d.words) + "w",
          d.ns_per_op, "ns");
  }

  // Per-call layer costs from the decorators.
  add_calls(m, ledger, "noc.send", layer(Layer::kSend));
  add_calls(m, ledger, "traffic.next_dests", layer(Layer::kPattern));
  add_calls(m, ledger, "stats.observer", layer(Layer::kTrafficObserver));
  add_calls(m, ledger, "stats.metrics_observer",
            layer(Layer::kMetricsObserver));
  add_calls(m, ledger, "power.observer", layer(Layer::kEnergyObserver));
  const LayerStats& cmp_observer = layer(Layer::kCmpObserver);
  m.add("cmp.observer_self_ns", summarize(cmp_observer.self).median_ns, "ns");
  ledger.set("cmp.observer_self_s",
             static_cast<double>(cmp_observer.self_ns) / 1e9);

  // Simulated counters (untraced pass; identical in the traced one).
  std::uint64_t kills = 0, hits = 0, misses = 0, grants = 0, watchdog = 0;
  std::map<std::string, std::uint64_t> stall_ps;
  specnoc::stats::CmpMetrics cmp;
  for (const CellRecord& r : plain.cells) {
    kills += r.snapshot.total_kills();
    hits += r.snapshot.total_prealloc_hits();
    misses += r.snapshot.total_prealloc_misses();
    grants += r.snapshot.total_contended_grants();
    watchdog += r.snapshot.total_watchdog_releases();
    for (const auto& c : r.snapshot.channels) stall_ps[c.klass] += c.stall_time_ps;
    cmp.accesses += r.cmp.accesses;
    cmp.l1_hits += r.cmp.l1_hits;
    cmp.l1_misses += r.cmp.l1_misses;
    cmp.mshr_merges += r.cmp.mshr_merges;
    cmp.inv_multicasts += r.cmp.inv_multicasts;
    cmp.dram_conflicts += r.cmp.dram_conflicts;
  }
  for (const char* klass : {"source_if", "fanout", "middle", "fanin",
                            "sink_if"}) {
    m.add(std::string("noc.stall_ps.") + klass,
          static_cast<double>(stall_ps[klass]), "ps");
  }
  m.add("nodes.kills", static_cast<double>(kills), "count");
  m.add("nodes.prealloc_hit_ratio",
        hits + misses > 0 ? static_cast<double>(hits) /
                                static_cast<double>(hits + misses)
                          : 0.0,
        "ratio");
  m.add("nodes.contended_grants", static_cast<double>(grants), "count");
  m.add("nodes.watchdog_releases", static_cast<double>(watchdog), "count");
  std::array<std::uint64_t, 8> ops{};
  for (const CellRecord& r : traced.cells) {
    for (std::size_t i = 0; i < ops.size(); ++i) ops[i] += r.node_ops[i];
  }
  using specnoc::noc::NodeOp;
  const auto op = [&ops](NodeOp o) {
    return static_cast<double>(ops[static_cast<std::size_t>(o)]);
  };
  const double copies = op(NodeOp::kBroadcast) + op(NodeOp::kRouteForward) +
                        op(NodeOp::kFastForward);
  m.add("nodes.useful_copy_ratio",
        copies > 0 ? 1.0 - op(NodeOp::kThrottle) / copies : 0.0, "ratio");

  m.add("cmp.accesses", static_cast<double>(cmp.accesses), "count");
  m.add("cmp.l1_miss_ratio",
        cmp.l1_hits + cmp.l1_misses > 0
            ? static_cast<double>(cmp.l1_misses) /
                  static_cast<double>(cmp.l1_hits + cmp.l1_misses)
            : 0.0,
        "ratio");
  m.add("cmp.mshr_merges", static_cast<double>(cmp.mshr_merges), "count");
  m.add("cmp.inv_multicasts", static_cast<double>(cmp.inv_multicasts),
        "count");
  m.add("cmp.dram_conflicts", static_cast<double>(cmp.dram_conflicts),
        "count");
  m.add("workload.synth_s", plain.synth_s, "s");
  m.add("stats.codec_us_per_record",
        pt.records > 0 ? pt.encode_s * 1e6 / static_cast<double>(pt.records)
                       : 0.0,
        "us");

  // Subtraction runs on the first cell: the driver's minimal hooks, the
  // recorder, recorder + metrics registry. The three variants run in
  // interleaved rounds (about two seconds of runs each) so that host-speed
  // drift hits them alike.
  {
    const std::size_t rounds = std::clamp<std::size_t>(
        static_cast<std::size_t>(2.0 / std::max(plain.cells.front().run_s,
                                                1e-3)),
        1, 15);
    std::array<std::vector<double>, 3> runs;
    for (std::size_t round = 0; round < rounds; ++round) {
      for (std::size_t variant = 0; variant < runs.size(); ++variant) {
        PassOptions o;
        o.only_cell = 0;
        o.recorder = variant >= 1;
        o.registry = variant >= 2;
        runs[variant].push_back(totals_of(workload.run_pass(o)).run_s);
      }
    }
    const double bare = median(runs[0]);
    const double with_recorder = median(runs[1]);
    const double with_registry = median(runs[2]);
    m.add("stats.hook_overhead",
          bare > 0 ? (with_registry - bare) / bare : 0.0, "ratio");
    Json hooks = Json::object();
    hooks.set("cell", plain.cells.front().name);
    hooks.set("rounds", rounds);
    hooks.set("bare_run_s", bare);
    hooks.set("recorder_run_s", with_recorder);
    hooks.set("recorder_registry_run_s", with_registry);
    ledger.set("stats.hook_overhead", std::move(hooks));
  }

  // PDES ledger: the same cell at 1, 2 and 4 workers.
  const CellRecord& first = plain.cells.front();
  double wall[5] = {0, 0, 0, 0, 0};
  if (first.lanes > 1) {
    Json rows = Json::array();
    for (const unsigned workers : {1u, 2u, 4u}) {
      PassOptions o;
      o.only_cell = 0;
      o.workers = workers;
      const PassResult pass = workload.run_pass(o);
      attempted += pass.cells.size();
      failed += mismatches(pass, plain, problems);
      wall[workers] = totals_of(pass).run_s;
      const double speedup = wall[workers] > 0 ? wall[1] / wall[workers] : 0.0;
      const double model = model_speedup(first.lane_events, workers);
      Json row = Json::object();
      row.set("workers", workers);
      row.set("run_s", wall[workers]);
      row.set("wall_speedup", speedup);
      row.set("model_speedup", model);
      rows.push_back(std::move(row));
      std::printf("pdes ledger: %u worker(s) run %.3f s, wall speed-up %.2fx, "
                  "model speed-up %.2fx\n",
                  workers, wall[workers], speedup, model);
    }
    ledger.set("sim.pdes", std::move(rows));
  }
  double imbalance = 0.0;
  if (!first.lane_events.empty()) {
    std::uint64_t total = 0;
    std::uint64_t peak = 0;
    for (const std::uint64_t e : first.lane_events) {
      total += e;
      peak = std::max(peak, e);
    }
    imbalance = total > 0 ? static_cast<double>(peak) *
                                static_cast<double>(first.lane_events.size()) /
                                static_cast<double>(total)
                          : 0.0;
  }
  m.add("sim.pdes.windows", static_cast<double>(first.windows), "count");
  m.add("sim.pdes.model_speedup",
        first.lanes > 1 ? model_speedup(first.lane_events, workload.workers())
                        : 0.0,
        "x");
  m.add("sim.pdes.lane_imbalance", imbalance, "ratio");
  m.add("sim.pdes.wall_speedup_2", wall[2] > 0 ? wall[1] / wall[2] : 0.0, "x");
  m.add("sim.pdes.wall_speedup_4", wall[4] > 0 ? wall[1] / wall[4] : 0.0, "x");

  doc.set("attempted", attempted);
  doc.set("failed", failed);
  doc.set("problems", std::move(problems));
  doc.set("passes", [&] {
    Json passes = Json::array();
    passes.push_back(pass_json(plain));
    passes.push_back(pass_json(traced));
    return passes;
  }());
  doc.set("peak_rss_mb", peak_rss_mb());
  doc.set("metrics", m.take());
  doc.set("ledger", std::move(ledger));
  return doc;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  if (std::string(SPECBENCH_BUILD_TYPE) != "Release" || sanitized_build()) {
    std::fprintf(stderr,
                 "specbench: refusing to record from a '%s' build%s; "
                 "configure with -DCMAKE_BUILD_TYPE=Release\n",
                 SPECBENCH_BUILD_TYPE,
                 sanitized_build() ? " with sanitizers" : "");
    return 3;
  }
  try {
    const auto workload = make_workload(args.workload, args.seed);
    Json doc = args.trace ? traced_run(*workload, args)
                          : scored_run(*workload, args);
    if (args.crosscheck) {
      Json reference = Json::array();
      for (const std::string& fp : workload->crosscheck()) {
        reference.push_back(fp);
      }
      doc.set("crosscheck", std::move(reference));
    }
    doc.set("workload", args.workload);
    doc.set("seed", args.seed);
    doc.set("trace", args.trace);
    doc.set("build", build_stamp());
    std::printf("%s\n", specnoc::util::json_write(doc).c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "specbench: %s\n", e.what());
    return 1;
  }
  return 0;
}
