#include "ledger.h"

#include <bit>

namespace specbench {

const char* layer_name(Layer layer) {
  switch (layer) {
    case Layer::kPass: return "bench.pass";
    case Layer::kCell: return "bench.cell";
    case Layer::kBuild: return "core.build";
    case Layer::kSynth: return "workload.synth";
    case Layer::kRun: return "sim.run";
    case Layer::kEncode: return "stats.codec";
    case Layer::kSend: return "noc.send";
    case Layer::kPattern: return "traffic.next_dests";
    case Layer::kTrafficObserver: return "stats.observer";
    case Layer::kCmpObserver: return "cmp.observer";
    case Layer::kEnergyObserver: return "power.observer";
    case Layer::kMetricsObserver: return "stats.metrics_observer";
    case Layer::kCount: break;
  }
  return "?";
}

std::size_t LogHist::index(std::uint64_t v) {
  if (v < 32) return static_cast<std::size_t>(v);
  const int e = 63 - std::countl_zero(v);  // e >= 5
  const std::uint64_t sub = (v >> (e - 4)) & 15u;
  return 32 + static_cast<std::size_t>(e - 5) * 16 +
         static_cast<std::size_t>(sub);
}

double LogHist::midpoint(std::size_t i) {
  if (i < 32) return static_cast<double>(i);
  const std::size_t e = (i - 32) / 16 + 5;
  const std::size_t sub = (i - 32) % 16;
  const double width = static_cast<double>(std::uint64_t{1} << (e - 4));
  return static_cast<double>(16 + sub) * width + width / 2.0;
}

void LogHist::merge(const LogHist& other) {
  for (std::size_t i = 0; i < kBuckets; ++i) buckets_[i] += other.buckets_[i];
}

std::uint64_t LogHist::count() const {
  std::uint64_t total = 0;
  for (const std::uint64_t b : buckets_) total += b;
  return total;
}

double LogHist::quantile(double q) const {
  const std::uint64_t total = count();
  if (total == 0) return 0.0;
  // Nearest rank: the smallest value with at least ceil(q * total) samples
  // at or below it.
  std::uint64_t rank = static_cast<std::uint64_t>(
      q * static_cast<double>(total) + 0.999999);
  if (rank < 1) rank = 1;
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    seen += buckets_[i];
    if (seen >= rank) return midpoint(i);
  }
  return midpoint(kBuckets - 1);
}

void LayerStats::merge(const LayerStats& other) {
  calls += other.calls;
  total_ns += other.total_ns;
  self_ns += other.self_ns;
  duration.merge(other.duration);
  self.merge(other.self);
}

namespace {

// Lends a pooled ThreadLedger to the current thread and returns it to the
// pool when the thread exits.
struct LocalHolder {
  ThreadLedger* ledger = nullptr;
  ~LocalHolder() {
    if (ledger != nullptr) Ledger::get().release(ledger);
  }
};

thread_local LocalHolder tls_holder;

bool is_fine(Layer layer) {
  return static_cast<std::uint8_t>(layer) >=
         static_cast<std::uint8_t>(Layer::kSend);
}

}  // namespace

Ledger& Ledger::get() {
  static Ledger ledger;
  return ledger;
}

ThreadLedger& Ledger::local() {
  if (tls_holder.ledger == nullptr) {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (!free_.empty()) {
      tls_holder.ledger = free_.back();
      free_.pop_back();
    } else {
      all_.push_back(std::make_unique<ThreadLedger>());
      all_.back()->index = all_.size();
      tls_holder.ledger = all_.back().get();
    }
  }
  return *tls_holder.ledger;
}

void Ledger::release(ThreadLedger* t) {
  const std::lock_guard<std::mutex> lock(mutex_);
  t->stack.clear();
  free_.push_back(t);
}

void Ledger::open(ThreadLedger& t, Layer layer) {
  const std::uint64_t id = (t.index << 40) | ++t.next_local;
  t.stack.push_back({layer, now_ns(), 0, id});
  if (layer == Layer::kRun) open_run_.store(id, std::memory_order_relaxed);
}

void Ledger::close(ThreadLedger& t) {
  const std::int64_t end = now_ns();
  const ThreadLedger::Frame frame = t.stack.back();
  t.stack.pop_back();
  const std::int64_t duration = end - frame.start;
  const std::int64_t self = duration - frame.child;

  LayerStats& stats = t.stats[static_cast<std::size_t>(frame.layer)];
  ++stats.calls;
  stats.total_ns += duration;
  stats.self_ns += self;
  stats.duration.add(static_cast<std::uint64_t>(duration > 0 ? duration : 0));
  stats.self.add(static_cast<std::uint64_t>(self > 0 ? self : 0));

  std::uint64_t parent = 0;
  if (!t.stack.empty()) {
    ThreadLedger::Frame& up = t.stack.back();
    up.child += duration;
    parent = up.id;
    if (up.layer == Layer::kRun) t.run_children_ns += duration;
  } else if (is_fine(frame.layer)) {
    // A PDES worker thread: its calls belong to the run span open on the
    // main thread.
    parent = open_run_.load(std::memory_order_relaxed);
    if (parent != 0) t.run_children_ns += duration;
  }
  if (frame.layer == Layer::kRun) open_run_.store(0, std::memory_order_relaxed);

  if (is_fine(frame.layer) &&
      fine_spans_.fetch_add(1, std::memory_order_relaxed) >= kFineSpanCap) {
    return;
  }
  t.spans.push_back({frame.id, parent, frame.start, end,
                     cell_.load(std::memory_order_relaxed), frame.layer});
}

void Ledger::reset() {
  const std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& t : all_) {
    t->stats = {};
    t->run_children_ns = 0;
    t->spans.clear();
  }
  fine_spans_.store(0);
}

LedgerTotals Ledger::totals() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  LedgerTotals totals;
  for (const auto& t : all_) {
    for (std::size_t i = 0; i < kNumLayers; ++i) {
      totals.stats[i].merge(t->stats[i]);
    }
    totals.run_children_ns += t->run_children_ns;
  }
  return totals;
}

std::vector<Span> Ledger::spans() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<Span> spans;
  for (const auto& t : all_) {
    spans.insert(spans.end(), t->spans.begin(), t->spans.end());
  }
  return spans;
}

}  // namespace specbench
