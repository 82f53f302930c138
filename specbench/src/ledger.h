// Span ledger for the traced run.
//
// Every span records a layer name, start, end, its parent span and the cell
// it belongs to. The ledger keeps per-thread aggregates (calls, total time,
// self time, log-bucketed duration histograms) for every span and stores the
// spans themselves in memory — all coarse spans, and fine per-call spans up
// to a cap — to be written out when the run ends.
//
// The decorators at the bottom wrap the simulator's public layer interfaces
// (MessageNetwork::send_message, TrafficPattern::next_dests and the three
// observer hooks) so every layer is measured from outside the simulator.
// Pattern and send calls arrive from several PDES lanes at once, so each
// thread records into its own ThreadLedger; observer hooks are additionally
// serialized by the network during partitioned runs.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "noc/hooks.h"
#include "noc/message_network.h"
#include "traffic/pattern.h"

namespace specbench {

enum class Layer : std::uint8_t {
  // Coarse spans, opened by the benchmark's main thread.
  kPass,
  kCell,
  kBuild,
  kSynth,
  kRun,
  kEncode,
  // Fine spans: one per call into a layer.
  kSend,
  kPattern,
  kTrafficObserver,
  kCmpObserver,
  kEnergyObserver,
  kMetricsObserver,
  kCount,
};

inline constexpr std::size_t kNumLayers = static_cast<std::size_t>(Layer::kCount);

const char* layer_name(Layer layer);

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Log-linear duration histogram: exact below 32 ns, then 16 buckets per
/// power of two (about 3% resolution).
class LogHist {
 public:
  void add(std::uint64_t v) { ++buckets_[index(v)]; }
  void merge(const LogHist& other);
  std::uint64_t count() const;
  /// Value at quantile q in [0, 1] (bucket midpoint), 0 when empty.
  double quantile(double q) const;

 private:
  static constexpr std::size_t kBuckets = 32 + 59 * 16;
  static std::size_t index(std::uint64_t v);
  static double midpoint(std::size_t i);
  std::array<std::uint64_t, kBuckets> buckets_{};
};

struct LayerStats {
  std::uint64_t calls = 0;
  std::int64_t total_ns = 0;
  std::int64_t self_ns = 0;
  LogHist duration;
  LogHist self;

  void merge(const LayerStats& other);
};

struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 = no parent
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint32_t cell = 0;
  Layer layer = Layer::kPass;
};

/// One thread's recording state. Owned by the Ledger, lent to a thread for
/// its lifetime, and reused by later threads (PDES workers are created per
/// run call).
struct ThreadLedger {
  struct Frame {
    Layer layer;
    std::int64_t start;
    std::int64_t child;
    std::uint64_t id;
  };
  std::uint64_t index = 0;
  std::uint64_t next_local = 0;
  std::vector<Frame> stack;
  std::array<LayerStats, kNumLayers> stats{};
  /// Summed duration of fine spans whose parent is a run span (directly on
  /// this thread's stack, or the run span open on the main thread).
  std::int64_t run_children_ns = 0;
  std::vector<Span> spans;
};

/// Aggregated view of every thread ledger, taken after all workers joined.
struct LedgerTotals {
  std::array<LayerStats, kNumLayers> stats{};
  std::int64_t run_children_ns = 0;
};

class Ledger {
 public:
  static Ledger& get();

  /// Recording is off by default; Scope is then a no-op.
  void set_enabled(bool enabled) { enabled_.store(enabled); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  void set_cell(std::uint32_t cell) { cell_.store(cell); }

  /// Drops every aggregate and stored span (thread ledgers stay pooled).
  void reset();
  LedgerTotals totals() const;
  std::vector<Span> spans() const;

  /// The calling thread's ledger (acquired from the pool on first use).
  ThreadLedger& local();

  void open(ThreadLedger& t, Layer layer);
  void close(ThreadLedger& t);

  void release(ThreadLedger* t);

 private:
  static constexpr std::size_t kFineSpanCap = 100000;

  std::atomic<bool> enabled_{false};
  std::atomic<std::uint32_t> cell_{0};
  std::atomic<std::uint64_t> open_run_{0};
  std::atomic<std::size_t> fine_spans_{0};

  mutable std::mutex mutex_;  ///< guards all_ and free_
  std::vector<std::unique_ptr<ThreadLedger>> all_;
  std::vector<ThreadLedger*> free_;
};

/// RAII span on the calling thread; no-op while the ledger is disabled.
class Scope {
 public:
  explicit Scope(Layer layer) {
    Ledger& ledger = Ledger::get();
    if (!ledger.enabled()) return;
    thread_ = &ledger.local();
    ledger.open(*thread_, layer);
  }
  ~Scope() {
    if (thread_ != nullptr) Ledger::get().close(*thread_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  ThreadLedger* thread_ = nullptr;
};

// ---------------------------------------------------------------------------
// Timing decorators around the simulator's layer interfaces.

class TracedPattern final : public specnoc::traffic::TrafficPattern {
 public:
  explicit TracedPattern(specnoc::traffic::TrafficPattern& inner)
      : inner_(inner) {}
  specnoc::noc::DestSet next_dests(std::uint32_t src,
                                   specnoc::Rng& rng) override {
    const Scope scope(Layer::kPattern);
    return inner_.next_dests(src, rng);
  }
  bool source_active(std::uint32_t src) const override {
    return inner_.source_active(src);
  }
  std::string name() const override { return inner_.name(); }

 private:
  specnoc::traffic::TrafficPattern& inner_;
};

class TracedNetwork final : public specnoc::noc::MessageNetwork {
 public:
  explicit TracedNetwork(specnoc::noc::MessageNetwork& inner)
      : inner_(inner) {}
  specnoc::noc::Network& net() override { return inner_.net(); }
  std::uint32_t endpoints() const override { return inner_.endpoints(); }
  std::uint32_t flits_per_packet() const override {
    return inner_.flits_per_packet();
  }
  specnoc::noc::MessageId send_message(std::uint32_t src,
                                       specnoc::noc::DestSet dests,
                                       bool measured) override {
    const Scope scope(Layer::kSend);
    return inner_.send_message(src, std::move(dests), measured);
  }

 private:
  specnoc::noc::MessageNetwork& inner_;
};

class TracedTraffic final : public specnoc::noc::TrafficObserver {
 public:
  TracedTraffic(specnoc::noc::TrafficObserver& inner, Layer layer)
      : inner_(inner), layer_(layer) {}
  void on_flit_ejected(const specnoc::noc::Packet& packet, std::uint32_t dest,
                       specnoc::noc::FlitKind kind,
                       specnoc::TimePs when) override {
    const Scope scope(layer_);
    inner_.on_flit_ejected(packet, dest, kind, when);
  }
  void on_packet_injected(const specnoc::noc::Packet& packet,
                          specnoc::TimePs when) override {
    const Scope scope(layer_);
    inner_.on_packet_injected(packet, when);
  }

 private:
  specnoc::noc::TrafficObserver& inner_;
  Layer layer_;
};

/// Counts node operations (for the useful-copy ratio) and, when wrapping a
/// real energy observer, times each call into it.
class CountingEnergy final : public specnoc::noc::EnergyObserver {
 public:
  explicit CountingEnergy(specnoc::noc::EnergyObserver* inner)
      : inner_(inner) {}
  void on_node_op(const specnoc::noc::Node& node, specnoc::noc::NodeOp op,
                  specnoc::TimePs when) override {
    ++ops_[static_cast<std::size_t>(op)];
    if (inner_ == nullptr) return;
    const Scope scope(Layer::kEnergyObserver);
    inner_->on_node_op(node, op, when);
  }
  void on_channel_flit(specnoc::LengthUm length,
                       specnoc::TimePs when) override {
    if (inner_ == nullptr) return;
    const Scope scope(Layer::kEnergyObserver);
    inner_->on_channel_flit(length, when);
  }
  std::uint64_t ops(specnoc::noc::NodeOp op) const {
    return ops_[static_cast<std::size_t>(op)];
  }

 private:
  specnoc::noc::EnergyObserver* inner_;
  std::array<std::uint64_t, 8> ops_{};
};

class TracedMetrics final : public specnoc::noc::MetricsObserver {
 public:
  explicit TracedMetrics(specnoc::noc::MetricsObserver& inner)
      : inner_(inner) {}
  void on_flit_killed(const specnoc::noc::Node& node,
                      const specnoc::noc::Flit& flit,
                      specnoc::TimePs when) override {
    const Scope scope(Layer::kMetricsObserver);
    inner_.on_flit_killed(node, flit, when);
  }
  void on_prealloc(const specnoc::noc::Node& node, bool hit,
                   specnoc::TimePs when) override {
    const Scope scope(Layer::kMetricsObserver);
    inner_.on_prealloc(node, hit, when);
  }
  void on_contended_grant(const specnoc::noc::Node& node,
                          specnoc::TimePs when) override {
    const Scope scope(Layer::kMetricsObserver);
    inner_.on_contended_grant(node, when);
  }
  void on_watchdog_release(const specnoc::noc::Node& node,
                           specnoc::TimePs when) override {
    const Scope scope(Layer::kMetricsObserver);
    inner_.on_watchdog_release(node, when);
  }
  void on_channel_stall(const specnoc::noc::Channel& channel,
                        specnoc::TimePs start, specnoc::TimePs end) override {
    const Scope scope(Layer::kMetricsObserver);
    inner_.on_channel_stall(channel, start, end);
  }

 private:
  specnoc::noc::MetricsObserver& inner_;
};

}  // namespace specbench
