// Speculation-mechanism metrics: typed counters and fixed-bucket histograms
// keyed by (node kind, tree level) and by channel class.
//
// MetricsRegistry implements noc::MetricsObserver; attach it to
// SimHooks::metrics before running and take a MetricsSnapshot afterwards.
// It takes concurrent hook calls from the workers of a partitioned run
// without a lock: each worker (sim::current_worker()) counts into its own
// shard of flat integer arrays, indexed by (node kind, tree level) site and
// by noc::ChannelClass, and snapshot()/telemetry_counters() sum the shards
// while the run is quiescent. Integer sums do not depend on how events
// split across workers, so snapshots are identical at any worker count.
// The snapshot is plain sorted data — deterministic for a deterministic
// simulation — and serializes exactly through util::Json (see
// stats/serialization.h), so it rides sweep JSONL records and sweep_merge
// byte-identically. Collection is purely observational: attaching a
// registry changes no simulation outcome.
//
// This is the measurement substrate for the paper's confinement claim:
// kills per tree level show redundant multicast copies dying at the first
// non-speculative level below each speculative one (DAC'16 §4).
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "util/units.h"
#include "noc/hooks.h"
#include "stats/telemetry.h"

namespace specnoc::stats {

/// Stall-duration histogram: bucket b counts stalls with duration in
/// [unit*2^b, unit*2^(b+1)) ps (bucket 0 also takes shorter stalls, the
/// last bucket is open-ended).
inline constexpr std::size_t kNumStallBuckets = 8;
inline constexpr TimePs kStallBucketUnitPs = 100;

std::size_t stall_bucket(TimePs duration);

/// Human-readable bucket bound, e.g. "<200ps" ... ">=12800ps".
std::string stall_bucket_label(std::size_t bucket);

/// Per-(kind, level) event counters.
struct SiteCounters {
  std::uint64_t kills = 0;              ///< throttled misrouted flits
  std::uint64_t prealloc_hits = 0;      ///< pre-allocated fast-forwards
  std::uint64_t prealloc_misses = 0;    ///< header route computations
  std::uint64_t contended_grants = 0;   ///< grants that resolved contention
  std::uint64_t watchdog_releases = 0;  ///< starvation watchdog firings

  bool any() const {
    return kills != 0 || prealloc_hits != 0 || prealloc_misses != 0 ||
           contended_grants != 0 || watchdog_releases != 0;
  }

  SiteCounters& operator+=(const SiteCounters& other) {
    kills += other.kills;
    prealloc_hits += other.prealloc_hits;
    prealloc_misses += other.prealloc_misses;
    contended_grants += other.contended_grants;
    watchdog_releases += other.watchdog_releases;
    return *this;
  }
};

/// One aggregation site: all nodes of `kind` at tree level `level`
/// (level -1 collects unlevelled nodes such as mesh routers).
struct MetricsSite {
  noc::NodeKind kind = noc::NodeKind::kSource;
  std::int32_t level = -1;
  SiteCounters counters;
};

/// Backpressure-stall statistics for one channel class (`klass` is
/// noc::to_string of the class).
struct ChannelClassMetrics {
  std::string klass;
  std::uint64_t stalls = 0;         ///< completed stall intervals
  std::uint64_t stall_time_ps = 0;  ///< summed interval durations
  std::array<std::uint64_t, kNumStallBuckets> histogram{};
};

/// One slab pool of the network arena (see noc/arena.h), harvested after a
/// run: `label` is the node-kind string (or "channel"), `bytes` the live
/// object bytes, `reserved_bytes` the slab capacity including the unused
/// tail of the last chunk. Purely a memory-layout observation — identical
/// simulations report identical arena shapes.
struct ArenaPoolMetrics {
  std::string label;
  std::uint64_t objects = 0;
  std::uint64_t bytes = 0;
  std::uint64_t reserved_bytes = 0;
};

/// Memory-hierarchy counters of a cmp co-simulation run (see cmp/system.h).
/// All zero unless the run drove a CmpSystem; serialized only when
/// non-empty, so non-cmp records keep their byte layout.
struct CmpMetrics {
  std::uint64_t accesses = 0;
  std::uint64_t l1_hits = 0;
  std::uint64_t l1_misses = 0;
  std::uint64_t mshr_merges = 0;
  std::uint64_t inv_messages = 0;
  std::uint64_t inv_multicasts = 0;
  std::uint64_t inv_targets = 0;
  std::uint64_t writebacks = 0;
  std::uint64_t dram_reads = 0;
  std::uint64_t dram_writes = 0;
  std::uint64_t dram_conflicts = 0;
  std::uint64_t barriers = 0;
  std::uint64_t lock_acquires = 0;
  std::uint64_t lock_contended = 0;

  bool empty() const { return accesses == 0; }
};

/// Execution-shape statistics of a partitioned (PDES) run: how the window
/// protocol behaved, not what the simulation computed. `lanes == 0` means
/// the run was sequential. Everything here is a function of the topology
/// and the partition strategy alone — deliberately independent of the
/// worker-thread count, so snapshots of the same partitioned simulation are
/// equal at any thread count.
struct PdesMetrics {
  std::uint32_t lanes = 0;
  TimePs lookahead_ps = 0;
  std::uint64_t windows = 0;
  std::vector<std::uint64_t> lane_events;        ///< events executed per lane
  std::vector<std::uint64_t> lane_idle_windows;  ///< windows a lane sat idle

  bool empty() const { return lanes == 0; }
};

/// Immutable per-run aggregate. Sites are sorted by (kind, level) and
/// channel classes by name, so equal simulations produce equal snapshots.
struct MetricsSnapshot {
  std::vector<MetricsSite> sites;
  std::vector<ChannelClassMetrics> channels;
  PdesMetrics pdes;  ///< window/stall shape of partitioned runs
  /// Epoch-sampled time series (empty unless the run was sampled — see
  /// stats/telemetry.h). Serialized only when non-empty, so unsampled
  /// records keep their pre-telemetry byte layout.
  TelemetrySeries telemetry;
  /// noc::DestSet heap spills attributed to this run. The underlying
  /// counter is process-wide, so the per-run delta is exact for serial
  /// execution (--jobs 1) and an upper bound when other runs execute
  /// concurrently; at radix <= 64 it is exactly zero either way (the
  /// zero-alloc invariant the CI smoke checks).
  std::uint64_t dest_spills = 0;
  /// Raw bytes those spills allocated (same per-run-delta caveats). With
  /// pooling on this is the growth of the spill pool's footprint during
  /// the run, not traffic volume.
  std::uint64_t dest_spill_bytes = 0;
  /// Per-pool arena usage of the run's network (empty when not harvested —
  /// serialized only when present, keeping older records byte-stable).
  std::vector<ArenaPoolMetrics> arena;
  /// Cache/directory/DRAM counters of cmp co-simulation runs (empty
  /// otherwise; serialized only when non-empty).
  CmpMetrics cmp;

  bool empty() const { return sites.empty() && channels.empty(); }

  std::uint64_t total_kills() const;
  /// Kills summed over every kind at one tree level — the per-level
  /// confinement profile.
  std::uint64_t kills_at_level(std::int32_t level) const;
  std::uint64_t total_prealloc_hits() const;
  std::uint64_t total_prealloc_misses() const;
  std::uint64_t total_contended_grants() const;
  std::uint64_t total_watchdog_releases() const;
  std::uint64_t total_stalls() const;

  const MetricsSite* find_site(noc::NodeKind kind, std::int32_t level) const;
};

class MetricsRegistry final : public noc::MetricsObserver {
 public:
  MetricsRegistry();
  ~MetricsRegistry() override;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // Hook calls: safe concurrently from different workers; one worker's
  // calls must not overlap each other.

  void on_flit_killed(const noc::Node& node, const noc::Flit& flit,
                      TimePs when) override;
  void on_prealloc(const noc::Node& node, bool hit, TimePs when) override;
  void on_contended_grant(const noc::Node& node, TimePs when) override;
  void on_watchdog_release(const noc::Node& node, TimePs when) override;
  void on_channel_stall(const noc::Channel& channel, TimePs start,
                        TimePs end) override;

  /// Attaches the window-protocol shape of a partitioned run (called by
  /// the experiment layer after the run; no-op data until then).
  void record_pdes(PdesMetrics pdes) { pdes_ = std::move(pdes); }

  /// Attaches the run's sampled time series (TelemetrySampler::finish()).
  void record_telemetry(TelemetrySeries telemetry) {
    telemetry_ = std::move(telemetry);
  }

  /// Attaches the run's DestSet spill delta (see MetricsSnapshot field).
  void record_dest_spills(std::uint64_t spills) { dest_spills_ = spills; }
  void record_dest_spill_bytes(std::uint64_t bytes) {
    dest_spill_bytes_ = bytes;
  }

  /// Attaches the network's arena usage (see MetricsSnapshot field).
  void record_arena(std::vector<ArenaPoolMetrics> arena) {
    arena_ = std::move(arena);
  }

  /// Attaches the cmp co-simulation counters (see MetricsSnapshot field).
  void record_cmp(CmpMetrics cmp) { cmp_ = cmp; }

  /// Sums the shards. Call only while no worker is emitting: after the
  /// run, or from the window barrier's serial section.
  MetricsSnapshot snapshot() const;

  /// Running totals for the epoch sampler (TelemetrySampler diffs these at
  /// epoch boundaries); much cheaper than snapshot(). Same quiescence
  /// requirement as snapshot().
  TelemetryCounters telemetry_counters() const;

 private:
  struct Shard;

  /// The calling worker's shard: a thread-local cache hit on the hot path,
  /// a registration under mutex_ on a thread's first call.
  Shard& shard();
  Shard& register_shard(std::uint32_t worker);

  const std::uint64_t id_;  ///< process-unique, keys the thread-local cache
  mutable std::mutex mutex_;  ///< guards shards_ (not the shards' counters)
  std::vector<std::unique_ptr<Shard>> shards_;  ///< indexed by worker
  PdesMetrics pdes_;
  TelemetrySeries telemetry_;
  std::uint64_t dest_spills_ = 0;
  std::uint64_t dest_spill_bytes_ = 0;
  std::vector<ArenaPoolMetrics> arena_;
  CmpMetrics cmp_;
};

}  // namespace specnoc::stats
