// Time-resolved telemetry: epoch-sampled delta counters, a bounded
// flight-recorder ring, and a live NDJSON frame stream.
//
// TelemetrySampler slices the run-total counters that MetricsRegistry
// aggregates (kills, prealloc hits, contended grants, per-class stall
// occupancy) into fixed simulated-time epochs, and at each epoch boundary
// also probes the kernel itself: events executed, event-queue depth,
// overflow-tier depth, and — for partitioned runs — per-lane executed and
// window counts. The sampler reads the registry's running totals at each
// boundary and stores the deltas; it installs no per-event observer of its
// own, so a sampled run pays nothing on the event path beyond the
// scheduler's one epoch compare per step. arm() it on the network and the
// registry before running.
//
// Sampling is observational by construction: the epoch hook never schedules
// events and only reads counters the registry was accumulating anyway, so
// enabling telemetry changes no simulated byte (tested by
// telemetry_neutrality_test). On sequential kernels epochs close exactly at
// each boundary; on partitioned kernels they close at window granularity
// (see sim::PartitionedScheduler::set_epoch_hook) but identically for any
// worker-thread count.
//
// Epochs land in a bounded ring (TelemetryOptions::ring_capacity). When the
// ring fills, the oldest epoch is evicted and counted in
// TelemetrySeries::dropped, so the retained suffix doubles as a flight
// recorder: on a failed run the experiment layer dumps the last epochs to
// stderr (dump_flight_recorder) before rethrowing.
//
// Layering: this header must not include stats/metrics.h —
// MetricsSnapshot embeds a TelemetrySeries, so metrics.h includes this
// file. The .cpp uses metrics.h freely.
#pragma once

#include <array>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/json.h"
#include "util/units.h"
#include "noc/hooks.h"

namespace specnoc::noc {
class Network;
}  // namespace specnoc::noc

namespace specnoc::stats {

class MetricsRegistry;

/// The registry's running totals a sampler diffs at epoch boundaries
/// (MetricsRegistry::telemetry_counters()). Cheap to build: five integers
/// plus stall time indexed by noc::ChannelClass.
struct TelemetryCounters {
  std::uint64_t kills = 0;
  std::uint64_t prealloc_hits = 0;
  std::uint64_t prealloc_misses = 0;
  std::uint64_t contended_grants = 0;
  std::uint64_t watchdog_releases = 0;
  std::array<std::uint64_t, noc::all_channel_classes().size()>
      stall_time_ps{};
};

struct TelemetryOptions {
  /// Epoch length in simulated picoseconds; 0 disables sampling entirely
  /// (an unarmed sampler costs nothing and yields an empty series).
  TimePs epoch_ps = 0;
  /// Maximum epochs retained in the ring; older epochs are evicted (and
  /// counted as dropped) once the ring is full. Must be >= 1 when sampling
  /// is enabled.
  std::size_t ring_capacity = 4096;

  bool enabled() const { return epoch_ps > 0; }
};

/// One closed sampling interval [start_ps, end_ps). Counter fields are
/// deltas over the interval; depth fields are instantaneous probes taken at
/// the moment the interval closed. Intervals normally span exactly one
/// epoch, but a burst-free stretch of simulated time closes as a single
/// wider interval (the hook fires when an event first lands at or past a
/// boundary), and the final interval of a run closes at the run's end time.
struct TelemetryEpoch {
  TimePs start_ps = 0;
  TimePs end_ps = 0;

  std::uint64_t events = 0;  ///< kernel events executed in the interval
  std::uint64_t kills = 0;
  std::uint64_t prealloc_hits = 0;
  std::uint64_t prealloc_misses = 0;
  std::uint64_t contended_grants = 0;
  std::uint64_t watchdog_releases = 0;

  std::uint64_t pending = 0;           ///< event-queue depth at close
  std::uint64_t overflow_pending = 0;  ///< overflow-tier depth at close

  /// Stall time accumulated per channel class in the interval, sorted by
  /// class name (deterministic). Classes with zero stall time are omitted.
  std::vector<std::pair<std::string, std::uint64_t>> stall_time_ps;

  /// Partitioned runs only: per-lane events executed in the interval and
  /// windows the executor closed. Empty/zero on sequential kernels.
  std::vector<std::uint64_t> lane_events;
  std::uint64_t windows = 0;

  /// Events per simulated second over the interval (derived, not stored).
  double events_per_second() const;

  bool operator==(const TelemetryEpoch&) const = default;
};

/// The per-run time series: the retained epoch ring plus enough metadata to
/// interpret it. Rides MetricsSnapshot and therefore sweep JSONL records;
/// empty() series are omitted from serialization so pre-telemetry records
/// stay byte-stable.
struct TelemetrySeries {
  TimePs epoch_ps = 0;  ///< 0 = sampling was not enabled
  std::uint64_t epochs_total = 0;  ///< intervals observed, incl. dropped
  std::uint64_t dropped = 0;       ///< intervals evicted from the ring
  std::vector<TelemetryEpoch> epochs;  ///< retained suffix, in time order

  bool empty() const { return epoch_ps == 0; }

  bool operator==(const TelemetrySeries&) const = default;
};

/// Exact JSON codec for the series (integers stay integers, so round trips
/// are byte-identical under util::json_write). Used by the MetricsSnapshot
/// codec, the NDJSON run frames, and sweep_merge validation.
util::Json telemetry_series_to_json(const TelemetrySeries& series);
TelemetrySeries telemetry_series_from_json(const util::Json& json);

class TelemetrySampler final {
 public:
  explicit TelemetrySampler(TelemetryOptions options);

  const TelemetryOptions& options() const { return options_; }

  /// Installs the epoch hook on `net` and remembers the network as the
  /// kernel probe source and `registry` as the counter source (it must be
  /// attached as the network's metrics observer, directly or via a tee).
  /// Requires options().enabled(); call once, after the network is built
  /// and before it runs. The sampler must outlive the run (the hook holds
  /// a pointer to it).
  void arm(noc::Network& net, const MetricsRegistry& registry);

  /// Closes the final partial interval at the network's current time,
  /// removes the epoch hook, and returns the collected series. The sampler
  /// is inert afterwards.
  TelemetrySeries finish();

  /// True between arm() and finish().
  bool armed() const { return net_ != nullptr; }

  /// Flight recorder: writes the retained epochs (most recent last) to
  /// `out` in a compact human-readable form. Safe to call at any point,
  /// including from a catch block mid-run.
  void dump_flight_recorder(std::FILE* out) const;

 private:
  /// Epoch-hook body: closes the interval ending at `boundary`.
  void sample(TimePs boundary);
  void close_interval(TimePs end);
  void push_epoch(TelemetryEpoch epoch);

  TelemetryOptions options_;
  noc::Network* net_ = nullptr;
  const MetricsRegistry* registry_ = nullptr;
  TelemetrySeries series_;  ///< metadata; finish() moves the ring in

  /// Retained epochs: appended until the ring is full, then each new epoch
  /// overwrites the oldest, at ring_head_ (time order starts there).
  std::vector<TelemetryEpoch> ring_;
  std::size_t ring_head_ = 0;

  // Baselines at the open interval's start; deltas are taken at close.
  TimePs interval_start_ = 0;
  std::uint64_t events_at_start_ = 0;
  std::vector<std::uint64_t> lane_events_at_start_;
  std::uint64_t windows_at_start_ = 0;
  TelemetryCounters counters_at_start_;
};

/// NDJSON telemetry frames. A stream is bracketed by one `start` and one
/// `end` frame, with one `run` frame per completed run in completion order
/// (nondeterministic under --jobs > 1 — consumers must key on the frame's
/// grid and cell, not its position). It is the harnesses' one live view of
/// a sweep's progress: each run frame carries its grid's `grid_runs`, so a
/// reader can count k/N per grid.
enum class TelemetryFrameKind : std::uint8_t { kStart, kRun, kEnd };

const char* to_string(TelemetryFrameKind kind);

struct TelemetryFrame {
  TelemetryFrameKind kind = TelemetryFrameKind::kRun;
  util::Json body;  ///< the full frame object, "frame" key included
};

/// Serializes one frame as a single NDJSON line (no trailing newline). The
/// "frame" discriminator is written first; `body` must be an object and
/// must not already contain a "frame" key.
std::string telemetry_frame_write(TelemetryFrameKind kind, util::Json body);

/// Strict inverse: parses one NDJSON line into a frame. Throws ConfigError
/// on malformed JSON, a missing/unknown "frame" discriminator, or a
/// non-object line.
TelemetryFrame telemetry_frame_parse(std::string_view line);

/// The `sweep_merge --follow` rendering of a frame stream: a banner for
/// the start frame, one line per run frame (grid, k/N completed runs of
/// that grid, cell, key, status, events, wall time, and an events-per-epoch
/// sparkline when the frame carries a series), and the sweep's totals for
/// the end frame. Status is the frame's run status: "ok", "retried" (ok on
/// a later attempt) or "failed"; only "failed" counts as a failure.
class FollowView {
 public:
  /// The frame's rendered lines, each newline-terminated.
  std::string render(const TelemetryFrame& frame);

  /// True once the end frame was rendered.
  bool done() const { return done_; }

 private:
  std::map<std::string, std::uint64_t> completed_;  ///< run frames per grid
  std::uint64_t runs_ = 0;
  std::uint64_t failed_ = 0;
  std::uint64_t retried_ = 0;
  std::uint64_t events_ = 0;
  double wall_ms_ = 0.0;
  bool done_ = false;
};

/// Append-only NDJSON sink for telemetry frames. "-" writes to stdout
/// (unbuffered per line, so `bench_... --telemetry-out - | sweep_merge
/// --follow -` streams live; a harness given "-" moves its tables to stderr
/// so stdout carries frames only); anything else is opened as a file for
/// writing. Thread-safe: each
/// frame is one serialized write + flush, so frames from concurrent worker
/// threads never interleave mid-line.
class TelemetryStream {
 public:
  /// Throws ConfigError when the path cannot be opened.
  explicit TelemetryStream(const std::string& path);
  ~TelemetryStream();
  TelemetryStream(const TelemetryStream&) = delete;
  TelemetryStream& operator=(const TelemetryStream&) = delete;

  void emit(TelemetryFrameKind kind, util::Json body);

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace specnoc::stats
