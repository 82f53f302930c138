// Conservative parallel discrete-event execution over partition-local
// scheduler lanes.
//
// The network is statically partitioned at build time; every node's events
// live in exactly one lane (a plain sim::Scheduler with its own
// BucketQueue). Lanes advance together through lockstep time windows
// [T, T + lookahead - 1], where T is the global minimum next-event time and
// `lookahead` is the minimum latency of any cross-partition channel. Within
// a window no lane can affect another — every cross-partition effect lands
// at least `lookahead` picoseconds after the send — so the lanes of one
// window execute in parallel without synchronization.
//
// Cross-partition traffic goes through mailboxes owned by the cross-channel
// halves (see noc::Channel::make_cross_partition). Producers append during
// window execution and mark the consumer's drain dirty via note_dirty();
// the window barrier's serial section then runs the dirty drains in a
// canonical order — channel registration order, which is identical for any
// thread count — before computing the next window. Drains convert mailbox
// entries into ordinary lane-local events, which restores the sequential
// (time, insertion-seq) order on the consumer side.
//
// Determinism contract: the partition count and drain order depend only on
// the topology, never on the thread count, so results are identical at any
// thread count — the thread count only changes how many OS threads execute
// the (fixed) lane set of each window.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "sim/scheduler.h"
#include "util/units.h"

namespace specnoc::sim {

namespace detail {
inline thread_local std::uint32_t current_worker = 0;
}  // namespace detail

/// Index of the window-executor worker running on this thread. The worker
/// loop sets it (worker 0 runs on the calling thread); every other thread
/// reads 0, so sequential runs are worker 0. Hook observers key per-worker
/// state on it to take concurrent calls without a lock (see
/// stats::MetricsRegistry).
inline std::uint32_t current_worker() { return detail::current_worker; }

/// Sets this thread's worker index: the worker loop does, and tests that
/// stand in for workers may.
inline void set_current_worker(std::uint32_t worker) {
  detail::current_worker = worker;
}

/// Lockstep-window conservative PDES executor over K scheduler lanes.
class PartitionedScheduler {
 public:
  /// Lane 0 is an externally owned scheduler (the network's); lanes 1..K-1
  /// are created here. `lookahead` must be > 0 (the caller falls back to
  /// sequential execution otherwise).
  PartitionedScheduler(Scheduler& lane0, std::uint32_t lanes,
                       TimePs lookahead);
  PartitionedScheduler(const PartitionedScheduler&) = delete;
  PartitionedScheduler& operator=(const PartitionedScheduler&) = delete;
  ~PartitionedScheduler();

  std::uint32_t lanes() const {
    return static_cast<std::uint32_t>(lanes_.size());
  }
  TimePs lookahead() const { return lookahead_; }
  Scheduler& lane(std::uint32_t i) { return *lanes_[i]; }

  /// Worker threads used per window; clamped to [1, lanes]. 1 runs the same
  /// worker loop, with the identical window schedule, on the calling thread
  /// alone.
  void set_threads(std::uint32_t threads);
  std::uint32_t threads() const { return threads_; }

  /// Registers a mailbox drain. Drains run in registration order inside the
  /// window barrier's serial section, so registration order (channel
  /// creation order) is the canonical cross-partition merge order. Returns
  /// the drain id for note_dirty().
  std::uint32_t add_drain(std::function<void()> drain);

  /// Marks drain `id` as having pending mailbox entries. Must be called
  /// from lane `producer_lane`'s executing thread (each producer lane owns
  /// a private staging list) and only on an empty-to-nonempty transition.
  void note_dirty(std::uint32_t producer_lane, std::uint32_t id);

  /// Runs windows until every lane is idle and every mailbox drained.
  void run();

  /// Runs every event with time <= t, then advances all lane clocks to
  /// exactly t (mirrors Scheduler::run_until).
  void run_until(TimePs t);

  /// Global clock: the max over lane clocks (== t after run_until(t)).
  TimePs now() const;

  /// Totals across lanes (event counts match sequential execution 1:1).
  std::uint64_t executed() const;
  std::size_t pending() const;

  /// Introspection for stats/bench: windows executed, per-lane event
  /// totals, and per-lane count of windows in which the lane ran nothing.
  std::uint64_t windows() const { return windows_; }
  std::vector<std::uint64_t> per_lane_executed() const;
  const std::vector<std::uint64_t>& per_lane_idle_windows() const {
    return idle_windows_;
  }
  /// Summed overflow-heap occupancy across lanes (telemetry only).
  std::size_t overflow_pending() const;

  /// Observation-only epoch callback, mirroring Scheduler::set_epoch_hook.
  /// Fires inside the window barrier's serial section — every other worker
  /// is quiesced at the barrier — before opening the first window whose
  /// start time lies at or beyond an epoch boundary. Epochs therefore close
  /// at window granularity: up to lookahead-1 ps of an epoch's tail may be
  /// attributed to the previous epoch. The window sequence is a pure
  /// function of the topology, so sampling points (and anything the hook
  /// records) are identical at any worker-thread count.
  void set_epoch_hook(TimePs epoch_ps, Scheduler::EpochHook hook);
  void clear_epoch_hook();

 private:
  /// Serial (single-threaded) portion of the window barrier: drains dirty
  /// mailboxes in canonical order, then opens the next window. Returns
  /// false when no events <= horizon remain.
  bool advance_window(TimePs horizon);
  void run_windows(TimePs horizon);
  void worker_loop(std::uint32_t worker, std::uint32_t num_workers,
                   TimePs horizon);
  void run_lane_window(std::uint32_t lane, TimePs window_end);
  void drain_staged();

  std::vector<Scheduler*> lanes_;  ///< lanes_[0] external, rest in owned_
  std::vector<std::unique_ptr<Scheduler>> owned_;
  TimePs lookahead_ = 0;
  std::uint32_t threads_ = 1;

  std::vector<std::function<void()>> drains_;
  /// staged_[producer_lane] = drain ids noted dirty this window. Writing is
  /// lane-owner-private during execution; the serial section merges them.
  std::vector<std::vector<std::uint32_t>> staged_;

  std::uint64_t windows_ = 0;
  std::vector<std::uint64_t> idle_windows_;

  /// Epoch sampling state (serial-section only; see set_epoch_hook).
  TimePs epoch_next_ = Scheduler::kIdleTime;
  TimePs epoch_ps_ = 0;
  Scheduler::EpochHook epoch_hook_;

  // Barrier state of the worker loop. Workers arrive by incrementing
  // arrivals_; the last arriver runs the serial section and publishes the
  // next window by bumping generation_ (release), which the spinners
  // observe (acquire). window_end_/done_ are plain fields written only in
  // the serial section, ordered by that release/acquire pair.
  std::atomic<std::uint32_t> arrivals_{0};
  std::atomic<std::uint64_t> generation_{0};
  TimePs window_end_ = 0;
  bool done_ = false;
};

}  // namespace specnoc::sim
