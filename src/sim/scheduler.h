// Discrete-event simulation kernel.
//
// A single-threaded scheduler ordered by (time, insertion sequence). The
// sequence tie-breaker makes runs bit-reproducible: two events at the same
// picosecond always fire in the order they were scheduled, which matters for
// arbitration fairness in the fanin nodes.
//
// The pending set is a hierarchical bucket queue (bucket_queue.h): O(1)
// schedule/pop for the short-delay handshake events that dominate the
// simulator, an overflow heap for far-future timers, and zero heap
// allocations per event — callbacks are sim::InplaceEvent (event.h), whose
// captures must fit 32 bytes of inline storage by construction.
//
// run() and run_until() drain one picosecond per queue pop: they detach the
// earliest bucket and fire its chain in place, so the bitmap scan, window
// advance, clock update and epoch check are paid once per picosecond, not
// once per event. step() fires a single event, for callers that check a
// condition between events; both paths observe the same (time, seq) order.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <type_traits>
#include <utility>

#include "sim/bucket_queue.h"
#include "sim/event.h"
#include "util/contract.h"
#include "util/units.h"

namespace specnoc::sim {

class PartitionedScheduler;

/// Callback invoked when an event fires. Move-only, fixed-capacity inline
/// storage — oversized captures are a compile error, not a heap allocation.
using EventFn = InplaceEvent;

/// A deterministic discrete-event scheduler with picosecond resolution.
class Scheduler {
 public:
  /// next_time() when the queue is empty: later than any real event.
  static constexpr TimePs kIdleTime = std::numeric_limits<TimePs>::max();

  Scheduler() = default;
  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// Current simulation time.
  TimePs now() const { return now_; }

  /// Schedules `fn` to run `delay` picoseconds from now (delay >= 0).
  /// The callable is constructed directly into the kernel's event slab —
  /// its captures must fit InplaceEvent's inline storage (compile error
  /// otherwise; see event.h).
  template <typename F>
  void schedule(TimePs delay, F&& fn) {
    SPECNOC_EXPECTS(delay >= 0);
    schedule_at(now_ + delay, std::forward<F>(fn));
  }

  /// Schedules `fn` at absolute time `at` (must be >= now()).
  template <typename F>
  void schedule_at(TimePs at, F&& fn) {
    SPECNOC_EXPECTS(at >= now_);
    if constexpr (std::is_same_v<std::decay_t<F>, InplaceEvent>) {
      SPECNOC_EXPECTS(static_cast<bool>(fn));
    }
    queue_.push(at, std::forward<F>(fn));
  }

  /// Observation-only callback fired before the first event at or after
  /// each epoch boundary executes (boundaries are the multiples of the
  /// configured epoch length). The argument is the start time of the epoch
  /// being entered; everything executed so far belongs to earlier epochs.
  /// The hook sees that first event popped but not yet run: executed()
  /// excludes it, pending() excludes it, and now() is still the previous
  /// event's time. The hook must not schedule events or otherwise touch the
  /// simulation — it exists for delta sampling (stats::TelemetrySampler),
  /// and enabling it changes no simulated byte: the run's event sequence is
  /// identical with and without a hook installed.
  using EpochHook = std::function<void(TimePs epoch_start)>;

  /// Installs the epoch hook. `epoch_ps` must be > 0; the next boundary is
  /// the first multiple of `epoch_ps` strictly after now().
  void set_epoch_hook(TimePs epoch_ps, EpochHook hook);
  void clear_epoch_hook();

  /// Runs the earliest pending event. Returns false if none are pending.
  /// Not callable from a handler while run() or run_until() drains.
  bool step() {
    if (queue_.empty()) return false;
    const BucketQueue::PopRef ref = queue_.pop();
    SPECNOC_ASSERT(ref.time >= now_);
    if (ref.time >= epoch_next_) cross_epoch(ref.time);
    now_ = ref.time;
    ++executed_;
    // Fire in place: the chunked slab keeps the entry's address stable
    // while the handler schedules new events; recycle only afterwards.
    queue_.invoke_and_dispose(ref);
    queue_.recycle(ref);
    return true;
  }

  /// Runs events until the queue is empty.
  void run() { drain(kIdleTime); }

  /// Runs events with time <= `t`, then advances the clock to exactly `t`.
  void run_until(TimePs t);

  /// Pre-sizes internal storage for `events` concurrently pending events
  /// (optional; the slab grows on demand and is reused thereafter).
  void reserve(std::size_t events) { queue_.reserve(events); }

  /// Number of pending events.
  std::size_t pending() const { return queue_.size(); }

  /// Pending events parked in the far-future overflow heap (telemetry: a
  /// growing overflow tier means the O(1) near window is being outrun).
  std::size_t overflow_pending() const { return queue_.overflow_size(); }

  /// Timestamp of the earliest pending event, or kIdleTime when none are
  /// pending (used by the partitioned scheduler's window computation).
  TimePs next_time() const {
    return queue_.empty() ? kIdleTime : queue_.min_time();
  }

  /// Total number of events executed so far (for kernel benchmarks).
  std::uint64_t executed() const { return executed_; }

  /// The partitioned executor this scheduler is a lane of, or null: cross-
  /// partition channels post their mail through it.
  PartitionedScheduler* partitioned() const { return partitioned_; }

 private:
  friend class PartitionedScheduler;

  /// Fires every event with time <= `horizon`, one picosecond batch at a
  /// time (BucketQueue::pop_batch).
  void drain(TimePs horizon);

  /// Cold path of the epoch check: advances epoch_next_ past `t` and fires
  /// the hook once with the largest crossed boundary. Out of line so the
  /// hot path pays one predictable compare.
  void cross_epoch(TimePs t);

  TimePs now_ = 0;
  std::uint64_t executed_ = 0;
  /// kIdleTime when no hook is installed, so the epoch check is one
  /// always-false compare on unsampled runs.
  TimePs epoch_next_ = kIdleTime;
  TimePs epoch_ps_ = 0;
  EpochHook epoch_hook_;
  BucketQueue queue_;
  PartitionedScheduler* partitioned_ = nullptr;
};

}  // namespace specnoc::sim
