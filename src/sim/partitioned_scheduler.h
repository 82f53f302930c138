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
// Cross-partition effects travel as Mail: fixed-size records a producer
// lane appends to its outbox for the worker that owns the consumer lane
// (see noc::Channel::make_cross_partition). Each window has two phases,
// separated by barriers: every worker runs its lanes, then every worker
// stable-sorts the mail addressed to its lanes by key and hands it to the
// mail handler, which turns it into ordinary lane-local events. The second
// barrier's serial section only computes the next window (and fires the
// epoch hook). Keys are assigned at build time in channel-creation order,
// so within every consumer lane mail is applied in an order that depends
// only on the topology — the canonical cross-partition merge — which
// restores the sequential (time, insertion-seq) order on the consumer side.
//
// Determinism contract: the partition count and merge order depend only on
// the topology, never on the thread count, so results are identical at any
// thread count — the thread count only changes how many OS threads execute
// the (fixed) lane set of each window.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "sim/scheduler.h"
#include "util/contract.h"
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

/// One cross-lane effect, posted by a producer lane during a window and
/// applied after the window's lanes have all finished, on the worker that
/// owns the consumer lane. The executor never looks inside `target` or
/// `payload`; the mail handler casts them back.
struct Mail {
  void* target = nullptr;  ///< the object the handler acts on
  TimePs time = 0;         ///< producer-side time stamp of the effect
  std::uint32_t key = 0;   ///< canonical merge key (see post())
  alignas(8) std::array<std::byte, 16> payload{};  ///< e.g. a flit
};

/// Applies one piece of mail; runs on the consumer lane's worker thread.
using MailHandler = void (*)(const Mail&);

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

  /// Installs the function every posted Mail is applied with.
  void set_mail_handler(MailHandler handler) { mail_handler_ = handler; }

  /// Posts `mail` from lane `producer_lane` to lane `consumer_lane`. Must be
  /// called from the producer lane's executing thread: each producer lane
  /// owns one outbox per worker, so posting takes no lock. After the
  /// window, the consumer lane's worker applies its mail in key order —
  /// mail sharing a key in posting order — so each key must have a single
  /// producer lane, and keys must be a function of the topology alone.
  void post(std::uint32_t producer_lane, std::uint32_t consumer_lane,
            const Mail& mail) {
    SPECNOC_ASSERT(producer_lane < lanes() && consumer_lane < lanes());
    outbox_[worker_of_[consumer_lane] * lanes() + producer_lane].push_back(
        mail);
  }

  /// Runs windows until every lane is idle and all mail is applied.
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
  /// Fires inside the second window barrier's serial section — every other
  /// worker is quiesced at the barrier, with the window's mail applied —
  /// before opening the first window whose start time lies at or beyond an
  /// epoch boundary. Epochs therefore close at window granularity: up to
  /// lookahead-1 ps of an epoch's tail may be attributed to the previous
  /// epoch. The window sequence is a pure function of the topology, so
  /// sampling points (and anything the hook records) are identical at any
  /// worker-thread count.
  void set_epoch_hook(TimePs epoch_ps, Scheduler::EpochHook hook);
  void clear_epoch_hook();

 private:
  /// Serial (single-threaded) portion of the second window barrier: opens
  /// the next window. Returns false when no events <= horizon remain.
  bool advance_window(TimePs horizon);
  void run_windows(TimePs horizon);
  /// Routes mail to `num_workers` workers: lane -> contiguous lane block.
  void route_mail(std::uint32_t num_workers);
  void worker_loop(std::uint32_t worker, std::uint32_t num_workers,
                   TimePs horizon);
  void run_lane_window(std::uint32_t lane, TimePs window_end);
  /// Applies, in key order, the mail every lane posted to `worker`;
  /// `inbox` is the worker's reusable gather buffer.
  void deliver_mail(std::uint32_t worker, std::vector<Mail>& inbox);
  /// Barrier over `num_workers`; the last arriver runs `serial` first.
  template <typename Serial>
  void barrier(std::uint32_t num_workers, std::uint64_t& gen,
               Serial&& serial);

  std::vector<Scheduler*> lanes_;  ///< lanes_[0] external, rest in owned_
  std::vector<std::unique_ptr<Scheduler>> owned_;
  TimePs lookahead_ = 0;
  std::uint32_t threads_ = 1;

  MailHandler mail_handler_ = nullptr;
  /// worker_of_[lane] = worker owning the lane in the current run call.
  std::vector<std::uint32_t> worker_of_;
  /// outbox_[consumer_worker * lanes + producer_lane]: written only by the
  /// producer lane's worker while lanes run, read and cleared only by the
  /// consumer worker after the first barrier. Consumer-major, so a
  /// worker's delivery pass walks one contiguous block.
  std::vector<std::vector<Mail>> outbox_;

  std::uint64_t windows_ = 0;
  std::vector<std::uint64_t> idle_windows_;

  /// Epoch sampling state (serial-section only; see set_epoch_hook).
  TimePs epoch_next_ = Scheduler::kIdleTime;
  TimePs epoch_ps_ = 0;
  Scheduler::EpochHook epoch_hook_;

  // Barrier state of the worker loop. Workers arrive by incrementing
  // arrivals_; the last arriver runs the serial section, if any, and
  // releases the others by bumping generation_ (release), which the
  // spinners observe (acquire). window_end_/done_ are plain fields written
  // only in the serial section, and mail is written before and read after
  // a barrier, all ordered by that release/acquire pair.
  std::atomic<std::uint32_t> arrivals_{0};
  std::atomic<std::uint64_t> generation_{0};
  TimePs window_end_ = 0;
  bool done_ = false;
};

}  // namespace specnoc::sim
