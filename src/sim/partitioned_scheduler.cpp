#include "sim/partitioned_scheduler.h"

#include <algorithm>
#include <thread>

#include "util/contract.h"

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

namespace specnoc::sim {
namespace {

inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  _mm_pause();
#endif
}

}  // namespace

PartitionedScheduler::PartitionedScheduler(Scheduler& lane0,
                                           std::uint32_t lanes,
                                           TimePs lookahead)
    : lookahead_(lookahead) {
  SPECNOC_EXPECTS(lanes >= 1);
  SPECNOC_EXPECTS(lookahead > 0);
  lanes_.reserve(lanes);
  lanes_.push_back(&lane0);
  owned_.reserve(lanes - 1);
  for (std::uint32_t i = 1; i < lanes; ++i) {
    owned_.push_back(std::make_unique<Scheduler>());
    lanes_.push_back(owned_.back().get());
  }
  for (Scheduler* lane : lanes_) lane->partitioned_ = this;
  idle_windows_.assign(lanes, 0);
  route_mail(1);
}

PartitionedScheduler::~PartitionedScheduler() {
  lanes_[0]->partitioned_ = nullptr;
}

void PartitionedScheduler::set_threads(std::uint32_t threads) {
  threads_ = std::max<std::uint32_t>(1, threads);
}

void PartitionedScheduler::route_mail(std::uint32_t num_workers) {
  // The same contiguous lane blocks worker_loop executes. Every outbox is
  // empty here, so resizing moves no mail.
  worker_of_.resize(lanes());
  for (std::uint32_t w = 0; w < num_workers; ++w) {
    for (std::uint32_t lane = w * lanes() / num_workers;
         lane < (w + 1) * lanes() / num_workers; ++lane) {
      worker_of_[lane] = w;
    }
  }
  outbox_.resize(static_cast<std::size_t>(num_workers) * lanes());
}

void PartitionedScheduler::deliver_mail(std::uint32_t worker,
                                        std::vector<Mail>& inbox) {
  const std::size_t first = static_cast<std::size_t>(worker) * lanes();
  for (std::size_t i = first; i < first + lanes(); ++i) {
    std::vector<Mail>& box = outbox_[i];
    inbox.insert(inbox.end(), box.begin(), box.end());
    box.clear();
  }
  if (inbox.empty()) return;
  SPECNOC_ASSERT(mail_handler_ != nullptr);
  // Key order is the canonical cross-partition merge, identical for every
  // thread count. The sort is stable and a key has one producer lane, so
  // mail sharing a key keeps its posting order.
  std::stable_sort(inbox.begin(), inbox.end(),
                   [](const Mail& a, const Mail& b) { return a.key < b.key; });
  for (const Mail& mail : inbox) mail_handler_(mail);
  inbox.clear();
}

bool PartitionedScheduler::advance_window(TimePs horizon) {
  TimePs min_next = Scheduler::kIdleTime;
  for (const Scheduler* lane : lanes_) {
    min_next = std::min(min_next, lane->next_time());
  }
  if (min_next == Scheduler::kIdleTime || min_next > horizon) return false;
  if (min_next >= epoch_next_) {
    // Serial section: every worker is quiesced at the barrier, so the hook
    // observes a consistent cross-lane state. Everything executed so far
    // happened in windows that started before the boundary.
    const TimePs boundary = min_next - min_next % epoch_ps_;
    epoch_next_ = boundary + epoch_ps_;
    epoch_hook_(boundary);
  }
  window_end_ = std::min(min_next + lookahead_ - 1, horizon);
  ++windows_;
  return true;
}

void PartitionedScheduler::run_lane_window(std::uint32_t lane,
                                           TimePs window_end) {
  Scheduler& sched = *lanes_[lane];
  const std::uint64_t before = sched.executed();
  sched.run_until(window_end);
  if (sched.executed() == before) ++idle_windows_[lane];
}

template <typename Serial>
void PartitionedScheduler::barrier(std::uint32_t num_workers,
                                   std::uint64_t& gen, Serial&& serial) {
  if (arrivals_.fetch_add(1, std::memory_order_acq_rel) + 1 ==
      num_workers) {
    // Last arriver: run the serial section while the other workers spin.
    // Everything written before any worker arrived, and in the serial
    // section, is published by the release store to generation_.
    serial();
    arrivals_.store(0, std::memory_order_relaxed);
    generation_.store(gen + 1, std::memory_order_release);
  } else {
    // The container may have fewer cores than workers, so fall back to
    // yield quickly — a pure spin would serialize at timeslice length.
    int spins = 0;
    while (generation_.load(std::memory_order_acquire) == gen) {
      if (++spins < 64) {
        cpu_relax();
      } else {
        std::this_thread::yield();
      }
    }
  }
  ++gen;
}

void PartitionedScheduler::worker_loop(std::uint32_t worker,
                                       std::uint32_t num_workers,
                                       TimePs horizon) {
  // Contiguous static lane block per worker: the same worker executes the
  // same lanes every window, so lane state never migrates between threads
  // mid-run (no per-window handoff to order).
  const std::uint32_t first = worker * lanes() / num_workers;
  const std::uint32_t last = (worker + 1) * lanes() / num_workers;
  set_current_worker(worker);
  std::vector<Mail> inbox;
  std::uint64_t gen = generation_.load(std::memory_order_acquire);
  for (;;) {
    if (done_) return;
    const TimePs window_end = window_end_;
    for (std::uint32_t lane = first; lane < last; ++lane) {
      run_lane_window(lane, window_end);
    }
    // Once every worker has arrived, all of this window's mail is posted;
    // each worker then applies the mail addressed to its own lanes.
    barrier(num_workers, gen, [] {});
    deliver_mail(worker, inbox);
    barrier(num_workers, gen,
            [this, horizon] { done_ = !advance_window(horizon); });
  }
}

void PartitionedScheduler::run_windows(TimePs horizon) {
  // Mail can be posted outside a run (a send made directly by test code);
  // it was routed for the previous run call's worker count, so apply it on
  // the calling thread before routing mail for this call.
  std::vector<Mail> inbox;
  const std::size_t routed = outbox_.size() / lanes();
  for (std::uint32_t w = 0; w < routed; ++w) deliver_mail(w, inbox);
  // Worker 0 is the calling thread, so one worker spawns no thread and
  // runs every lane each window. Publish the first window before the other
  // workers exist; thread creation is the synchronization point.
  const std::uint32_t num_workers = std::min(threads_, lanes());
  route_mail(num_workers);
  done_ = !advance_window(horizon);
  if (done_) return;
  arrivals_.store(0, std::memory_order_relaxed);
  std::vector<std::thread> pool;
  pool.reserve(num_workers - 1);
  for (std::uint32_t w = 1; w < num_workers; ++w) {
    pool.emplace_back([this, w, num_workers, horizon] {
      worker_loop(w, num_workers, horizon);
    });
  }
  worker_loop(0, num_workers, horizon);
  for (std::thread& t : pool) t.join();
}

void PartitionedScheduler::run() { run_windows(Scheduler::kIdleTime - 1); }

void PartitionedScheduler::run_until(TimePs t) {
  SPECNOC_EXPECTS(t >= now());
  run_windows(t);
  // All events <= t have executed (advance_window only refuses a window
  // when no lane holds one); align every lane clock to exactly t, matching
  // Scheduler::run_until semantics.
  for (Scheduler* lane : lanes_) lane->run_until(t);
}

TimePs PartitionedScheduler::now() const {
  TimePs t = 0;
  for (const Scheduler* lane : lanes_) t = std::max(t, lane->now());
  return t;
}

std::uint64_t PartitionedScheduler::executed() const {
  std::uint64_t total = 0;
  for (const Scheduler* lane : lanes_) total += lane->executed();
  return total;
}

std::size_t PartitionedScheduler::pending() const {
  std::size_t total = 0;
  for (const Scheduler* lane : lanes_) total += lane->pending();
  return total;
}

std::size_t PartitionedScheduler::overflow_pending() const {
  std::size_t total = 0;
  for (const Scheduler* lane : lanes_) total += lane->overflow_pending();
  return total;
}

void PartitionedScheduler::set_epoch_hook(TimePs epoch_ps,
                                          Scheduler::EpochHook hook) {
  SPECNOC_EXPECTS(epoch_ps > 0);
  SPECNOC_EXPECTS(static_cast<bool>(hook));
  epoch_ps_ = epoch_ps;
  epoch_hook_ = std::move(hook);
  epoch_next_ = (now() / epoch_ps_ + 1) * epoch_ps_;
}

void PartitionedScheduler::clear_epoch_hook() {
  epoch_ps_ = 0;
  epoch_hook_ = nullptr;
  epoch_next_ = Scheduler::kIdleTime;
}

std::vector<std::uint64_t> PartitionedScheduler::per_lane_executed() const {
  std::vector<std::uint64_t> out;
  out.reserve(lanes_.size());
  for (const Scheduler* lane : lanes_) out.push_back(lane->executed());
  return out;
}

}  // namespace specnoc::sim
