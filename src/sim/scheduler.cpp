#include "sim/scheduler.h"

// Regression note: the previous kernel (a std::priority_queue of
// std::function entries) moved events out of priority_queue::top() through a
// const_cast — UB-adjacent, and each pop paid an O(log n) sift plus a heap
// allocation for any capture beyond the std::function SBO. The bucket queue
// fires events in place in mutable slab entries instead; the ASan/UBSan CI
// job exercises this path across the whole test suite.

namespace specnoc::sim {

void Scheduler::set_epoch_hook(TimePs epoch_ps, EpochHook hook) {
  SPECNOC_EXPECTS(epoch_ps > 0);
  SPECNOC_EXPECTS(static_cast<bool>(hook));
  epoch_ps_ = epoch_ps;
  epoch_hook_ = std::move(hook);
  epoch_next_ = (now_ / epoch_ps_ + 1) * epoch_ps_;
}

void Scheduler::clear_epoch_hook() {
  epoch_ps_ = 0;
  epoch_hook_ = nullptr;
  epoch_next_ = kIdleTime;
}

void Scheduler::cross_epoch(TimePs t) {
  const TimePs boundary = t - t % epoch_ps_;
  epoch_next_ = boundary + epoch_ps_;
  epoch_hook_(boundary);
}

void Scheduler::drain(TimePs horizon) {
  while (BucketQueue::Entry* e = queue_.pop_batch(horizon)) {
    // One clock update and one epoch check per picosecond: every event of
    // the batch, and any zero-delay event its handlers add, is at e->time.
    SPECNOC_ASSERT(e->time >= now_);
    if (e->time >= epoch_next_) cross_epoch(e->time);
    now_ = e->time;
    do {
      ++executed_;
      e = queue_.fire_and_next(e);
    } while (e != nullptr);
  }
}

void Scheduler::run_until(TimePs t) {
  SPECNOC_EXPECTS(t >= now_);
  drain(t);
  now_ = t;
  // Keep the bucket window tracking the clock so short relative delays
  // scheduled after a long quiet gap still land in the O(1) near tier.
  queue_.advance_to(t);
}

}  // namespace specnoc::sim
