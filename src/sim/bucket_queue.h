// Hierarchical bucket queue: the scheduler's pending-event store.
//
// Two tiers, both keyed on picosecond timestamps and both preserving the
// kernel's exact (time, insertion sequence) pop order:
//
//  * Near tier — a ring of kNumBuckets one-picosecond-wide buckets covering
//    the window [base, base + kNumBuckets). Each bucket is an intrusive
//    FIFO chain of slab entries; because a bucket spans exactly one
//    picosecond, FIFO order *is* sequence order, so schedule and pop are
//    O(1). A bucket stores only its tail pointer (8 bytes): the chain is
//    circular, so tail->next is the head. A two-level bitmap (one summary
//    word over 64 occupancy words) finds the next non-empty bucket with a
//    handful of countr_zero ops. The window only ever slides forward (base
//    tracks the last popped / advanced-to time), so a circular scan
//    starting at base's bucket is time-ordered despite the wrap-around
//    indexing.
//
//  * Overflow tier — a binary min-heap on (time, seq) for events beyond
//    the window (watchdog timeouts, low-rate open-loop arrivals). Whenever
//    base advances, every overflow event that now falls inside the window
//    is eagerly promoted into its bucket, in heap order. Eager promotion
//    is what keeps mixed-tier ordering exact: a ring insertion at time T
//    can only happen once T is inside the window, by which point any
//    earlier-scheduled (lower-seq) overflow event at T has already been
//    promoted ahead of it.
//
// The scheduler drains one picosecond at a time: pop_batch() detaches the
// earliest bucket whole (one bitmap scan, one window advance) and hands
// back its chain, which the scheduler fires in place through
// fire_and_next(). An event scheduled at the same picosecond while the
// batch fires lands in the emptied bucket, behind the batch — its exact
// (time, seq) place. pop() takes one event at a time from the same chains,
// for callers that must look between events.
//
// Event entries live in a slab of fixed-size chunks with a free list:
// after warm-up the queue performs zero heap allocations per event, and
// reserve() can pre-size the slab to eliminate even the warm-up growth.
// Chunking keeps entry addresses stable, so the free list, the bucket
// chains and the overflow heap link entries by pointer, and the scheduler
// invokes a popped event *in place* while the handler schedules new events
// into the slab.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/event.h"
#include "util/contract.h"
#include "util/units.h"

namespace specnoc::sim {

class BucketQueue {
 public:
  /// Near-tier window size in picoseconds (= number of 1 ps buckets).
  /// 1024 covers every switch/channel handshake delay in
  /// nodes/characteristics.cpp (at most 400 ps) and the default fanin
  /// watchdog (900 ps); only far-future events (low-rate open-loop
  /// arrivals, CMP cache and DRAM latencies, long horizons) touch the
  /// overflow heap. The ring is most of a Scheduler's footprint (8 KiB),
  /// and a partitioned run keeps one per lane.
  static constexpr std::uint32_t kNumBuckets = 1024;

  BucketQueue();
  BucketQueue(const BucketQueue&) = delete;
  BucketQueue& operator=(const BucketQueue&) = delete;

  bool empty() const { return ring_size_ == 0 && overflow_.empty(); }
  std::size_t size() const { return ring_size_ + overflow_.size(); }
  /// Entries parked in the far-future overflow heap (telemetry only).
  std::size_t overflow_size() const { return overflow_.size(); }

  /// Pre-sizes the slab (and overflow heap) for `events` concurrently
  /// pending events, eliminating warm-up vector growth.
  void reserve(std::size_t events);

  /// A slab entry: one 64-byte cache line. Public so the scheduler can
  /// fire a popped entry and read its time; the chain link is the queue's
  /// own.
  struct Entry {
    InplaceEvent fn;
    TimePs time = 0;
    Entry* next = nullptr;
  };
  static_assert(sizeof(Entry) == 64, "a slab entry is one cache line");

  /// Entries per slab chunk: one 4 KiB page, so a lane's slab rounds its
  /// high-water mark up by less than a page.
  static constexpr std::uint32_t kChunkEntries = 64;

  /// Inserts `fn` at time `t`, constructing the callable directly inside
  /// the slab entry (no intermediate moves). Requires t >= the current
  /// window base (the scheduler guarantees this via its t >= now()
  /// precondition).
  template <typename F>
  void push(TimePs t, F&& fn) {
    SPECNOC_EXPECTS(t >= base_);
    Entry* e = free_head_;
    if (e != nullptr) {
      free_head_ = e->next;
    } else {
      e = fresh_entry();
    }
    if constexpr (std::is_same_v<std::decay_t<F>, InplaceEvent>) {
      e->fn = std::forward<F>(fn);
    } else {
      e->fn.emplace(std::forward<F>(fn));
    }
    e->time = t;
    if (t - base_ < kNumBuckets) {
      // Near tier: the bucket spans exactly 1 ps, so FIFO append preserves
      // insertion-sequence order without storing a sequence number.
      link_into_bucket(e);
      ++ring_size_;
    } else {
      // Overflow tier: ordered by (time, seq); seqs are only assigned
      // here, and stay monotonic in insertion order, which is all the
      // ordering contract needs (ring/overflow mixing at equal times is
      // impossible — see promote_overflow()).
      overflow_.push_back(OverflowRef{t, next_seq_++, e});
      sift_up(overflow_.size() - 1);
      overflow_min_ = overflow_.front().time;
    }
  }

  /// Time of the earliest pending event. Requires !empty().
  TimePs min_time() const {
    // The rest of a batch being fired is at base_, ahead of everything.
    if (batch_ != nullptr) return base_;
    if (ring_size_ != 0) {
      // Every entry of a bucket shares its one picosecond.
      return buckets_[first_occupied_bucket()].tail->time;
    }
    SPECNOC_ASSERT(!overflow_.empty());
    return overflow_.front().time;
  }

  /// Handle to a popped-but-not-yet-recycled event. The entry's address is
  /// stable (chunked slab), so the scheduler can fire the event in place
  /// while the handler schedules new events, then recycle the entry.
  struct PopRef {
    TimePs time;
    Entry* entry;
  };

  /// Unlinks the earliest pending event — minimal (time, seq) — advancing
  /// the window to its timestamp. The entry stays alive until recycle().
  /// Requires !empty() and that no batch is being fired.
  PopRef pop() {
    SPECNOC_EXPECTS(!empty());
    SPECNOC_EXPECTS(batch_ == nullptr);
    const std::uint32_t b = earliest_bucket(kNoHorizon);
    Bucket& bucket = buckets_[b];
    Entry* tail = bucket.tail;
    Entry* e = tail->next;
    if (e == tail) {
      bucket.tail = nullptr;
      clear_bit(b);
    } else {
      tail->next = e->next;
    }
    --ring_size_;
    return PopRef{e->time, e};
  }

  /// Fires a popped event in place, destroying its callable (one indirect
  /// call for the whole sequence).
  void invoke_and_dispose(const PopRef& ref) {
    ref.entry->fn.invoke_and_dispose();
  }

  /// Returns a popped (and fired) event's entry to the free list.
  void recycle(const PopRef& ref) { recycle(ref.entry); }

  /// Detaches the earliest pending picosecond if it is <= `horizon`,
  /// advancing the window to it, and returns its first entry, already
  /// popped (size() no longer counts it); the rest of the batch stays
  /// pending until fire_and_next() pops it. Returns null when nothing
  /// pending is <= `horizon`. Requires that no batch is being fired.
  Entry* pop_batch(TimePs horizon) {
    SPECNOC_ASSERT(batch_ == nullptr);
    const std::uint32_t b = earliest_bucket(horizon);
    if (b == kNoBucket) return nullptr;
    Bucket& bucket = buckets_[b];
    Entry* tail = bucket.tail;
    bucket.tail = nullptr;
    clear_bit(b);
    Entry* head = tail->next;
    tail->next = nullptr;  // the circle becomes a null-terminated chain
    batch_ = head->next;
    --ring_size_;
    return head;
  }

  /// Fires `e` (the batch entry popped last) in place, recycles it, and
  /// pops and returns the next entry of its batch, or null when the batch
  /// is done.
  Entry* fire_and_next(Entry* e) {
    e->fn.invoke_and_dispose();
    Entry* next = batch_;
    if (next != nullptr) {
      batch_ = next->next;
      --ring_size_;
    }
    recycle(e);
    return next;
  }

  /// Slides the window base forward to `t`. Requires that no pending event
  /// is earlier than `t` (the scheduler calls this from run_until after
  /// draining all events <= t).
  void advance_to(TimePs t);

 private:
  static constexpr std::uint32_t kMask = kNumBuckets - 1;
  static constexpr std::uint32_t kNumWords = kNumBuckets / 64;
  static constexpr std::uint32_t kNoBucket = kNumBuckets;
  static constexpr TimePs kNoHorizon = std::numeric_limits<TimePs>::max();
  static_assert(std::has_single_bit(kChunkEntries));
  static constexpr auto kChunkShift =
      static_cast<std::uint32_t>(std::countr_zero(kChunkEntries));
  static constexpr std::uint32_t kChunkMask = kChunkEntries - 1;

  /// Tail of a circular FIFO chain (tail->next is the head); null when
  /// the bucket is empty.
  struct Bucket {
    Entry* tail = nullptr;
  };
  static_assert(sizeof(Bucket) == 8, "one pointer per bucket");
  struct OverflowRef {
    TimePs time;
    std::uint64_t seq;
    Entry* entry;
    bool earlier_than(const OverflowRef& o) const {
      return time != o.time ? time < o.time : seq < o.seq;
    }
  };

  /// An entry never used before (the free list is empty): the next one
  /// of the slab, growing it by a chunk when full.
  Entry* fresh_entry() {
    if (slab_size_ == slab_capacity_) add_chunk();
    const std::uint32_t slot = slab_size_++;
    return &chunks_[slot >> kChunkShift][slot & kChunkMask];
  }

  void recycle(Entry* e) {
    e->next = free_head_;
    free_head_ = e;
  }

  void link_into_bucket(Entry* e) {
    const std::uint32_t b = static_cast<std::uint32_t>(e->time) & kMask;
    Bucket& bucket = buckets_[b];
    if (bucket.tail == nullptr) {
      e->next = e;
      set_bit(b);
    } else {
      e->next = bucket.tail->next;
      bucket.tail->next = e;
    }
    bucket.tail = e;
  }

  void set_bit(std::uint32_t b) {
    words_[b >> 6] |= std::uint64_t{1} << (b & 63u);
    summary_ |= std::uint64_t{1} << (b >> 6);
  }
  void clear_bit(std::uint32_t b) {
    words_[b >> 6] &= ~(std::uint64_t{1} << (b & 63u));
    if (words_[b >> 6] == 0) summary_ &= ~(std::uint64_t{1} << (b >> 6));
  }

  /// The bucket holding the earliest pending event if that event is at or
  /// before `horizon`, with the window advanced to its time; kNoBucket
  /// otherwise (the window stays put). Requires no batch being fired.
  std::uint32_t earliest_bucket(TimePs horizon) {
    if (ring_size_ == 0) {
      if (overflow_.empty() || overflow_min_ > horizon) return kNoBucket;
      // Everything pending is far-future: jump the window to the overflow
      // minimum, which promotes at least that event into the ring.
      advance_base(overflow_min_);
      SPECNOC_ASSERT(ring_size_ != 0);
    }
    const std::uint32_t b = first_occupied_bucket();
    const TimePs t = buckets_[b].tail->time;
    if (t > horizon) return kNoBucket;
    // Sliding the window forward may promote overflow events, but only at
    // strictly later times than t, never into bucket b.
    if (t != base_) advance_base(t);
    return b;
  }

  /// Index of the first occupied bucket at or circularly after base's
  /// bucket. Requires ring_size_ != 0.
  std::uint32_t first_occupied_bucket() const {
    const std::uint32_t start = static_cast<std::uint32_t>(base_) & kMask;
    const std::uint32_t w0 = start >> 6;
    const std::uint32_t b0 = start & 63u;
    // Bits at or after the start position within the start word.
    std::uint64_t word = words_[w0] & (~std::uint64_t{0} << b0);
    if (word != 0) {
      return (w0 << 6) + static_cast<std::uint32_t>(std::countr_zero(word));
    }
    // Whole words strictly after the start word.
    std::uint64_t sum =
        w0 + 1 < kNumWords ? summary_ & (~std::uint64_t{0} << (w0 + 1)) : 0;
    if (sum == 0) {
      // Wrapped region: words before the start word, then the low bits of
      // the start word itself (both hold later timestamps than start).
      sum = summary_ & ((std::uint64_t{1} << w0) - 1);
      if (sum == 0) {
        word = words_[w0];
        SPECNOC_ASSERT(word != 0);
        return (w0 << 6) +
               static_cast<std::uint32_t>(std::countr_zero(word));
      }
    }
    const auto w = static_cast<std::uint32_t>(std::countr_zero(sum));
    SPECNOC_ASSERT(words_[w] != 0);
    return (w << 6) + static_cast<std::uint32_t>(std::countr_zero(words_[w]));
  }

  /// Slides the window to `new_base` and eagerly promotes every overflow
  /// event now inside [new_base, new_base + kNumBuckets).
  /// overflow_min_ mirrors the heap top (kNoOverflow when empty) so the
  /// no-promotion fast path is a single comparison.
  void advance_base(TimePs new_base) {
    SPECNOC_ASSERT(new_base >= base_);
    base_ = new_base;
    if (overflow_min_ - new_base < kNumBuckets) {
      promote_overflow();
    }
  }

  void promote_overflow();  // cold paths, bucket_queue.cpp
  void add_chunk();
  void sift_up(std::size_t i);
  void sift_down(std::size_t i);

  /// Sentinel for overflow_min_ when the overflow heap is empty: far
  /// enough ahead that `overflow_min_ - base < kNumBuckets` stays false
  /// for any reachable base, yet never overflows the subtraction.
  static constexpr TimePs kNoOverflow =
      std::numeric_limits<TimePs>::max() / 2;

  TimePs base_ = 0;              ///< window start; only ever advances
  TimePs overflow_min_ = kNoOverflow;  ///< == overflow_.front().time
  std::uint64_t next_seq_ = 0;   ///< assigned to overflow-tier events only
  std::size_t ring_size_ = 0;    ///< pending in the near tier, batch included
  Entry* batch_ = nullptr;       ///< unpopped rest of the batch being fired
  Entry* free_head_ = nullptr;
  std::uint32_t slab_size_ = 0;
  std::uint32_t slab_capacity_ = 0;
  std::uint64_t summary_ = 0;
  std::uint64_t words_[kNumWords] = {};
  Bucket buckets_[kNumBuckets];
  std::vector<std::unique_ptr<Entry[]>> chunks_;  ///< stable-address slab
  std::vector<OverflowRef> overflow_;  ///< binary min-heap on (time, seq)
};

}  // namespace specnoc::sim
