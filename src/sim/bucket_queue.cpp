#include "sim/bucket_queue.h"

#include <utility>

namespace specnoc::sim {

BucketQueue::BucketQueue() = default;

void BucketQueue::reserve(std::size_t events) {
  while (slab_capacity_ < events) add_chunk();
  overflow_.reserve(events);
}

void BucketQueue::add_chunk() {
  chunks_.push_back(std::make_unique<Entry[]>(kChunkEntries));
  slab_capacity_ += kChunkEntries;
}

void BucketQueue::advance_to(TimePs t) {
  SPECNOC_EXPECTS(t >= base_);
  SPECNOC_ASSERT(empty() || min_time() >= t);
  advance_base(t);
}

void BucketQueue::promote_overflow() {
  // Pop (time, seq)-ascending so same-time promotions append in sequence
  // order, preserving the FIFO-equals-seq invariant of each bucket.
  const TimePs horizon = base_ + kNumBuckets;
  while (!overflow_.empty() && overflow_.front().time < horizon) {
    Entry* e = overflow_.front().entry;
    overflow_.front() = overflow_.back();
    overflow_.pop_back();
    if (!overflow_.empty()) sift_down(0);
    link_into_bucket(e);
    ++ring_size_;
  }
  overflow_min_ = overflow_.empty() ? kNoOverflow : overflow_.front().time;
}

void BucketQueue::sift_up(std::size_t i) {
  OverflowRef item = overflow_[i];
  while (i > 0) {
    const std::size_t parent = (i - 1) / 2;
    if (!item.earlier_than(overflow_[parent])) break;
    overflow_[i] = overflow_[parent];
    i = parent;
  }
  overflow_[i] = item;
}

void BucketQueue::sift_down(std::size_t i) {
  OverflowRef item = overflow_[i];
  const std::size_t n = overflow_.size();
  while (true) {
    std::size_t child = 2 * i + 1;
    if (child >= n) break;
    if (child + 1 < n && overflow_[child + 1].earlier_than(overflow_[child])) {
      ++child;
    }
    if (!overflow_[child].earlier_than(item)) break;
    overflow_[i] = overflow_[child];
    i = child;
  }
  overflow_[i] = item;
}

}  // namespace specnoc::sim
