// BoundedRing: a fixed-capacity FIFO with inline storage for small bounds.
//
// Channels and fanin input FIFOs are bounded by construction (channel
// capacity, fanin buffer depth — both 2 by default), yet they were held in
// std::deque, whose libstdc++ representation is an 80-byte object plus a
// ~600-byte heap map even when empty. At 1024 endpoints that is ~3M channel
// deques and ~2M fanin FIFOs — gigabytes of heap for queues that never hold
// more than two 24-byte entries. BoundedRing stores up to InlineCap elements
// inside the object and touches the heap only when reserve() asks for more.
//
// The capacity is fixed once by reserve() (callers know their bound at
// construction); push_back beyond it is a contract violation, matching the
// occupancy preconditions the simulator already enforces. Capacity, head
// and size are 16-bit (capacities up to kMaxRingCapacity = 65535): with two
// 24-byte inline entries the ring is 56 bytes instead of 64, which matters
// for a Channel (one ring) and a FaninNode (two) at millions of objects.
#pragma once

#include <cstdint>
#include <new>
#include <type_traits>

#include "util/contract.h"

namespace specnoc::util {

/// Largest capacity BoundedRing::reserve() accepts; builders reject larger
/// configured depths with a ConfigError before constructing any ring.
inline constexpr std::uint32_t kMaxRingCapacity = 0xFFFF;

template <typename T, std::uint32_t InlineCap>
class BoundedRing {
  // Entries are stored in raw byte slots and copied in/out by value, so T
  // must not own resources or need destruction.
  static_assert(std::is_trivially_copyable_v<T>,
                "BoundedRing is for small POD queue entries");
  static_assert(std::is_trivially_destructible_v<T>,
                "BoundedRing never runs element destructors");
  static_assert(InlineCap >= 1 && InlineCap <= kMaxRingCapacity);

 public:
  BoundedRing() = default;
  ~BoundedRing() {
    if (capacity_ > InlineCap) ::operator delete(heap_);
  }
  BoundedRing(const BoundedRing&) = delete;
  BoundedRing& operator=(const BoundedRing&) = delete;

  /// Fixes the capacity exactly: capacity() returns it and push_back
  /// accepts that many entries. Call once, before any push (idempotent
  /// while empty). Capacities up to InlineCap stay inline; a zero capacity
  /// holds nothing (a capacity-1 pipe queues no flit behind its head).
  void reserve(std::uint32_t capacity) {
    SPECNOC_EXPECTS(size_ == 0);
    SPECNOC_EXPECTS(capacity <= kMaxRingCapacity);
    head_ = 0;
    if (capacity == capacity_) return;
    if (capacity_ > InlineCap) ::operator delete(heap_);
    if (capacity > InlineCap) {
      heap_ = static_cast<unsigned char*>(
          ::operator new(static_cast<std::size_t>(capacity) * sizeof(T)));
    }
    capacity_ = static_cast<std::uint16_t>(capacity);
  }

  std::uint32_t capacity() const { return capacity_; }
  std::uint32_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  const T& front() const {
    SPECNOC_EXPECTS(size_ > 0);
    return *std::launder(reinterpret_cast<const T*>(slot(head_)));
  }

  void push_back(const T& value) {
    SPECNOC_EXPECTS(size_ < capacity_);
    // Conditional wrap instead of %: capacity is rarely a power of two and
    // this is on the per-flit path of every channel and fanin FIFO.
    std::uint32_t tail = std::uint32_t{head_} + size_;
    if (tail >= capacity_) tail -= capacity_;
    ::new (slot(tail)) T(value);
    ++size_;
  }

  void pop_front() {
    SPECNOC_EXPECTS(size_ > 0);
    ++head_;
    if (head_ == capacity_) head_ = 0;
    --size_;
  }

 private:
  unsigned char* slot(std::uint32_t i) {
    return (capacity_ <= InlineCap ? inline_ : heap_) + i * sizeof(T);
  }
  const unsigned char* slot(std::uint32_t i) const {
    return (capacity_ <= InlineCap ? inline_ : heap_) + i * sizeof(T);
  }

  union {
    alignas(T) unsigned char inline_[InlineCap * sizeof(T)];
    unsigned char* heap_;
  };
  std::uint16_t capacity_ = InlineCap;
  std::uint16_t head_ = 0;
  std::uint16_t size_ = 0;
};

}  // namespace specnoc::util
