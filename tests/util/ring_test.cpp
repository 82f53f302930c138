// BoundedRing: FIFO semantics at inline and heap capacities, including
// wraparound — the channel queues and fanin FIFOs this replaced deque for
// depend on exact FIFO order for simulation determinism.
#include "util/ring.h"

#include <gtest/gtest.h>

#include <cstdint>

namespace specnoc::util {
namespace {

struct Entry {
  std::uint64_t a;
  std::uint32_t b;
};

TEST(BoundedRingTest, FifoOrderWithWraparoundInline) {
  BoundedRing<Entry, 2> ring;
  EXPECT_EQ(ring.capacity(), 2u);
  EXPECT_TRUE(ring.empty());
  std::uint64_t next_out = 0;
  std::uint64_t next_in = 0;
  // Interleave pushes and pops so head wraps many times.
  for (int step = 0; step < 100; ++step) {
    while (ring.size() < ring.capacity()) {
      ring.push_back({next_in, static_cast<std::uint32_t>(next_in * 3)});
      ++next_in;
    }
    const std::uint32_t pops = static_cast<std::uint32_t>(step % 2) + 1;
    for (std::uint32_t i = 0; i < pops && !ring.empty(); ++i) {
      EXPECT_EQ(ring.front().a, next_out);
      EXPECT_EQ(ring.front().b, next_out * 3);
      ring.pop_front();
      ++next_out;
    }
  }
}

TEST(BoundedRingTest, ReserveBeyondInlineUsesHeapSameSemantics) {
  BoundedRing<Entry, 2> ring;
  ring.reserve(7);
  EXPECT_EQ(ring.capacity(), 7u);
  std::uint64_t next_out = 0;
  std::uint64_t next_in = 0;
  for (int step = 0; step < 50; ++step) {
    while (ring.size() < ring.capacity()) {
      ring.push_back({next_in, 0});
      ++next_in;
    }
    for (std::uint32_t i = 0; i < 3; ++i) {
      EXPECT_EQ(ring.front().a, next_out);
      ring.pop_front();
      ++next_out;
    }
  }
}

TEST(BoundedRingTest, ReserveIsIdempotentWhileEmpty) {
  BoundedRing<Entry, 2> ring;
  ring.reserve(2);  // stays inline
  EXPECT_EQ(ring.capacity(), 2u);
  ring.reserve(5);
  EXPECT_EQ(ring.capacity(), 5u);
  ring.reserve(5);
  EXPECT_EQ(ring.capacity(), 5u);
  ring.push_back({1, 1});
  EXPECT_EQ(ring.front().a, 1u);
}

TEST(BoundedRingTest, ReserveBelowInlineCapIsExact) {
  // A depth-1 FIFO must report itself full after one entry: callers such
  // as the fanin arbiter decide when to ack from capacity().
  BoundedRing<Entry, 2> ring;
  ring.reserve(1);
  EXPECT_EQ(ring.capacity(), 1u);
  for (std::uint64_t i = 0; i < 5; ++i) {  // head wraps at 1
    ring.push_back({i, 0});
    EXPECT_EQ(ring.size(), ring.capacity());
    EXPECT_EQ(ring.front().a, i);
    ring.pop_front();
  }
  ring.reserve(6);  // heap, then back to an exact inline depth
  EXPECT_EQ(ring.capacity(), 6u);
  ring.reserve(1);
  EXPECT_EQ(ring.capacity(), 1u);
  ring.push_back({9, 0});
  EXPECT_EQ(ring.front().a, 9u);
}

}  // namespace
}  // namespace specnoc::util
