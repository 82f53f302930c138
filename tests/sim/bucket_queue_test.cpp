// Kernel data-structure tests: InplaceEvent, the hierarchical bucket
// queue, a randomized differential test against a sorted-vector reference
// model, and the zero-allocations-per-event guarantee.
#include "sim/bucket_queue.h"

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <iterator>
#include <memory>
#include <new>
#include <vector>

#include <gtest/gtest.h>

#include "sim/event.h"
#include "sim/scheduler.h"

// Count every heap allocation in the binary so the allocation test below
// can assert the kernel's steady state performs none. Counting is the only
// side effect; allocation behavior is otherwise unchanged.
namespace {
std::atomic<std::uint64_t> g_heap_allocs{0};
}  // namespace

// noinline keeps the malloc/free bodies out of allocator call sites, where
// GCC's -Wmismatched-new-delete would mispair them.
__attribute__((noinline)) void* operator new(std::size_t size) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size != 0 ? size : 1)) return p;
  throw std::bad_alloc();
}
__attribute__((noinline)) void* operator new[](std::size_t size) {
  return ::operator new(size);
}
// The nothrow forms (std::stable_sort's temporary buffer uses them) must
// pair with the free()-based deletes below too, or ASan reports a
// new/free mismatch when the binary runs whole.
__attribute__((noinline)) void* operator new(std::size_t size,
                                             const std::nothrow_t&) noexcept {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size != 0 ? size : 1);
}
__attribute__((noinline)) void* operator new[](
    std::size_t size, const std::nothrow_t& tag) noexcept {
  return ::operator new(size, tag);
}
__attribute__((noinline)) void operator delete(void* p) noexcept {
  std::free(p);
}
__attribute__((noinline)) void operator delete(void* p,
                                               std::size_t) noexcept {
  std::free(p);
}
__attribute__((noinline)) void operator delete[](void* p) noexcept {
  std::free(p);
}
__attribute__((noinline)) void operator delete[](void* p,
                                                 std::size_t) noexcept {
  std::free(p);
}

namespace specnoc::sim {
namespace {

// ---------------------------------------------------------------------------
// InplaceEvent

static_assert(sizeof(InplaceEvent) <= 64,
              "InplaceEvent should stay within a cache line");

TEST(InplaceEventTest, DefaultConstructedIsEmpty) {
  InplaceEvent e;
  EXPECT_FALSE(static_cast<bool>(e));
}

TEST(InplaceEventTest, InvokesStoredCallable) {
  int calls = 0;
  InplaceEvent e([&calls] { ++calls; });
  ASSERT_TRUE(static_cast<bool>(e));
  e();
  e();
  EXPECT_EQ(calls, 2);
}

TEST(InplaceEventTest, MoveTransfersCallableAndEmptiesSource) {
  int calls = 0;
  InplaceEvent a([&calls] { ++calls; });
  InplaceEvent b(std::move(a));
  EXPECT_FALSE(static_cast<bool>(a));
  ASSERT_TRUE(static_cast<bool>(b));
  b();
  EXPECT_EQ(calls, 1);

  InplaceEvent c;
  c = std::move(b);
  EXPECT_FALSE(static_cast<bool>(b));
  c();
  EXPECT_EQ(calls, 2);
}

TEST(InplaceEventTest, DestroysNonTrivialCapture) {
  auto token = std::make_shared<int>(42);
  {
    InplaceEvent e([token] { (void)*token; });
    EXPECT_EQ(token.use_count(), 2);
  }
  EXPECT_EQ(token.use_count(), 1);
}

TEST(InplaceEventTest, ResetDestroysCapture) {
  auto token = std::make_shared<int>(7);
  InplaceEvent e([token] {});
  EXPECT_EQ(token.use_count(), 2);
  e.reset();
  EXPECT_FALSE(static_cast<bool>(e));
  EXPECT_EQ(token.use_count(), 1);
}

TEST(InplaceEventTest, InvokeAndDisposeFiresOnceAndEmpties) {
  auto token = std::make_shared<int>(0);
  InplaceEvent e([token] { ++*token; });
  e.invoke_and_dispose();
  EXPECT_FALSE(static_cast<bool>(e));
  EXPECT_EQ(*token, 1);
  EXPECT_EQ(token.use_count(), 1);
}

TEST(InplaceEventTest, EmplaceReplacesExistingCallable) {
  auto old_token = std::make_shared<int>(0);
  int calls = 0;
  InplaceEvent e([old_token] {});
  e.emplace([&calls] { ++calls; });
  EXPECT_EQ(old_token.use_count(), 1);  // old capture destroyed
  e();
  EXPECT_EQ(calls, 1);
}

TEST(InplaceEventTest, HoldsCaptureAtFullCapacity) {
  struct Big {
    std::uint64_t words[InplaceEvent::kCapacity / sizeof(std::uint64_t) - 1];
  };
  constexpr std::size_t kLast = std::size(Big{}.words) - 1;
  Big big{};
  big.words[0] = 11;
  big.words[kLast] = 22;
  std::uint64_t seen = 0;
  // Capture is exactly kCapacity bytes: Big plus one reference.
  InplaceEvent e([big, &seen] { seen = big.words[0] + big.words[kLast]; });
  static_assert(sizeof(Big) + sizeof(void*) == InplaceEvent::kCapacity,
                "capture should exactly fill the inline storage");
  e();
  EXPECT_EQ(seen, 33u);
}

// ---------------------------------------------------------------------------
// BucketQueue

/// The near window's width: times are given relative to it so the tests
/// keep covering its edge and its wrap-around whatever its size.
constexpr TimePs kWindow = BucketQueue::kNumBuckets;

TEST(BucketQueueTest, PopsInTimeOrderAcrossTiers) {
  BucketQueue q;
  std::vector<int> order;
  constexpr TimePs kFar = 3 * kWindow;
  q.push(kFar, [&order] { order.push_back(3); });  // overflow tier
  q.push(5, [&order] { order.push_back(1); });     // near tier
  q.push(kFar, [&order] { order.push_back(4); });  // same time, later seq
  q.push(kWindow - 1, [&order] { order.push_back(2); });  // last in-window
  EXPECT_EQ(q.size(), 4u);
  EXPECT_EQ(q.min_time(), 5);
  while (!q.empty()) {
    const BucketQueue::PopRef ref = q.pop();
    q.invoke_and_dispose(ref);
    q.recycle(ref);
  }
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
}

TEST(BucketQueueTest, AdvanceToSlidesWindowPastOverflowBoundary) {
  BucketQueue q;
  std::vector<TimePs> times;
  static constexpr TimePs kAt = kWindow + kWindow / 2;  // overflow at base 0
  q.push(kAt, [&times] { times.push_back(kAt); });
  EXPECT_EQ(q.min_time(), kAt);
  q.advance_to(kAt - kWindow + 1);  // kAt is now the window's last bucket
  EXPECT_EQ(q.min_time(), kAt);
  const BucketQueue::PopRef ref = q.pop();
  EXPECT_EQ(ref.time, kAt);
  q.invoke_and_dispose(ref);
  q.recycle(ref);
  EXPECT_TRUE(q.empty());
}

TEST(BucketQueueTest, SlotReuseAfterRecycle) {
  BucketQueue q;
  int fired = 0;
  const BucketQueue::Entry* first = nullptr;
  for (int i = 0; i < 10000; ++i) {
    q.push(i, [&fired] { ++fired; });
    const BucketQueue::PopRef ref = q.pop();
    q.invoke_and_dispose(ref);
    q.recycle(ref);
    if (first == nullptr) first = ref.entry;
    EXPECT_EQ(ref.entry, first);  // the single entry is reused every cycle
  }
  EXPECT_EQ(fired, 10000);
}

// ---------------------------------------------------------------------------
// Differential fuzz: Scheduler (bucket queue) vs a sorted-vector reference
// model implementing the (time, insertion seq) contract directly.

struct RefModel {
  struct Ev {
    TimePs time;
    std::uint64_t seq;
    int id;
  };
  std::vector<Ev> evs;
  std::uint64_t next_seq = 0;
  TimePs now = 0;

  void schedule_at(TimePs t, int id) { evs.push_back({t, next_seq++, id}); }
  TimePs min_time() const {
    TimePs best = evs.front().time;
    for (const Ev& e : evs) best = e.time < best ? e.time : best;
    return best;
  }
  Ev pop() {
    std::size_t best = 0;
    for (std::size_t i = 1; i < evs.size(); ++i) {
      const bool earlier =
          evs[i].time != evs[best].time ? evs[i].time < evs[best].time
                                        : evs[i].seq < evs[best].seq;
      if (earlier) best = i;
    }
    const Ev e = evs[best];
    evs.erase(evs.begin() + static_cast<std::ptrdiff_t>(best));
    now = e.time;
    return e;
  }
};

// Delays chosen to stress same-time bursts (0), bucket boundaries (the
// two picoseconds either side of the window's width), wrap-around (twice
// the width, less one), and overflow promotion (20000, 100000).
constexpr TimePs kDelays[] = {0,           1,           2,
                              3,           50,          900,
                              kWindow - 2, kWindow - 1, kWindow,
                              kWindow + 1, 2 * kWindow - 1, 20000,
                              100000};
constexpr auto kNumDelays =
    static_cast<std::uint32_t>(sizeof(kDelays) / sizeof(kDelays[0]));

TEST(BucketQueueFuzzTest, MatchesSortedReferenceModel) {
  std::uint64_t rng_state = 0x243f6a8885a308d3ull;
  auto rnd = [&rng_state](std::uint32_t bound) {
    rng_state = rng_state * 6364136223846793005ull + 1442695040888963407ull;
    return static_cast<std::uint32_t>((rng_state >> 33) % bound);
  };

  for (int round = 0; round < 8; ++round) {
    Scheduler s;
    RefModel m;
    std::vector<int> fired;        // real kernel fire order
    std::vector<int> fired_model;  // reference model fire order
    int next_id = 0;

    // Events with id % 4 == 0 schedule one follow-up from inside their
    // handler (push-during-pop); children get id + 1000000 and never
    // re-spawn. Events with id % 4 == 1 schedule a zero-delay child
    // (id + 2000000) into the picosecond being drained, which schedules a
    // zero-delay grandchild (id + 3000000) behind it.
    auto schedule_event = [&](TimePs at, int id) {
      s.schedule_at(at, [&fired, &s, id] {
        fired.push_back(id);
        if (id % 4 == 0 && id < 1000000) {
          s.schedule(
              kDelays[static_cast<std::uint32_t>(id) % kNumDelays],
              [&fired, id] { fired.push_back(id + 1000000); });
        } else if (id % 4 == 1 && id < 1000000) {
          s.schedule(0, [&fired, &s, id] {
            fired.push_back(id + 2000000);
            s.schedule(0, [&fired, id] { fired.push_back(id + 3000000); });
          });
        }
      });
      m.schedule_at(at, id);
    };
    auto model_step = [&] {
      const RefModel::Ev e = m.pop();
      fired_model.push_back(e.id);
      if (e.id % 4 == 0 && e.id < 1000000) {
        m.schedule_at(
            e.time + kDelays[static_cast<std::uint32_t>(e.id) % kNumDelays],
            e.id + 1000000);
      } else if (e.id % 4 == 1 && e.id < 1000000) {
        m.schedule_at(e.time, e.id + 2000000);
      } else if (e.id >= 2000000 && e.id < 3000000) {
        m.schedule_at(e.time, e.id + 1000000);
      }
      return e;
    };

    for (int op = 0; op < 400; ++op) {
      const std::uint32_t kind = rnd(100);
      if (kind < 55) {
        // Schedule a burst of 1..4 events, often at the identical time to
        // exercise same-timestamp FIFO ordering.
        TimePs at = s.now() + kDelays[rnd(kNumDelays)];
        const std::uint32_t burst = 1 + rnd(4);
        for (std::uint32_t i = 0; i < burst; ++i) {
          schedule_event(at, next_id++);
          if (rnd(3) == 0) at = s.now() + kDelays[rnd(kNumDelays)];
        }
      } else if (kind < 85) {
        // Single-step both and compare each pop.
        for (std::uint32_t i = 1 + rnd(6); i > 0 && s.pending() > 0; --i) {
          ASSERT_FALSE(m.evs.empty());
          ASSERT_TRUE(s.step());
          const RefModel::Ev e = model_step();
          ASSERT_EQ(fired.back(), e.id);
          ASSERT_EQ(s.now(), e.time);
        }
      } else {
        // run_until a random horizon, or exactly the timestamp of a
        // pending event (often a burst), so the drain's inclusive bound is
        // hit; drain the model to the same time.
        const TimePs horizon =
            !m.evs.empty() && rnd(2) == 0
                ? m.evs[rnd(static_cast<std::uint32_t>(m.evs.size()))].time
                : s.now() + static_cast<TimePs>(rnd(30000));
        s.run_until(horizon);
        while (!m.evs.empty() && m.min_time() <= horizon) model_step();
        m.now = horizon;
        ASSERT_EQ(s.now(), horizon);
        ASSERT_EQ(s.pending(), m.evs.size());
        ASSERT_EQ(fired, fired_model);
      }
    }

    s.run();
    while (!m.evs.empty()) model_step();
    ASSERT_EQ(fired, fired_model) << "round " << round;
    // Every scheduled event fired exactly once: all parents, one child per
    // id % 4 == 0 parent and two zero-delay descendants per id % 4 == 1
    // parent.
    const auto parents = static_cast<std::size_t>(next_id);
    ASSERT_EQ(fired.size(),
              parents + (parents + 3) / 4 + 2 * ((parents + 2) / 4));
  }
}

// ---------------------------------------------------------------------------
// Zero heap allocations per scheduled event (after slab warm-up).

TEST(SchedulerAllocationTest, ZeroAllocationsPerEventAfterWarmup) {
  struct Tick {
    Scheduler* s;
    int* remaining;
    void operator()() const {
      if (--*remaining > 0) s->schedule(3, Tick{s, remaining});
    }
  };

  Scheduler s;
  s.reserve(256);
  // Warm-up: touch every code path once (cascade, burst, overflow tier) so
  // slab chunks and the overflow heap reach steady state.
  {
    int remaining = 1000;
    s.schedule(0, Tick{&s, &remaining});
    for (TimePs i = 0; i < 64; ++i) s.schedule(i, [] {});
    s.schedule(20000, [] {});
    s.run();
  }

  const std::uint64_t before = g_heap_allocs.load(std::memory_order_relaxed);
  int remaining = 100000;
  s.schedule(3, Tick{&s, &remaining});
  for (TimePs i = 0; i < 64; ++i) s.schedule(i, [] {});  // same-time burst
  s.schedule(25000, [] {});  // overflow tier push + later promotion
  s.run();
  const std::uint64_t after = g_heap_allocs.load(std::memory_order_relaxed);

  EXPECT_EQ(remaining, 0);
  EXPECT_EQ(after - before, 0u)
      << "kernel allocated on the heap during steady-state event flow";
}

}  // namespace
}  // namespace specnoc::sim
