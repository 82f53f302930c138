#include "sim/scheduler.h"

#include <vector>

#include <gtest/gtest.h>

namespace specnoc::sim {
namespace {

TEST(SchedulerTest, StartsAtZero) {
  Scheduler s;
  EXPECT_EQ(s.now(), 0);
  EXPECT_EQ(s.pending(), 0u);
  EXPECT_FALSE(s.step());
}

TEST(SchedulerTest, RunsEventsInTimeOrder) {
  Scheduler s;
  std::vector<int> order;
  s.schedule(30, [&] { order.push_back(3); });
  s.schedule(10, [&] { order.push_back(1); });
  s.schedule(20, [&] { order.push_back(2); });
  s.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(s.now(), 30);
}

TEST(SchedulerTest, TiesBreakByInsertionOrder) {
  Scheduler s;
  std::vector<int> order;
  s.schedule(10, [&] { order.push_back(1); });
  s.schedule(10, [&] { order.push_back(2); });
  s.schedule(10, [&] { order.push_back(3); });
  s.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(SchedulerTest, HandlersCanScheduleMoreEvents) {
  Scheduler s;
  std::vector<TimePs> fire_times;
  s.schedule(5, [&] {
    fire_times.push_back(s.now());
    s.schedule(5, [&] { fire_times.push_back(s.now()); });
  });
  s.run();
  EXPECT_EQ(fire_times, (std::vector<TimePs>{5, 10}));
}

TEST(SchedulerTest, ZeroDelayFiresAtSameTimeAfterCurrent) {
  Scheduler s;
  std::vector<int> order;
  s.schedule(10, [&] {
    order.push_back(1);
    s.schedule(0, [&] { order.push_back(2); });
  });
  s.schedule(10, [&] { order.push_back(3); });
  s.run();
  // The zero-delay event was inserted after event 3, so fires after it.
  EXPECT_EQ(order, (std::vector<int>{1, 3, 2}));
  EXPECT_EQ(s.now(), 10);
}

TEST(SchedulerTest, RunUntilAdvancesClockExactly) {
  Scheduler s;
  int fired = 0;
  s.schedule(50, [&] { ++fired; });
  s.schedule(150, [&] { ++fired; });
  s.run_until(100);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(s.now(), 100);
  EXPECT_EQ(s.pending(), 1u);
  s.run_until(150);
  EXPECT_EQ(fired, 2);
}

TEST(SchedulerTest, RunUntilIncludesBoundary) {
  Scheduler s;
  int fired = 0;
  s.schedule(100, [&] { ++fired; });
  s.run_until(100);
  EXPECT_EQ(fired, 1);
}

TEST(SchedulerTest, ExecutedCounter) {
  Scheduler s;
  for (int i = 0; i < 7; ++i) {
    s.schedule(i, [] {});
  }
  s.run();
  EXPECT_EQ(s.executed(), 7u);
}

TEST(SchedulerTest, ScheduleAtAbsoluteTime) {
  Scheduler s;
  TimePs seen = -1;
  s.schedule(10, [&] { s.schedule_at(25, [&] { seen = s.now(); }); });
  s.run();
  EXPECT_EQ(seen, 25);
}

TEST(SchedulerTest, FarFutureEventsInterleaveWithNearOnes) {
  // Delays far beyond the bucket-queue window (watchdog/horizon scale)
  // must still interleave correctly with short handshake delays.
  Scheduler s;
  std::vector<TimePs> fire_times;
  auto record = [&] { fire_times.push_back(s.now()); };
  s.schedule(1000000, record);
  s.schedule(50, record);
  s.schedule(5000, record);
  s.schedule(50, [&] {
    record();
    s.schedule(999950, record);  // lands at the same ps as the first event
  });
  s.run();
  EXPECT_EQ(fire_times,
            (std::vector<TimePs>{50, 50, 5000, 1000000, 1000000}));
}

// What the epoch hook sees is part of the kernel's observable contract
// (telemetry samples executed() and pending() from it): the first event at
// or past the boundary is already popped but not yet run, and now() is
// still the previous event's time. Pinned under run_until and run, with a
// same-picosecond burst on a boundary whose first event schedules a
// zero-delay child into that picosecond.
TEST(SchedulerTest, EpochHookObservesFirstEventPoppedNotRun) {
  struct Seen {
    TimePs boundary;
    TimePs now;
    std::uint64_t executed;
    std::size_t pending;
    bool operator==(const Seen&) const = default;
  };
  Scheduler s;
  std::vector<Seen> seen;
  s.set_epoch_hook(100, [&](TimePs boundary) {
    seen.push_back({boundary, s.now(), s.executed(), s.pending()});
  });
  std::vector<int> order;
  auto record = [&](int id) { return [&order, id] { order.push_back(id); }; };
  s.schedule_at(30, record(0));
  s.schedule_at(100, [&] {
    order.push_back(1);
    s.schedule(0, record(4));
  });
  s.schedule_at(100, record(2));
  s.schedule_at(100, record(3));
  s.schedule_at(199, record(5));
  s.schedule_at(350, record(6));
  s.schedule_at(400, record(7));
  s.schedule_at(400, record(8));

  s.run_until(250);
  EXPECT_EQ(seen, (std::vector<Seen>{{100, 30, 1, 6}}));
  EXPECT_EQ(s.now(), 250);
  s.run();
  EXPECT_EQ(seen,
            (std::vector<Seen>{{100, 30, 1, 6}, {300, 250, 6, 2},
                               {400, 350, 7, 1}}));
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7, 8}));
  EXPECT_EQ(s.executed(), 9u);
}

// pending() and next_time() read from inside handlers count every event
// not yet popped, including the rest of the picosecond being drained.
TEST(SchedulerTest, HandlersSeeTheRestOfThePicosecondPending) {
  Scheduler s;
  std::vector<std::size_t> pending;
  std::vector<TimePs> next;
  auto record = [&] {
    pending.push_back(s.pending());
    next.push_back(s.next_time());
  };
  for (int i = 0; i < 4; ++i) s.schedule_at(10, record);
  s.schedule_at(10, [&] {
    record();
    s.schedule(0, record);
  });
  s.schedule_at(11, record);
  s.run_until(10);
  EXPECT_EQ(pending, (std::vector<std::size_t>{5, 4, 3, 2, 1, 1}));
  EXPECT_EQ(next, (std::vector<TimePs>{10, 10, 10, 10, 11, 11}));
  EXPECT_EQ(s.next_time(), 11);
  s.run();
  EXPECT_EQ(pending, (std::vector<std::size_t>{5, 4, 3, 2, 1, 1, 0}));
  EXPECT_EQ(next.back(), Scheduler::kIdleTime);
}

TEST(SchedulerTest, ReserveDoesNotDisturbPendingEvents) {
  Scheduler s;
  int fired = 0;
  s.schedule(10, [&] { ++fired; });
  s.reserve(1024);
  s.schedule(20, [&] { ++fired; });
  s.run();
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(s.executed(), 2u);
}

}  // namespace
}  // namespace specnoc::sim
