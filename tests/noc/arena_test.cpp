// NetworkArena behavior and the determinism contract it must uphold.
//
// The arena replaced per-object heap allocation for every node and channel;
// the refactor is only sound if it is invisible to the simulation. Two
// constructions of the same network spec must produce the same node
// iteration order (builders and tests pin behavior to it) and, when driven
// by identical traffic, byte-identical measurement output. The unit layer
// checks the slab mechanics directly: stable addresses, per-type pools,
// label and usage accounting.
#include "noc/arena.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/mot_network.h"
#include "stats/metrics.h"
#include "stats/serialization.h"
#include "traffic/driver.h"
#include "util/fork_join.h"
#include "util/json.h"
#include "util/units.h"

namespace specnoc::noc {
namespace {

using namespace specnoc::literals;

struct Tracked {
  /// Throws instead when `fail` is set (the object then never exists).
  explicit Tracked(int v, int* counter, bool fail = false)
      : value(v), destroyed(counter) {
    if (fail) throw std::runtime_error("tracked " + std::to_string(v));
  }
  ~Tracked() { ++*destroyed; }
  int value;
  int* destroyed;
};

struct Wide {
  explicit Wide(double v) : value(v) {}
  alignas(64) double value;
};

TEST(NetworkArenaTest, AddressesAreStableAcrossChunks) {
  // Past two full chunks: every slot keeps the address create_at() gave
  // it while later chunks fill, and at() computes the same one.
  constexpr std::size_t kCount = 2 * NetworkArena::kChunkObjects + 5;
  NetworkArena arena;
  arena.reserve<Tracked>(kCount, "tracked");
  EXPECT_EQ(arena.slots<Tracked>(), kCount);
  int destroyed = 0;
  std::vector<Tracked*> objects;
  for (std::size_t i = 0; i < kCount; ++i) {
    objects.push_back(
        arena.create_at<Tracked>(i, static_cast<int>(i), &destroyed));
  }
  for (std::size_t i = 0; i < kCount; ++i) {
    ASSERT_EQ(objects[i]->value, static_cast<int>(i));
    ASSERT_EQ(arena.at<Tracked>(i), objects[i]);
  }
  EXPECT_EQ(arena.total_objects(), kCount);
  EXPECT_EQ(arena.total_bytes(), kCount * sizeof(Tracked));
  arena.clear();
  EXPECT_EQ(destroyed, static_cast<int>(kCount));
  EXPECT_EQ(arena.total_objects(), 0u);
  EXPECT_EQ(arena.total_reserved_bytes(), 0u);
}

TEST(NetworkArenaTest, PoolsAreLabeledAndAccounted) {
  NetworkArena arena;
  int destroyed = 0;
  arena.reserve<Tracked>(3, "tracked");
  arena.reserve<Wide>(1, "wide");
  arena.create_at<Tracked>(0, 1, &destroyed);
  arena.create_at<Tracked>(2, 2, &destroyed);
  arena.create_at<Wide>(0, 3.0);
  const auto usage = arena.usage();
  ASSERT_EQ(usage.size(), 2u);
  // usage() sorts by label; a reserved pool's bytes are exact.
  EXPECT_EQ(usage[0].label, "tracked");
  EXPECT_EQ(usage[0].objects, 2u);
  EXPECT_EQ(usage[0].bytes, 2 * sizeof(Tracked));
  EXPECT_EQ(usage[0].reserved_bytes, 3 * sizeof(Tracked));
  EXPECT_EQ(usage[1].label, "wide");
  EXPECT_EQ(usage[1].objects, 1u);
  EXPECT_EQ(usage[1].reserved_bytes, sizeof(Wide));
}

TEST(NetworkArenaTest, RespectsOverAlignedTypes) {
  NetworkArena arena;
  arena.reserve<Wide>(100, "wide");
  for (std::size_t i = 0; i < 100; ++i) {
    Wide* w = arena.create_at<Wide>(i, static_cast<double>(i));
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(w) % alignof(Wide), 0u);
  }
}

TEST(NetworkArenaTest, ReservedPoolsConstructAtIndicesFromSeveralThreads) {
  // Past two full chunks, so the last chunk is trimmed and worker blocks
  // straddle chunk boundaries.
  constexpr std::size_t kCount = 2 * NetworkArena::kChunkObjects + 1000;
  constexpr unsigned kWorkers = 4;
  NetworkArena arena;
  arena.reserve<Tracked>(kCount, "tracked");
  EXPECT_EQ(arena.total_reserved_bytes(), kCount * sizeof(Tracked));
  int destroyed = 0;
  util::fork_join(kWorkers, [&](unsigned w) {
    // Interleaved stripes: neighbouring slots come from different threads.
    for (std::size_t i = w; i < kCount; i += kWorkers) {
      arena.create_at<Tracked>(kCount - 1 - i, static_cast<int>(i),
                               &destroyed);
    }
  });
  EXPECT_EQ(arena.total_objects(), kCount);
  for (std::size_t i = 0; i < kCount; ++i) {
    ASSERT_EQ(arena.at<Tracked>(kCount - 1 - i)->value, static_cast<int>(i));
  }
  arena.clear();
  EXPECT_EQ(destroyed, static_cast<int>(kCount));
}

TEST(NetworkArenaTest, RunsWalkSlotsInOrderAcrossChunks) {
  // Past three full chunks, so the walk crosses full and trimmed chunk
  // boundaries.
  constexpr std::size_t kCount = 3 * NetworkArena::kChunkObjects + 100;
  NetworkArena arena;
  int destroyed = 0;
  arena.reserve<Tracked>(kCount, "tracked");
  std::vector<Tracked*> appended;
  for (std::size_t i = 0; i < kCount; ++i) {
    appended.push_back(
        arena.create_at<Tracked>(i, static_cast<int>(i), &destroyed));
  }
  arena.reserve<Wide>(kCount, "wide");
  std::vector<Wide*> reserved;
  for (std::size_t i = 0; i < kCount; ++i) {
    reserved.push_back(arena.create_at<Wide>(i, static_cast<double>(i)));
  }
  EXPECT_EQ(arena.slots<Tracked>(), kCount);
  EXPECT_EQ(arena.slots<Wide>(), kCount);

  // Slots appended one at a time merge into one run; a gap or another
  // pool starts a new one.
  NetworkArena::RunList<Tracked> tracked;
  for (std::size_t i = 0; i < kCount; ++i) {
    tracked.append(arena.run<Tracked, Tracked>(i, 1));
  }
  EXPECT_EQ(tracked.view().runs(), 1u);
  EXPECT_EQ(std::vector<Tracked*>(tracked.view().begin(), tracked.view().end()),
            appended);

  NetworkArena::RunList<Wide> wide;
  wide.append(arena.run<Wide, Wide>(kCount / 2, kCount - kCount / 2));
  wide.append(arena.run<Wide, Wide>(0, 0));  // empty: ignored
  wide.append(arena.run<Wide, Wide>(0, kCount / 2));
  const NetworkArena::RunView<Wide> view = wide.view();
  EXPECT_EQ(view.runs(), 2u);
  EXPECT_EQ(view.size(), kCount);
  EXPECT_EQ(view.front(), reserved[kCount / 2]);
  std::vector<Wide*> expected(reserved.begin() + kCount / 2, reserved.end());
  expected.insert(expected.end(), reserved.begin(),
                  reserved.begin() + kCount / 2);
  EXPECT_EQ(std::vector<Wide*>(view.begin(), view.end()), expected);
}

TEST(NetworkArenaTest, AFailedConcurrentBuildJoinsAndDestroysWhatItBuilt) {
  constexpr std::size_t kCount = 3 * NetworkArena::kChunkObjects;
  constexpr unsigned kWorkers = 4;
  constexpr std::size_t kBlock = kCount / kWorkers;
  constexpr std::size_t kThrowAt = kBlock + 5000;  // inside worker 1's block
  NetworkArena arena;
  arena.reserve<Tracked>(kCount, "tracked");
  int destroyed = 0;
  std::vector<std::size_t> built(kWorkers, 0);
  std::atomic<unsigned> finished{0};
  try {
    util::fork_join(kWorkers, [&](unsigned w) {
      for (std::size_t i = w * kBlock; i < (w + 1) * kBlock; ++i) {
        arena.create_at<Tracked>(i, static_cast<int>(i), &destroyed,
                                 i == kThrowAt);
        ++built[w];
      }
      finished.fetch_add(1);
    });
    FAIL() << "the failed construction did not propagate";
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(std::string(e.what()), "tracked " + std::to_string(kThrowAt));
  }
  // Every other worker ran to completion before the rethrow.
  EXPECT_EQ(finished.load(), kWorkers - 1);
  EXPECT_EQ(built[0], kBlock);
  EXPECT_EQ(built[1], kThrowAt - kBlock);
  std::size_t constructed = 0;
  for (const std::size_t n : built) constructed += n;
  EXPECT_EQ(arena.total_objects(), constructed);
  arena.clear();
  EXPECT_EQ(destroyed, static_cast<int>(constructed));
}

TEST(ForkJoinTest, OneWorkerRunsInlineAndErrorsComeInWorkerOrder) {
  std::thread::id ran_on;
  util::fork_join(1, [&](unsigned w) {
    EXPECT_EQ(w, 0u);
    ran_on = std::this_thread::get_id();
  });
  EXPECT_EQ(ran_on, std::this_thread::get_id());

  std::atomic<unsigned> ran{0};
  try {
    util::fork_join(4, [&](unsigned w) {
      ran.fetch_add(1);
      if (w >= 2) throw std::runtime_error("worker " + std::to_string(w));
    });
    FAIL() << "no exception";
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(std::string(e.what()), "worker 2");
  }
  EXPECT_EQ(ran.load(), 4u);
}

// ---------------------------------------------------------------------------
// Determinism contract.

std::vector<std::string> node_order(core::MotNetwork& network) {
  std::vector<std::string> order;
  for (const Node* node : network.net().nodes()) {
    order.push_back(std::string(to_string(node->kind())) + ":" +
                    node->name());
  }
  return order;
}

TEST(ArenaDeterminismTest, SameSpecBuildsIdenticalNodeOrder) {
  core::NetworkConfig cfg;
  cfg.n = 64;
  const core::Architecture arch = core::Architecture::kOptHybridSpeculative;
  core::MotNetwork first(arch, cfg);
  core::MotNetwork second(arch, cfg);
  EXPECT_EQ(node_order(first), node_order(second));
  EXPECT_EQ(first.net().channels().size(), second.net().channels().size());
  // The arena shape is part of the deterministic build: same pools, same
  // object counts, same bytes.
  const auto a = first.net().arena().usage();
  const auto b = second.net().arena().usage();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].label, b[i].label);
    EXPECT_EQ(a[i].objects, b[i].objects);
    EXPECT_EQ(a[i].bytes, b[i].bytes);
  }
}

/// Builds, saturates, and serializes one network; the returned string
/// captures every measured byte (metrics snapshot JSON + event count).
std::string saturation_fingerprint() {
  core::NetworkConfig cfg;
  cfg.n = 64;
  core::MotNetwork network(core::Architecture::kOptHybridSpeculative, cfg);
  stats::MetricsRegistry registry;
  network.net().hooks().metrics = &registry;
  auto pattern =
      traffic::make_benchmark(traffic::BenchmarkId::kMulticast10, 64);
  traffic::DriverConfig driver_cfg;
  driver_cfg.mode = traffic::InjectionMode::kBacklogged;
  driver_cfg.seed = 17;
  traffic::TrafficDriver driver(network, *pattern, driver_cfg);
  driver.start();
  network.net().run_until(200_ns);
  return util::json_write(stats::to_json(registry.snapshot())) + "#" +
         std::to_string(network.net().executed());
}

TEST(ArenaDeterminismTest, SaturationOutputIsByteIdenticalAcrossBuilds) {
  EXPECT_EQ(saturation_fingerprint(), saturation_fingerprint());
}

}  // namespace
}  // namespace specnoc::noc
