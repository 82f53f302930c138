#include "micro.h"

#include <algorithm>
#include <bit>

#include "ledger.h"
#include "noc/dest_set.h"
#include "sim/scheduler.h"
#include "util/rng.h"

namespace specbench {

using specnoc::Rng;
using specnoc::TimePs;
using specnoc::noc::DestRange;
using specnoc::noc::DestSet;

namespace {

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v.empty() ? 0.0 : v[v.size() / 2];
}

// Switch/channel handshake latencies, NI delays and the fanin watchdog
// timeout: the delays the simulator schedules (nodes/characteristics.cpp).
constexpr TimePs kMixedDelays[] = {50,  52,  110, 120, 130, 140,
                                   150, 263, 279, 299, 350, 900};
constexpr std::uint32_t kNumDelays =
    sizeof(kMixedDelays) / sizeof(kMixedDelays[0]);

}  // namespace

std::vector<DestSetMicro> destset_micro(std::uint64_t seed) {
  constexpr std::size_t kPool = 64;
  constexpr std::size_t kBatch = 4096;
  constexpr std::uint64_t kOpsPerIter = 6;
  std::vector<DestSetMicro> out;
  for (const std::uint32_t words : {1u, 4u, 16u, 64u}) {
    const std::uint32_t n = words * DestSet::kWordBits;
    Rng rng(seed * 1000003u + words);
    std::vector<DestSet> pool(kPool);
    std::vector<DestRange> ranges(kPool);
    for (std::size_t i = 0; i < kPool; ++i) {
      for (std::uint32_t d = 0; d < n; ++d) {
        if (rng.uniform_below(8) == 0) pool[i].set(d);
      }
      // Aligned subtree ranges, as fanout nodes route on them.
      const std::uint32_t depth = static_cast<std::uint32_t>(
          rng.uniform_below(static_cast<std::uint64_t>(
              std::countr_zero(n)))) + 1;
      const std::uint32_t width = n >> depth;
      const std::uint32_t lo =
          static_cast<std::uint32_t>(rng.uniform_below(n / width)) * width;
      ranges[i] = {lo, lo + width};
    }
    DestSet acc = pool[0];
    std::uint64_t sink = 0;
    std::vector<double> samples;
    std::uint64_t ops = 0;
    const std::int64_t deadline = now_ns() + 150'000'000;
    std::size_t k = 0;
    while (samples.size() < 5 || now_ns() < deadline) {
      const std::int64_t start = now_ns();
      for (std::size_t it = 0; it < kBatch; ++it, ++k) {
        const std::size_t i = k % kPool;
        const std::size_t j = (k * 7 + 3) % kPool;
        acc |= pool[i];
        acc &= pool[j];
        sink += acc.intersects(ranges[i]) ? 1 : 0;
        const DestSet slice = pool[j].subtree_slice(ranges[i]);
        sink += slice.count();
        pool[i].for_each_dest([&sink](std::uint32_t d) { sink += d; });
      }
      const std::int64_t elapsed = now_ns() - start;
      samples.push_back(static_cast<double>(elapsed) /
                        static_cast<double>(kBatch * kOpsPerIter));
      ops += kBatch * kOpsPerIter;
    }
    // Keep the results observable so the loop cannot be elided.
    if (sink == 0x5eed) ops += 1;
    out.push_back({words, median(samples), ops});
  }
  return out;
}

double queue_micro(std::size_t depth, std::uint64_t seed) {
  struct Tick {
    specnoc::sim::Scheduler* sched;
    std::uint32_t rng;
    void operator()() const {
      const std::uint32_t r = rng * 1664525u + 1013904223u;
      sched->schedule(kMixedDelays[(r >> 8) % kNumDelays], Tick{sched, r});
    }
  };
  depth = std::max<std::size_t>(depth, 1);
  specnoc::sim::Scheduler sched;
  sched.reserve(depth);
  Rng rng(seed);
  for (std::size_t i = 0; i < depth; ++i) {
    sched.schedule(static_cast<TimePs>(rng.uniform_below(1000)),
                   Tick{&sched, static_cast<std::uint32_t>(rng())});
  }
  // Warm the slab, then time batches of steps: each step pops one event
  // and its handler schedules one, so the pending depth stays constant.
  const std::size_t batch = std::max<std::size_t>(depth, 65536);
  for (std::size_t i = 0; i < batch; ++i) sched.step();
  std::vector<double> samples;
  const std::int64_t deadline = now_ns() + 100'000'000;
  while (samples.size() < 3 || now_ns() < deadline) {
    const std::int64_t start = now_ns();
    for (std::size_t i = 0; i < batch; ++i) sched.step();
    samples.push_back(static_cast<double>(now_ns() - start) /
                      static_cast<double>(batch));
  }
  return median(samples);
}

}  // namespace specbench
