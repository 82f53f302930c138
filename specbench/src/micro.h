// Layer microbenchmarks for the traced run: DestSet algebra at 1 to 64
// words and bucket-queue schedule+step at a given pending depth.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace specbench {

struct DestSetMicro {
  std::uint32_t words = 0;
  double ns_per_op = 0.0;
  std::uint64_t ops = 0;
};

/// ns per DestSet operation over a mix of |=, &=, intersects, subtree_slice,
/// count and for_each_dest on random sets of 64 x {1, 4, 16, 64} endpoints.
std::vector<DestSetMicro> destset_micro(std::uint64_t seed);

/// ns per sim::Scheduler schedule+step pair with `depth` events pending,
/// using the simulator's handshake delay mix.
double queue_micro(std::size_t depth, std::uint64_t seed);

}  // namespace specbench
