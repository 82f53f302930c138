#include "noc/arena.h"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>

namespace specnoc::noc {

namespace {

// Chunks come from the plain operator new, and a pool of an over-aligned
// type (Channel is alignas(64)) asks for `alignment` spare bytes and
// aligns its first object by hand. The aligned operator new would serve
// it through glibc's memalign, whose split-off fragments kept a torn-down
// radix-1024 network's freed chunks from being reused by the next build
// in the process: specbench's radix1024_pdes (a build per cell) peaked at
// 1313-1325 MiB that way at seed 3, 1038 MiB this way.
std::size_t slack(std::size_t alignment) {
  return alignment > __STDCPP_DEFAULT_NEW_ALIGNMENT__ ? alignment : 0;
}

char* first_object(void* chunk, std::size_t alignment) {
  const auto address = reinterpret_cast<std::uintptr_t>(chunk);
  return static_cast<char*>(chunk) +
         (alignment - address % alignment) % alignment;
}

}  // namespace

std::size_t NetworkArena::next_type_slot() {
  static std::atomic<std::size_t> counter{0};
  return counter.fetch_add(1, std::memory_order_relaxed);
}

void NetworkArena::Pool::reserve(std::size_t count) {
  SPECNOC_EXPECTS(chunks.empty());
  live.assign(count, 0);
  chunks.reserve((count + kChunkObjects - 1) / kChunkObjects);
  firsts.reserve(chunks.capacity());
  for (std::size_t first = 0; first < count; first += kChunkObjects) {
    const std::size_t bytes =
        std::min(count - first, kChunkObjects) * object_size;
    chunks.push_back(::operator new(bytes + slack(alignment)));
    firsts.push_back(first_object(chunks.back(), alignment));
    reserved_bytes += bytes;
  }
}

std::size_t NetworkArena::Pool::objects() const {
  return static_cast<std::size_t>(std::count(live.begin(), live.end(), 1));
}

std::uint64_t NetworkArena::total_objects() const {
  std::uint64_t total = 0;
  for (const Pool* pool : order_) total += pool->objects();
  return total;
}

std::uint64_t NetworkArena::total_bytes() const {
  std::uint64_t total = 0;
  for (const Pool* pool : order_) {
    total += static_cast<std::uint64_t>(pool->objects()) * pool->object_size;
  }
  return total;
}

std::uint64_t NetworkArena::total_reserved_bytes() const {
  std::uint64_t total = 0;
  for (const Pool* pool : order_) total += pool->reserved_bytes;
  return total;
}

std::vector<NetworkArena::PoolUsage> NetworkArena::usage() const {
  std::vector<PoolUsage> out;
  out.reserve(order_.size());
  for (const Pool* pool : order_) {
    const std::size_t objects = pool->objects();
    if (objects == 0) continue;
    PoolUsage usage;
    usage.label = pool->label;
    usage.objects = objects;
    usage.bytes = static_cast<std::uint64_t>(objects) * pool->object_size;
    usage.reserved_bytes = pool->reserved_bytes;
    out.push_back(std::move(usage));
  }
  std::sort(out.begin(), out.end(),
            [](const PoolUsage& a, const PoolUsage& b) {
              return a.label < b.label;
            });
  return out;
}

void NetworkArena::clear() {
  for (Pool* pool : order_) {
    for (std::size_t c = 0; c < pool->chunks.size(); ++c) {
      const std::size_t base = c * kChunkObjects;  // first slot of chunk c
      const std::size_t end =
          std::min(base + kChunkObjects, pool->live.size());
      // Destroy each run of constructed slots with one call.
      for (std::size_t i = base; i < end;) {
        if (pool->live[i] == 0) {
          ++i;
          continue;
        }
        std::size_t run_end = i + 1;
        while (run_end < end && pool->live[run_end] != 0) ++run_end;
        pool->destroy(pool->slot(i), run_end - i);
        i = run_end;
      }
      ::operator delete(pool->chunks[c]);
    }
    pool->chunks.clear();
    pool->firsts.clear();
    pool->live.clear();
    pool->reserved_bytes = 0;
  }
}

}  // namespace specnoc::noc
