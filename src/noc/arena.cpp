#include "noc/arena.h"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>

namespace specnoc::noc {

namespace {

// Chunk growth: start small (tiny test networks pay almost nothing), double
// per chunk up to a cap that keeps large-radix builds at a few dozen chunks
// per pool without megabyte-scale over-reservation for mid-sized ones.
constexpr std::size_t kFirstChunkObjects = 16;
constexpr std::size_t kMaxChunkObjects = 16384;

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

void* NetworkArena::Pool::allocate() {
  if (chunks.empty() || chunk_objects.back() == chunk_capacity) {
    chunk_capacity = chunks.empty()
                         ? kFirstChunkObjects
                         : std::min(kMaxChunkObjects, chunk_capacity * 2);
    const std::size_t bytes = chunk_capacity * object_size;
    void* chunk = ::operator new(bytes + slack(alignment));
    chunks.push_back(chunk);
    chunk_objects.push_back(0);
    reserved_bytes += bytes;
  }
  void* slot = first_object(chunks.back(), alignment) +
               chunk_objects.back() * object_size;
  ++chunk_objects.back();
  return slot;
}

std::uint64_t NetworkArena::total_objects() const {
  std::uint64_t total = 0;
  for (const Pool* pool : order_) total += pool->objects;
  return total;
}

std::uint64_t NetworkArena::total_bytes() const {
  std::uint64_t total = 0;
  for (const Pool* pool : order_) {
    total += static_cast<std::uint64_t>(pool->objects) * pool->object_size;
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
    if (pool->objects == 0) continue;
    PoolUsage usage;
    usage.label = pool->label;
    usage.objects = pool->objects;
    usage.bytes = static_cast<std::uint64_t>(pool->objects) *
                  pool->object_size;
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
      pool->destroy(first_object(pool->chunks[c], pool->alignment),
                    pool->chunk_objects[c]);
      ::operator delete(pool->chunks[c]);
    }
    pool->chunks.clear();
    pool->chunk_objects.clear();
    pool->chunk_capacity = 0;
    pool->objects = 0;
    pool->reserved_bytes = 0;
  }
}

}  // namespace specnoc::noc
