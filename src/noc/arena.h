// NetworkArena: typed slab storage for everything a Network owns.
//
// A large-radix MoT is ~2M nodes and ~3M channels. Holding each behind its
// own unique_ptr scatters them across the heap (allocator metadata per
// object, pointer-chasing on every hop) and makes teardown ~5M frees. The
// arena instead placement-constructs objects of each concrete type into
// contiguous per-type chunks, in construction order:
//
//   * stable addresses — chunks never move or reallocate, so Node*/Channel*
//     taken at build time stay valid for the network's lifetime;
//   * deterministic layout — the same build sequence produces the same
//     object order within every slab, which is what the arena determinism
//     test pins (two constructions of one spec iterate identically);
//   * dense iteration — all fanin nodes (say) are adjacent, so the hot
//     event loop's working set collapses;
//   * O(chunks) teardown — destructors run in-place, then whole chunks are
//     freed; no per-object delete.
//
// Ownership: create<T>() constructs and the arena destroys everything in
// ~NetworkArena (per-pool, construction order). Objects are never destroyed
// individually; this matches Network's grow-only build model.
//
// usage() reports per-pool object counts and bytes (sorted by label) for
// stats::ArenaMetrics and the --metrics report.
#pragma once

#include <cstddef>
#include <memory>
#include <new>
#include <string>
#include <utility>
#include <vector>

#include "util/contract.h"

namespace specnoc::noc {

class NetworkArena {
 public:
  /// Per-pool accounting for metrics: `objects` constructed, `bytes` they
  /// occupy, `reserved_bytes` including unused chunk tails.
  struct PoolUsage {
    std::string label;
    std::uint64_t objects = 0;
    std::uint64_t bytes = 0;
    std::uint64_t reserved_bytes = 0;
  };

  NetworkArena() = default;
  ~NetworkArena() { clear(); }
  NetworkArena(const NetworkArena&) = delete;
  NetworkArena& operator=(const NetworkArena&) = delete;

  /// Constructs a T in its type's slab and returns a stable pointer.
  /// Forwarding is as lenient as std::make_unique's (which lives in a
  /// system header, where conversion warnings are suppressed).
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wsign-conversion"
#pragma GCC diagnostic ignored "-Wconversion"
  template <typename T, typename... Args>
  T* create(Args&&... args) {
    Pool& pool = pool_for<T>();
    void* slot = pool.allocate();
    T* object = new (slot) T(std::forward<Args>(args)...);
    ++pool.objects;
    return object;
  }
#pragma GCC diagnostic pop

  /// Names T's pool for usage() reporting (first call wins; the Network
  /// labels node pools by their NodeKind string after construction, when
  /// the kind is known).
  template <typename T>
  void label_pool(const char* label) {
    Pool& pool = pool_for<T>();
    if (!pool.labeled) {
      pool.label = label;
      pool.labeled = true;
    }
  }

  /// Objects constructed across all pools.
  std::uint64_t total_objects() const;
  /// Bytes occupied by constructed objects across all pools.
  std::uint64_t total_bytes() const;
  /// Bytes reserved (chunk allocations) across all pools.
  std::uint64_t total_reserved_bytes() const;

  /// Per-pool accounting, sorted by label (unlabeled pools report their
  /// mangled-free fallback label "pool<slot>"). Deterministic for a
  /// deterministic build sequence.
  std::vector<PoolUsage> usage() const;

  /// Destroys every object (per pool, construction order) and frees all
  /// chunks. The arena is reusable afterwards.
  void clear();

 private:
  struct Pool {
    std::size_t object_size = 0;
    std::size_t alignment = 0;
    void (*destroy)(void* first, std::size_t count) = nullptr;
    std::string label;
    bool labeled = false;
    std::vector<void*> chunks;  ///< as allocated; objects start at the
                                ///< first `alignment`-aligned byte
    std::vector<std::size_t> chunk_objects;  ///< constructed per chunk
    std::size_t chunk_capacity = 0;          ///< slots in the newest chunk
    std::size_t objects = 0;
    std::size_t reserved_bytes = 0;

    void* allocate();
  };

  /// Process-wide slot assignment: each concrete T gets one index, on first
  /// use. Slot values depend only on first-touch order, which is itself
  /// deterministic for a deterministic program.
  static std::size_t next_type_slot();
  template <typename T>
  static std::size_t type_slot() {
    static const std::size_t slot = next_type_slot();
    return slot;
  }

  template <typename T>
  Pool& pool_for() {
    const std::size_t slot = type_slot<T>();
    if (slot >= pools_.size()) pools_.resize(slot + 1);
    std::unique_ptr<Pool>& pool = pools_[slot];
    if (pool == nullptr) {
      pool = std::make_unique<Pool>();
      pool->object_size = sizeof(T);
      pool->alignment = alignof(T);
      pool->destroy = [](void* first, std::size_t count) {
        T* objects = static_cast<T*>(first);
        for (std::size_t i = 0; i < count; ++i) objects[i].~T();
      };
      pool->label = "pool" + std::to_string(slot);
      order_.push_back(pool.get());
    }
    return *pool;
  }

  std::vector<std::unique_ptr<Pool>> pools_;  ///< indexed by type slot
  std::vector<Pool*> order_;                  ///< first-use order, for clear()
};

}  // namespace specnoc::noc
