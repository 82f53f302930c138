// NetworkArena: typed slab storage for everything a Network owns.
//
// A large-radix MoT is ~2M nodes and ~3M channels. Holding each behind its
// own unique_ptr scatters them across the heap (allocator metadata per
// object, pointer-chasing on every hop) and makes teardown ~5M frees. The
// arena instead placement-constructs objects of each concrete type into
// contiguous per-type chunks:
//
//   * stable addresses — chunks never move or reallocate, so Node*/Channel*
//     taken at build time stay valid for the network's lifetime;
//   * deterministic layout — an object's slot is the index its builder
//     derived from structure, so two builds of one spec lay every slab out
//     identically, which is what the arena determinism test pins;
//   * dense iteration — all fanin nodes (say) are adjacent, so the hot
//     event loop's working set collapses;
//   * O(chunks) teardown — destructors run in-place, then whole chunks are
//     freed; no per-object delete.
//
// A pool is filled one way: reserve<T>(count, label) sizes an empty pool
// exactly up front, on the calling thread, after which create_at<T>(index)
// constructs at any slot below `count` — concurrently from several threads
// for distinct slots — and at<T>(index) computes a slot's address without
// a lookup table.
//
// Ownership: the arena destroys everything it constructed in
// ~NetworkArena (per pool, slot order), and only that: a build abandoned
// by an exception leaves unconstructed slots, which are skipped. Objects
// are never destroyed individually; this matches Network's grow-only build
// model.
//
// The arena is also the object list. A RunList names a sequence of runs —
// consecutive slots of one pool — and its view walks them as pointers to a
// common base class, so Network::nodes() and channels() cost a few words
// per run instead of a pointer per object.
//
// usage() reports per-pool object counts and bytes (sorted by label) for
// stats::ArenaMetrics and the --metrics report.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <memory>
#include <new>
#include <string>
#include <utility>
#include <vector>

#include "util/contract.h"

namespace specnoc::noc {

class NetworkArena {
  struct Pool;

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

  // Forwarding is as lenient as std::make_unique's (which lives in a
  // system header, where conversion warnings are suppressed).
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wsign-conversion"
#pragma GCC diagnostic ignored "-Wconversion"
  /// Constructs a T in slot `index` of its pool, which reserve<T>() sized.
  /// Distinct slots may be constructed concurrently from several threads:
  /// this touches only the slot and its own constructed flag. If the
  /// constructor throws, the slot stays unconstructed.
  template <typename T, typename... Args>
  T* create_at(std::size_t index, Args&&... args) {
    Pool& pool = reserved_pool<T>();
    SPECNOC_EXPECTS(index < pool.live.size() && pool.live[index] == 0);
    T* object = new (pool.slot(index)) T(std::forward<Args>(args)...);
    pool.live[index] = 1;
    return object;
  }
#pragma GCC diagnostic pop

  /// Sizes T's pool for exactly `count` objects placed by create_at():
  /// chunks of kChunkObjects slots, the last one trimmed to fit, allocated
  /// here with the plain operator new. The pool must be empty; `label`
  /// names it in usage().
  template <typename T>
  void reserve(std::size_t count, const char* label) {
    Pool& pool = pool_for<T>();
    pool.reserve(count);
    pool.label = label;
  }

  /// The T that create_at() constructed in slot `index` of its reserved
  /// pool; the address is computed, not looked up.
  template <typename T>
  T* at(std::size_t index) {
    Pool& pool = reserved_pool<T>();
    SPECNOC_EXPECTS(index < pool.live.size() && pool.live[index] != 0);
    return std::launder(static_cast<T*>(pool.slot(index)));
  }

  /// Objects per full chunk; a pool's last chunk is trimmed to fit.
  static constexpr std::size_t kChunkObjects = 16384;

  /// Slots reserve<T>() sized in T's pool (0 before it).
  template <typename T>
  std::size_t slots() const {
    const std::size_t slot = type_slot<T>();
    return slot < pools_.size() && pools_[slot] != nullptr
               ? pools_[slot]->live.size()
               : 0;
  }

  /// Slots [first, first + count) of one pool, seen as Base (a base class
  /// of the pool's type). The slots must hold constructed objects by the
  /// time a view dereferences them.
  template <typename Base>
  struct Run {
    const Pool* pool = nullptr;
    std::size_t first = 0;
    std::size_t count = 0;
    Base* (*cast)(void* slot) = nullptr;
  };

  /// The run of slots [first, first + count) of T's pool, as Base.
  template <typename Base, typename T>
  Run<Base> run(std::size_t first, std::size_t count) {
    return Run<Base>{&pool_for<T>(), first, count, [](void* slot) -> Base* {
                       return std::launder(static_cast<T*>(slot));
                     }};
  }

  /// A forward range over the objects of a sequence of runs, in order.
  template <typename Base>
  class RunView {
   public:
    class iterator {
     public:
      using iterator_category = std::forward_iterator_tag;
      using value_type = Base*;
      using difference_type = std::ptrdiff_t;
      using pointer = void;
      using reference = Base*;

      iterator() = default;
      Base* operator*() const {
        return run_->cast(run_->pool->slot(slot_));
      }
      iterator& operator++() {
        if (++slot_ == run_->first + run_->count) {
          ++run_;
          slot_ = run_ != last_ ? run_->first : 0;
        }
        return *this;
      }
      iterator operator++(int) {
        iterator before = *this;
        ++*this;
        return before;
      }
      bool operator==(const iterator& other) const {
        return run_ == other.run_ && slot_ == other.slot_;
      }

     private:
      friend class RunView;
      iterator(const Run<Base>* run, const Run<Base>* last)
          : run_(run), last_(last), slot_(run != last ? run->first : 0) {}

      const Run<Base>* run_ = nullptr;
      const Run<Base>* last_ = nullptr;
      std::size_t slot_ = 0;
    };

    RunView(const Run<Base>* first, const Run<Base>* last, std::size_t size)
        : first_(first), last_(last), size_(size) {}

    iterator begin() const { return iterator(first_, last_); }
    iterator end() const { return iterator(last_, last_); }
    std::size_t size() const { return size_; }
    Base* front() const {
      SPECNOC_EXPECTS(size_ != 0);
      return *begin();
    }
    /// Runs walked: what the view costs beyond the arena itself.
    std::size_t runs() const {
      return static_cast<std::size_t>(last_ - first_);
    }

   private:
    const Run<Base>* first_;
    const Run<Base>* last_;
    std::size_t size_;
  };

  /// An ordered object list stored as runs: appending the slot right
  /// after the last run's end of the same pool extends that run.
  template <typename Base>
  class RunList {
   public:
    void append(const Run<Base>& run) {
      if (run.count == 0) return;
      size_ += run.count;
      if (!runs_.empty()) {
        Run<Base>& last = runs_.back();
        if (last.pool == run.pool && last.first + last.count == run.first) {
          last.count += run.count;
          return;
        }
      }
      runs_.push_back(run);
    }
    RunView<Base> view() const {
      return RunView<Base>(runs_.data(), runs_.data() + runs_.size(), size_);
    }
    bool empty() const { return size_ == 0; }

    /// The run holding position `index` of the list, and the pool slot
    /// there, found by walking the runs (a MoT's channels are three).
    std::pair<const Run<Base>*, std::size_t> locate(std::size_t index) const {
      SPECNOC_EXPECTS(index < size_);
      const Run<Base>* run = runs_.data();
      while (index >= run->count) index -= (run++)->count;
      return {run, run->first + index};
    }
    /// The object at position `index`, which must be constructed.
    Base* at(std::size_t index) const {
      const auto [run, slot] = locate(index);
      return run->cast(run->pool->slot(slot));
    }

   private:
    std::vector<Run<Base>> runs_;
    std::size_t size_ = 0;
  };

  /// True when `run` lies in T's pool.
  template <typename T, typename Base>
  bool holds(const Run<Base>& run) const {
    const std::size_t slot = type_slot<T>();
    return slot < pools_.size() && run.pool == pools_[slot].get();
  }

  /// Objects constructed across all pools.
  std::uint64_t total_objects() const;
  /// Bytes occupied by constructed objects across all pools.
  std::uint64_t total_bytes() const;
  /// Bytes reserved (chunk allocations) across all pools.
  std::uint64_t total_reserved_bytes() const;

  /// Per-pool accounting of the pools holding objects, sorted by label.
  /// Deterministic for a deterministic build sequence.
  std::vector<PoolUsage> usage() const;

  /// Destroys every constructed object (per pool, slot order) and frees
  /// all chunks. The arena is reusable afterwards.
  void clear();

 private:
  struct Pool {
    std::size_t object_size = 0;
    std::size_t alignment = 0;
    void (*destroy)(void* first, std::size_t count) = nullptr;
    std::string label;
    std::vector<void*> chunks;   ///< as allocated
    std::vector<char*> firsts;   ///< each chunk's first object: its first
                                 ///< `alignment`-aligned byte
    /// One flag per reserved slot: 1 once its object is constructed.
    /// Bytes, not bits, so concurrent create_at() calls never share a
    /// memory location.
    std::vector<std::uint8_t> live;
    std::size_t reserved_bytes = 0;

    void reserve(std::size_t count);
    /// Address of slot `index`: chunk index / kChunkObjects.
    void* slot(std::size_t index) const {
      return firsts[index / kChunkObjects] +
             (index % kChunkObjects) * object_size;
    }
    std::size_t objects() const;
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
      order_.push_back(pool.get());
    }
    return *pool;
  }

  /// T's pool, which reserve<T>() sized: a read-only lookup, safe on any
  /// thread.
  template <typename T>
  Pool& reserved_pool() {
    const std::size_t slot = type_slot<T>();
    SPECNOC_EXPECTS(slot < pools_.size() && pools_[slot] != nullptr);
    return *pools_[slot];
  }

  std::vector<std::unique_ptr<Pool>> pools_;  ///< indexed by type slot
  std::vector<Pool*> order_;                  ///< first-use order, for clear()
};

}  // namespace specnoc::noc
