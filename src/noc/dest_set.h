// DestSet: the destination-addressing value type for every network layer.
//
// A destination set is logically a bitset over endpoint indices
// [0, kMaxEndpoints). The representation is small-buffer optimized: sets
// whose highest member is below 64 live in a single inline word — zero heap
// allocations and the same cost as the raw uint64_t mask this type replaced —
// and only sets that actually address endpoint >= 64 spill to a heap array
// of words (capacity grows on demand, capped at kMaxEndpoints/64 words).
//
// Semantics are *logical*, independent of storage width: two sets with the
// same members compare equal and hash identically even if one carries extra
// zero capacity. test() beyond capacity is false; set() grows.
//
// DestRange is a half-open contiguous span [lo, hi) of endpoint indices.
// MoT fanout subtrees always cover contiguous spans, so the routing hot path
// (`does this packet need output X?`) is intersects(DestRange) — O(1) on
// inline sets, O(words in range) on spilled ones — and fanout nodes store
// two 8-byte ranges instead of two multi-word masks (at radix 4096 there are
// ~n^2 nodes per network; per-node masks would cost gigabytes).
//
// Every operation the simulator needs is named here (set/test/count/
// for_each_dest/subtree_slice/intersects/subset_of/words/hash) so the bit
// arithmetic formerly scattered across ~40 files goes through one audited
// surface.
#pragma once

#include <atomic>
#include <bit>
#include <cstdint>
#include <string>

#include "util/contract.h"

namespace specnoc::noc {

/// Maximum endpoint count any network may address (64x64 grid).
inline constexpr std::uint32_t kMaxEndpoints = 4096;

/// Half-open span [lo, hi) of endpoint indices. MoT fanout subtrees and
/// synthesizer layer placements are contiguous, so ranges are the compact
/// routing currency at every radix.
struct DestRange {
  std::uint32_t lo = 0;
  std::uint32_t hi = 0;

  std::uint32_t width() const { return hi - lo; }
  bool empty() const { return lo >= hi; }
  bool contains(std::uint32_t d) const { return d >= lo && d < hi; }

  friend bool operator==(DestRange a, DestRange b) {
    return a.lo == b.lo && a.hi == b.hi;
  }
  friend bool operator!=(DestRange a, DestRange b) { return !(a == b); }
};

class DestSet {
 public:
  static constexpr std::uint32_t kWordBits = 64;
  static constexpr std::uint32_t kMaxWords = kMaxEndpoints / kWordBits;

  constexpr DestSet() noexcept : word_(0), num_words_(1) {}

  DestSet(const DestSet& other) { copy_from(other); }
  DestSet(DestSet&& other) noexcept : num_words_(other.num_words_) {
    if (num_words_ == 1) {
      word_ = other.word_;
    } else {
      heap_ = other.heap_;
    }
    other.word_ = 0;
    other.num_words_ = 1;
  }
  DestSet& operator=(const DestSet& other) {
    if (this != &other) {
      destroy();
      copy_from(other);
    }
    return *this;
  }
  DestSet& operator=(DestSet&& other) noexcept {
    if (this != &other) {
      destroy();
      num_words_ = other.num_words_;
      if (num_words_ == 1) {
        word_ = other.word_;
      } else {
        heap_ = other.heap_;
      }
      other.word_ = 0;
      other.num_words_ = 1;
    }
    return *this;
  }
  ~DestSet() { destroy(); }

  /// The set {d}.
  static DestSet single(std::uint32_t d) {
    DestSet s;
    s.set(d);
    return s;
  }

  /// All endpoints in [range.lo, range.hi).
  static DestSet range(DestRange range);
  static DestSet range(std::uint32_t lo, std::uint32_t hi) {
    return range(DestRange{lo, hi});
  }
  /// All endpoints in [0, n) — "broadcast to an n-endpoint network".
  static DestSet first_n(std::uint32_t n) { return range(0, n); }

  /// Adopts a raw 64-bit mask (endpoints 0..63). The bridge for trace
  /// schema 1, spec files, and the radix <= 64 differential tests.
  static DestSet from_word(std::uint64_t bits) {
    DestSet s;
    s.word_ = bits;
    return s;
  }

  // -- membership ----------------------------------------------------------

  /// Adds endpoint d. Grows storage when d is beyond current capacity;
  /// never allocates while d < 64 on an inline set.
  void set(std::uint32_t d) {
    SPECNOC_EXPECTS(d < kMaxEndpoints);
    const std::uint32_t w = d / kWordBits;
    if (w >= num_words_) {
      set_slow(d);
      return;
    }
    words_ptr()[w] |= std::uint64_t{1} << (d % kWordBits);
  }

  /// Removes endpoint d (no-op if absent or beyond capacity).
  void reset(std::uint32_t d) {
    const std::uint32_t w = d / kWordBits;
    if (w < num_words_) {
      words_ptr()[w] &= ~(std::uint64_t{1} << (d % kWordBits));
    }
  }

  bool test(std::uint32_t d) const {
    const std::uint32_t w = d / kWordBits;
    if (w >= num_words_) {
      return false;
    }
    return (words_ptr()[w] >> (d % kWordBits)) & 1u;
  }

  /// Empties the set (keeps capacity).
  void clear() {
    std::uint64_t* w = words_ptr();
    for (std::uint32_t i = 0; i < num_words_; ++i) {
      w[i] = 0;
    }
  }

  // -- queries -------------------------------------------------------------

  bool none() const {
    const std::uint64_t* w = words_ptr();
    for (std::uint32_t i = 0; i < num_words_; ++i) {
      if (w[i] != 0) {
        return false;
      }
    }
    return true;
  }
  bool any() const { return !none(); }

  /// Number of members (popcount).
  std::uint32_t count() const {
    const std::uint64_t* w = words_ptr();
    std::uint32_t total = 0;
    for (std::uint32_t i = 0; i < num_words_; ++i) {
      total += static_cast<std::uint32_t>(std::popcount(w[i]));
    }
    return total;
  }

  /// True when the set has two or more members (cheaper than count() > 1).
  bool is_multicast() const {
    const std::uint64_t* w = words_ptr();
    bool seen = false;
    for (std::uint32_t i = 0; i < num_words_; ++i) {
      if (w[i] == 0) {
        continue;
      }
      if (seen || (w[i] & (w[i] - 1)) != 0) {
        return true;
      }
      seen = true;
    }
    return false;
  }

  /// Lowest member. Requires any().
  std::uint32_t first() const {
    const std::uint64_t* w = words_ptr();
    for (std::uint32_t i = 0; i < num_words_; ++i) {
      if (w[i] != 0) {
        return i * kWordBits +
               static_cast<std::uint32_t>(std::countr_zero(w[i]));
      }
    }
    SPECNOC_EXPECTS(false && "DestSet::first() on empty set");
    return 0;
  }

  /// True if this set and `range` share any endpoint. The routing hot path:
  /// inline sets hit the single-word fast path.
  bool intersects(DestRange range) const {
    const std::uint64_t cap = std::uint64_t{num_words_} * kWordBits;
    const std::uint64_t hi64 = range.hi < cap ? range.hi : cap;
    if (range.lo >= hi64) {
      return false;
    }
    const std::uint32_t hi = static_cast<std::uint32_t>(hi64);
    const std::uint64_t* w = words_ptr();
    const std::uint32_t w0 = range.lo / kWordBits;
    const std::uint32_t w1 = (hi - 1) / kWordBits;
    for (std::uint32_t i = w0; i <= w1; ++i) {
      std::uint64_t mask = ~std::uint64_t{0};
      if (i == w0) {
        mask &= ~std::uint64_t{0} << (range.lo % kWordBits);
      }
      if (i == w1) {
        const std::uint32_t top = hi - i * kWordBits;
        if (top < kWordBits) {
          mask &= (std::uint64_t{1} << top) - 1;
        }
      }
      if ((w[i] & mask) != 0) {
        return true;
      }
    }
    return false;
  }

  bool intersects(const DestSet& other) const {
    const std::uint32_t common =
        num_words_ < other.num_words_ ? num_words_ : other.num_words_;
    const std::uint64_t* a = words_ptr();
    const std::uint64_t* b = other.words_ptr();
    for (std::uint32_t i = 0; i < common; ++i) {
      if ((a[i] & b[i]) != 0) {
        return true;
      }
    }
    return false;
  }

  /// True when every member is < n (the set fits an n-endpoint network).
  /// Allocation-free at any radix — the admission check on every send.
  bool within(std::uint32_t n) const {
    const std::uint64_t* w = words_ptr();
    for (std::uint32_t i = 0; i < num_words_; ++i) {
      const std::uint64_t base = std::uint64_t{i} * kWordBits;
      if (base >= n) {
        if (w[i] != 0) {
          return false;
        }
        continue;
      }
      const std::uint64_t span = n - base;
      const std::uint64_t allowed =
          span >= kWordBits ? ~std::uint64_t{0}
                            : (std::uint64_t{1} << span) - 1;
      if ((w[i] & ~allowed) != 0) {
        return false;
      }
    }
    return true;
  }

  /// True if every member of this set is also in `other`.
  bool subset_of(const DestSet& other) const {
    const std::uint64_t* a = words_ptr();
    const std::uint64_t* b = other.words_ptr();
    for (std::uint32_t i = 0; i < num_words_; ++i) {
      const std::uint64_t bw = i < other.num_words_ ? b[i] : 0;
      if ((a[i] & ~bw) != 0) {
        return false;
      }
    }
    return true;
  }

  /// The members of this set that fall inside `range` — how a fanout node
  /// splits a destination set between its two subtrees.
  DestSet subtree_slice(DestRange range) const;

  // -- set algebra ---------------------------------------------------------

  DestSet& operator|=(const DestSet& other);
  DestSet& operator&=(const DestSet& other);
  /// Removes every member of `other` from this set (and-not).
  DestSet& remove(const DestSet& other);

  friend DestSet operator|(DestSet a, const DestSet& b) { return a |= b; }
  friend DestSet operator&(DestSet a, const DestSet& b) { return a &= b; }

  friend bool operator==(const DestSet& a, const DestSet& b) {
    const std::uint32_t n =
        a.num_words_ > b.num_words_ ? a.num_words_ : b.num_words_;
    const std::uint64_t* aw = a.words_ptr();
    const std::uint64_t* bw = b.words_ptr();
    for (std::uint32_t i = 0; i < n; ++i) {
      const std::uint64_t x = i < a.num_words_ ? aw[i] : 0;
      const std::uint64_t y = i < b.num_words_ ? bw[i] : 0;
      if (x != y) {
        return false;
      }
    }
    return true;
  }
  friend bool operator!=(const DestSet& a, const DestSet& b) {
    return !(a == b);
  }

  // -- iteration -----------------------------------------------------------

  /// Calls f(d) for every member d in ascending order. Multicast expansion
  /// and mesh routing depend on this order for determinism.
  template <typename F>
  void for_each_dest(F&& f) const {
    const std::uint64_t* w = words_ptr();
    for (std::uint32_t i = 0; i < num_words_; ++i) {
      std::uint64_t bits = w[i];
      while (bits != 0) {
        const std::uint32_t d =
            i * kWordBits + static_cast<std::uint32_t>(std::countr_zero(bits));
        f(d);
        bits &= bits - 1;
      }
    }
  }

  // -- raw access / codecs -------------------------------------------------

  /// Storage words, lowest endpoints first. Trailing words may be zero;
  /// use num_words() for the count. For codecs and differential tests.
  const std::uint64_t* words() const { return words_ptr(); }
  std::uint32_t num_words() const { return num_words_; }
  /// Word i of the logical value (0 beyond capacity).
  std::uint64_t word(std::uint32_t i) const {
    return i < num_words_ ? words_ptr()[i] : 0;
  }

  /// The raw 64-bit mask. Requires all members < 64 (inline or not).
  std::uint64_t to_word() const {
    const std::uint64_t* w = words_ptr();
    for (std::uint32_t i = 1; i < num_words_; ++i) {
      SPECNOC_EXPECTS(w[i] == 0 && "DestSet::to_word() with members >= 64");
    }
    return w[0];
  }

  /// Content hash (FNV-1a over the words up to the highest nonzero one).
  /// Equal sets hash equal regardless of capacity.
  std::uint64_t hash() const;

  /// Lowercase big-integer hex of the set ("0" when empty, no leading
  /// zeros) — the trace schema 2 wire form.
  std::string to_hex() const;
  /// Parses to_hex() output. Throws ConfigError on malformed or oversized
  /// input.
  static DestSet from_hex(const std::string& hex);

  // -- allocation accounting / spill pool ----------------------------------

  /// Process-wide count of *raw* heap spills (operator new[] calls on the
  /// spill path), less the blocks trim_spill_pool() freed. A released
  /// multi-word block goes to a per-word-count freelist and is reused, so
  /// this counter is the pool's high-water mark of simultaneously live
  /// blocks, not the multicast traffic volume — bounded for any
  /// steady-state workload. Inline sets (radix <= 64) never touch the
  /// spill path.
  static std::uint64_t spill_allocations();
  /// Bytes obtained via raw spill allocations (the pool's footprint —
  /// monotonic between trims, since pooled blocks are recycled rather than
  /// freed).
  static std::uint64_t spill_bytes();
  /// Freelist hits (spills served without allocating).
  static std::uint64_t spill_reuses();
  /// Multi-word blocks currently live (acquired and not yet released).
  static std::uint64_t spill_outstanding();
  /// Peak simultaneous demand, summed per block size (the freelists are
  /// size-segregated, so the per-size high-water marks are what bound
  /// allocations). spill_allocations() <= spill_high_water() always
  /// holds: a raw allocation of a given size happens only when every block
  /// of that size the pool owns is outstanding — the CI gate.
  static std::uint64_t spill_high_water();
  /// Frees every block parked on the freelists and takes them off
  /// spill_allocations()/spill_bytes() (the other counters keep their
  /// values), so the next spills allocate afresh. For tests that want a
  /// cold pool; call it between runs, not during one (per-run deltas of
  /// the two counters assume no trim in between).
  static void trim_spill_pool();

 private:
  const std::uint64_t* words_ptr() const {
    return num_words_ == 1 ? &word_ : heap_;
  }
  std::uint64_t* words_ptr() { return num_words_ == 1 ? &word_ : heap_; }

  void copy_from(const DestSet& other);
  void grow(std::uint32_t words_needed);
  /// Out-of-line spill path for set(): grows then sets. Kept out of the
  /// header so the inline fast path stays small (and GCC's array-bounds
  /// analysis never sees a heap store through the union).
  void set_slow(std::uint32_t d);
  /// Spill-block lifecycle, out of line (pool bookkeeping).
  static std::uint64_t* acquire_block(std::uint32_t words);
  static void release_block(std::uint64_t* block, std::uint32_t words);
  void destroy() {
    if (num_words_ > 1) {
      release_block(heap_, num_words_);
    }
  }

  union {
    std::uint64_t word_;   ///< storage when num_words_ == 1
    std::uint64_t* heap_;  ///< storage when num_words_ > 1
  };
  std::uint32_t num_words_;
};

}  // namespace specnoc::noc
