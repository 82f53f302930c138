#include "noc/dest_set.h"

#include <algorithm>
#include <bit>
#include <mutex>

#include "util/error.h"

namespace specnoc::noc {

namespace {

std::atomic<std::uint64_t> g_spill_allocations{0};
std::atomic<std::uint64_t> g_spill_bytes{0};
std::atomic<std::uint64_t> g_spill_reuses{0};

// Outstanding blocks and their high-water mark, tracked *per word count*:
// the freelists are size-segregated, so the bound "raw allocations never
// exceed peak simultaneous demand" only holds class by class (a raw
// allocation for 5-word sets can happen while 3-word blocks sit parked).
// spill_outstanding()/spill_high_water() report the sums.
std::atomic<std::uint64_t> g_spill_out_by_words[DestSet::kMaxWords + 1]{};
std::atomic<std::uint64_t> g_spill_hw_by_words[DestSet::kMaxWords + 1]{};

/// Per-word-count freelists of released spill blocks, linked intrusively
/// through each block's first word (every block has >= 2 words, so the link
/// always fits). Blocks stay parked here until trim_spill_pool(), keeping
/// them reachable from this static for leak checkers.
struct SpillPool {
  std::mutex mu;
  std::uint64_t* free_head[DestSet::kMaxWords + 1] = {};
};

SpillPool& spill_pool() {
  static SpillPool pool;
  return pool;
}

}  // namespace

std::uint64_t DestSet::spill_allocations() {
  return g_spill_allocations.load(std::memory_order_relaxed);
}
std::uint64_t DestSet::spill_bytes() {
  return g_spill_bytes.load(std::memory_order_relaxed);
}
std::uint64_t DestSet::spill_reuses() {
  return g_spill_reuses.load(std::memory_order_relaxed);
}
std::uint64_t DestSet::spill_outstanding() {
  std::uint64_t total = 0;
  for (std::uint32_t w = 0; w <= kMaxWords; ++w) {
    total += g_spill_out_by_words[w].load(std::memory_order_relaxed);
  }
  return total;
}
std::uint64_t DestSet::spill_high_water() {
  std::uint64_t total = 0;
  for (std::uint32_t w = 0; w <= kMaxWords; ++w) {
    total += g_spill_hw_by_words[w].load(std::memory_order_relaxed);
  }
  return total;
}
void DestSet::trim_spill_pool() {
  SpillPool& pool = spill_pool();
  const std::lock_guard<std::mutex> lock(pool.mu);
  for (std::uint32_t words = 0; words <= kMaxWords; ++words) {
    std::uint64_t* block = pool.free_head[words];
    pool.free_head[words] = nullptr;
    while (block != nullptr) {
      std::uint64_t* next = std::bit_cast<std::uint64_t*>(block[0]);
      delete[] block;
      // A freed block leaves the pool's footprint, so a later raw
      // allocation replacing it keeps spill_allocations() <=
      // spill_high_water().
      g_spill_allocations.fetch_sub(1, std::memory_order_relaxed);
      g_spill_bytes.fetch_sub(std::uint64_t{words} * sizeof(std::uint64_t),
                              std::memory_order_relaxed);
      block = next;
    }
  }
}

std::uint64_t* DestSet::acquire_block(std::uint32_t words) {
  SPECNOC_EXPECTS(words >= 2 && words <= kMaxWords);
  std::uint64_t* block = nullptr;
  {
    SpillPool& pool = spill_pool();
    const std::lock_guard<std::mutex> lock(pool.mu);
    block = pool.free_head[words];
    if (block != nullptr) {
      pool.free_head[words] = std::bit_cast<std::uint64_t*>(block[0]);
    }
  }
  if (block != nullptr) {
    g_spill_reuses.fetch_add(1, std::memory_order_relaxed);
    std::fill(block, block + words, 0);
  } else {
    g_spill_allocations.fetch_add(1, std::memory_order_relaxed);
    g_spill_bytes.fetch_add(std::uint64_t{words} * sizeof(std::uint64_t),
                            std::memory_order_relaxed);
    block = new std::uint64_t[words]();
  }
  const std::uint64_t live =
      g_spill_out_by_words[words].fetch_add(1, std::memory_order_relaxed) + 1;
  std::uint64_t hw = g_spill_hw_by_words[words].load(std::memory_order_relaxed);
  while (live > hw && !g_spill_hw_by_words[words].compare_exchange_weak(
                          hw, live, std::memory_order_relaxed)) {
  }
  return block;
}

void DestSet::release_block(std::uint64_t* block, std::uint32_t words) {
  g_spill_out_by_words[words].fetch_sub(1, std::memory_order_relaxed);
  SpillPool& pool = spill_pool();
  const std::lock_guard<std::mutex> lock(pool.mu);
  block[0] = std::bit_cast<std::uint64_t>(pool.free_head[words]);
  pool.free_head[words] = block;
}

void DestSet::copy_from(const DestSet& other) {
  num_words_ = other.num_words_;
  if (num_words_ == 1) {
    word_ = other.word_;
    return;
  }
  std::uint64_t* fresh = acquire_block(num_words_);
  std::copy(other.heap_, other.heap_ + num_words_, fresh);
  heap_ = fresh;
}

void DestSet::grow(std::uint32_t words_needed) {
  SPECNOC_EXPECTS(words_needed <= kMaxWords);
  if (words_needed <= num_words_) {
    return;
  }
  // Double to amortize incremental set() loops (pattern generators add one
  // destination at a time).
  const std::uint32_t new_words =
      std::min(kMaxWords, std::max(words_needed, num_words_ * 2));
  std::uint64_t* fresh = acquire_block(new_words);
  const std::uint64_t* old = words_ptr();
  std::copy(old, old + num_words_, fresh);
  destroy();
  heap_ = fresh;
  num_words_ = new_words;
}

void DestSet::set_slow(std::uint32_t d) {
  grow(d / kWordBits + 1);
  heap_[d / kWordBits] |= std::uint64_t{1} << (d % kWordBits);
}

DestSet DestSet::range(DestRange range) {
  SPECNOC_EXPECTS(range.hi <= kMaxEndpoints);
  SPECNOC_EXPECTS(range.lo <= range.hi);
  DestSet s;
  if (range.empty()) {
    return s;
  }
  const std::uint32_t w1 = (range.hi - 1) / kWordBits;
  if (w1 >= 1) {
    s.grow(w1 + 1);
  }
  std::uint64_t* w = s.words_ptr();
  const std::uint32_t w0 = range.lo / kWordBits;
  for (std::uint32_t i = w0; i <= w1; ++i) {
    std::uint64_t mask = ~std::uint64_t{0};
    if (i == w0) {
      mask &= ~std::uint64_t{0} << (range.lo % kWordBits);
    }
    if (i == w1) {
      const std::uint32_t top = range.hi - i * kWordBits;
      if (top < kWordBits) {
        mask &= (std::uint64_t{1} << top) - 1;
      }
    }
    w[i] = mask;
  }
  return s;
}

DestSet DestSet::subtree_slice(DestRange range) const {
  DestSet out;
  const std::uint64_t cap = std::uint64_t{num_words_} * kWordBits;
  const std::uint64_t hi64 = range.hi < cap ? range.hi : cap;
  if (range.lo >= hi64) {
    return out;
  }
  const std::uint32_t hi = static_cast<std::uint32_t>(hi64);
  const std::uint32_t w0 = range.lo / kWordBits;
  const std::uint32_t w1 = (hi - 1) / kWordBits;
  if (w1 >= 1) {
    out.grow(w1 + 1);
  }
  const std::uint64_t* src = words_ptr();
  std::uint64_t* dst = out.words_ptr();
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
    dst[i] = src[i] & mask;
  }
  return out;
}

DestSet& DestSet::operator|=(const DestSet& other) {
  if (other.num_words_ > num_words_) {
    // Only grow as far as other's logical content actually needs.
    std::uint32_t needed = other.num_words_;
    const std::uint64_t* ow = other.words_ptr();
    while (needed > num_words_ && ow[needed - 1] == 0) {
      --needed;
    }
    if (needed > num_words_) {
      grow(needed);
    }
  }
  std::uint64_t* w = words_ptr();
  const std::uint64_t* ow = other.words_ptr();
  const std::uint32_t common =
      num_words_ < other.num_words_ ? num_words_ : other.num_words_;
  for (std::uint32_t i = 0; i < common; ++i) {
    w[i] |= ow[i];
  }
  return *this;
}

DestSet& DestSet::operator&=(const DestSet& other) {
  std::uint64_t* w = words_ptr();
  const std::uint64_t* ow = other.words_ptr();
  for (std::uint32_t i = 0; i < num_words_; ++i) {
    w[i] &= i < other.num_words_ ? ow[i] : 0;
  }
  return *this;
}

DestSet& DestSet::remove(const DestSet& other) {
  std::uint64_t* w = words_ptr();
  const std::uint64_t* ow = other.words_ptr();
  const std::uint32_t common =
      num_words_ < other.num_words_ ? num_words_ : other.num_words_;
  for (std::uint32_t i = 0; i < common; ++i) {
    w[i] &= ~ow[i];
  }
  return *this;
}

std::uint64_t DestSet::hash() const {
  const std::uint64_t* w = words_ptr();
  std::uint32_t top = num_words_;
  while (top > 0 && w[top - 1] == 0) {
    --top;
  }
  std::uint64_t h = 1469598103934665603ull;  // FNV-1a offset basis
  for (std::uint32_t i = 0; i < top; ++i) {
    std::uint64_t word = w[i];
    for (std::uint32_t b = 0; b < 8; ++b) {
      h ^= word & 0xffu;
      h *= 1099511628211ull;  // FNV-1a prime
      word >>= 8;
    }
  }
  return h;
}

std::string DestSet::to_hex() const {
  const std::uint64_t* w = words_ptr();
  std::uint32_t top = num_words_;
  while (top > 0 && w[top - 1] == 0) {
    --top;
  }
  if (top == 0) {
    return "0";
  }
  static const char* kDigits = "0123456789abcdef";
  std::string out;
  // Highest word prints without leading zeros; lower words zero-padded to
  // 16 digits each.
  bool leading = true;
  for (std::uint32_t i = top; i-- > 0;) {
    for (std::uint32_t nib = 16; nib-- > 0;) {
      const std::uint32_t digit =
          static_cast<std::uint32_t>((w[i] >> (4 * nib)) & 0xfu);
      if (leading) {
        if (digit == 0) {
          continue;
        }
        leading = false;
      }
      out.push_back(kDigits[digit]);
    }
  }
  return out;
}

DestSet DestSet::from_hex(const std::string& hex) {
  if (hex.empty()) {
    throw ConfigError("DestSet hex string is empty");
  }
  if (hex.size() > kMaxEndpoints / 4) {
    throw ConfigError("DestSet hex string has " + std::to_string(hex.size()) +
                      " digits; max is " +
                      std::to_string(kMaxEndpoints / 4) + " (" +
                      std::to_string(kMaxEndpoints) + " endpoints)");
  }
  DestSet s;
  const std::uint32_t words_needed =
      static_cast<std::uint32_t>((hex.size() * 4 + kWordBits - 1) / kWordBits);
  if (words_needed > 1) {
    s.grow(words_needed);
  }
  std::uint64_t* w = s.words_ptr();
  std::uint32_t nibble = 0;
  for (std::uint32_t i = static_cast<std::uint32_t>(hex.size()); i-- > 0;
       ++nibble) {
    const char c = hex[i];
    std::uint64_t digit = 0;
    if (c >= '0' && c <= '9') {
      digit = static_cast<std::uint64_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      digit = static_cast<std::uint64_t>(c - 'a' + 10);
    } else if (c >= 'A' && c <= 'F') {
      digit = static_cast<std::uint64_t>(c - 'A' + 10);
    } else {
      throw ConfigError(std::string("DestSet hex string has invalid digit '") +
                        c + "'");
    }
    w[nibble / 16] |= digit << (4 * (nibble % 16));
  }
  return s;
}

}  // namespace specnoc::noc
