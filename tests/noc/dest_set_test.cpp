// DestSet property suite.
//
// Two layers of evidence that the addressing redesign is safe:
//  * radix <= 64: every operation is differential-tested against the raw
//    uint64_t mask semantics the type replaced, under randomized op
//    sequences — the DestSet must be bit-for-bit the old alias;
//  * radix 1024/4096: multi-word structural properties (popcount,
//    ascending iteration, subtree splits, codec round-trips, capacity-
//    independent equality/hash) that have no single-word counterpart.
// Plus the allocation contract: inline (radix <= 64) op sequences must
// never touch the spill counter CI asserts on.
#include "noc/dest_set.h"

#include <gtest/gtest.h>

#include <bit>
#include <bitset>
#include <cstdint>
#include <vector>

#include "util/error.h"
#include "util/rng.h"

namespace specnoc::noc {
namespace {

// ---------------------------------------------------------------------------
// Differential layer: DestSet vs the uint64_t mask it replaced (radix <= 64).

/// The reference model: the exact bit arithmetic the simulator used before
/// DestSet existed.
struct WordModel {
  std::uint64_t bits = 0;

  void set(std::uint32_t d) { bits |= std::uint64_t{1} << d; }
  void reset(std::uint32_t d) { bits &= ~(std::uint64_t{1} << d); }
  bool test(std::uint32_t d) const { return (bits >> d) & 1u; }
  std::uint32_t count() const {
    return static_cast<std::uint32_t>(std::popcount(bits));
  }
  bool is_multicast() const { return (bits & (bits - 1)) != 0; }
  std::uint32_t first() const {
    return static_cast<std::uint32_t>(std::countr_zero(bits));
  }
  bool within(std::uint32_t n) const {
    return n >= 64 || (bits >> n) == 0;
  }
  std::uint64_t slice(std::uint32_t lo, std::uint32_t hi) const {
    const std::uint64_t below =
        hi >= 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << hi) - 1;
    const std::uint64_t above =
        lo >= 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << lo) - 1;
    return bits & below & ~above;
  }
};

void expect_matches(const DestSet& set, const WordModel& model) {
  ASSERT_EQ(set.to_word(), model.bits);
  EXPECT_EQ(set.count(), model.count());
  EXPECT_EQ(set.any(), model.bits != 0);
  EXPECT_EQ(set.none(), model.bits == 0);
  EXPECT_EQ(set.is_multicast(), model.is_multicast());
  if (model.bits != 0) {
    EXPECT_EQ(set.first(), model.first());
  }
  for (std::uint32_t n : {1u, 7u, 8u, 33u, 64u}) {
    EXPECT_EQ(set.within(n), model.within(n)) << "within(" << n << ")";
  }
  // Iteration visits exactly the model's members, ascending.
  std::uint64_t seen = 0;
  std::uint32_t last = 0;
  bool first_dest = true;
  set.for_each_dest([&](std::uint32_t d) {
    EXPECT_TRUE(first_dest || d > last);
    first_dest = false;
    last = d;
    seen |= std::uint64_t{1} << d;
  });
  EXPECT_EQ(seen, model.bits);
}

TEST(DestSetDifferentialTest, RandomOpSequencesMatchWordSemantics) {
  Rng rng(0xD1FFu);
  for (int round = 0; round < 50; ++round) {
    DestSet set;
    WordModel model;
    for (int op = 0; op < 200; ++op) {
      const std::uint32_t d = static_cast<std::uint32_t>(rng.uniform_below(64));
      switch (rng.uniform_below(4)) {
        case 0:
          set.set(d);
          model.set(d);
          break;
        case 1:
          set.reset(d);
          model.reset(d);
          break;
        case 2: {
          // subtree_slice == masked extraction on the word model.
          const auto lo = static_cast<std::uint32_t>(rng.uniform_below(65));
          const auto hi =
              lo + static_cast<std::uint32_t>(rng.uniform_below(65 - lo));
          EXPECT_EQ(set.subtree_slice({lo, hi}).to_word(),
                    model.slice(lo, hi));
          EXPECT_EQ(set.intersects(DestRange{lo, hi}),
                    model.slice(lo, hi) != 0);
          break;
        }
        default:
          EXPECT_EQ(set.test(d), model.test(d));
          break;
      }
      expect_matches(set, model);
    }
  }
}

TEST(DestSetDifferentialTest, SetAlgebraMatchesWordSemantics) {
  Rng rng(0xA16EB7Au);
  for (int round = 0; round < 200; ++round) {
    const std::uint64_t a = rng();
    const std::uint64_t b = rng();
    EXPECT_EQ((DestSet::from_word(a) | DestSet::from_word(b)).to_word(),
              a | b);
    EXPECT_EQ((DestSet::from_word(a) & DestSet::from_word(b)).to_word(),
              a & b);
    DestSet removed = DestSet::from_word(a);
    removed.remove(DestSet::from_word(b));
    EXPECT_EQ(removed.to_word(), a & ~b);
    EXPECT_EQ(DestSet::from_word(a).intersects(DestSet::from_word(b)),
              (a & b) != 0);
    EXPECT_EQ(DestSet::from_word(a).subset_of(DestSet::from_word(b)),
              (a & ~b) == 0);
    EXPECT_EQ(DestSet::from_word(a) == DestSet::from_word(b), a == b);
  }
}

TEST(DestSetDifferentialTest, InlineOperationsNeverSpill) {
  const std::uint64_t spills_before = DestSet::spill_allocations();
  Rng rng(0x90u);
  DestSet set;
  for (int op = 0; op < 5000; ++op) {
    const std::uint32_t d = static_cast<std::uint32_t>(rng.uniform_below(64));
    set.set(d);
    set.test(d);
    set.intersects(DestRange{0, 32});
    DestSet copy = set;         // inline copy: no heap involved
    copy.reset(d);
    copy |= DestSet::single(63);
    copy.subtree_slice({16, 48});
    copy.for_each_dest([](std::uint32_t) {});
  }
  EXPECT_EQ(DestSet::spill_allocations(), spills_before);
}

// ---------------------------------------------------------------------------
// Multi-word layer: radix 1024 / 4096 structure.

TEST(DestSetMultiWordTest, PopcountAndAscendingIterationAt1024) {
  Rng rng(0x400u);
  DestSet set;
  std::vector<std::uint32_t> members;
  std::vector<bool> present(1024, false);
  for (int i = 0; i < 300; ++i) {
    const auto d = static_cast<std::uint32_t>(rng.uniform_below(1024));
    if (!present[d]) {
      present[d] = true;
      set.set(d);
    }
  }
  for (std::uint32_t d = 0; d < 1024; ++d) {
    if (present[d]) members.push_back(d);
    EXPECT_EQ(set.test(d), static_cast<bool>(present[d]));
  }
  EXPECT_EQ(set.count(), members.size());
  std::vector<std::uint32_t> visited;
  set.for_each_dest([&](std::uint32_t d) { visited.push_back(d); });
  EXPECT_EQ(visited, members);  // ascending by construction
  EXPECT_EQ(set.first(), members.front());
  EXPECT_TRUE(set.within(1024));
  EXPECT_EQ(set.within(members.back()), false);
}

TEST(DestSetMultiWordTest, SubtreeSplitPartitionsAt4096) {
  // A fanout node splits its incoming set between two half-spans; the two
  // slices must partition the parent slice at every level of a 4096 tree.
  Rng rng(0x1000u);
  DestSet set;
  for (int i = 0; i < 500; ++i) {
    set.set(static_cast<std::uint32_t>(rng.uniform_below(4096)));
  }
  for (std::uint32_t width = 4096; width >= 2; width /= 2) {
    for (std::uint32_t lo = 0; lo < 4096; lo += width) {
      const DestRange span{lo, lo + width};
      const DestSet parent = set.subtree_slice(span);
      const DestRange top{lo, lo + width / 2};
      const DestRange bottom{lo + width / 2, lo + width};
      const DestSet a = set.subtree_slice(top);
      const DestSet b = set.subtree_slice(bottom);
      EXPECT_FALSE(a.intersects(b));
      EXPECT_EQ(a | b, parent);
      EXPECT_EQ(a.count() + b.count(), parent.count());
      EXPECT_EQ(set.intersects(span), parent.any());
    }
    if (width > 256) width = 512;  // keep the quadratic sweep bounded
  }
}

TEST(DestSetMultiWordTest, EqualityAndHashIgnoreCapacity) {
  // Growing to 4096 and shrinking back to low members must compare and
  // hash identically to a set that never spilled.
  DestSet grown;
  grown.set(5);
  grown.set(4095);
  grown.reset(4095);
  const DestSet inline_set = DestSet::single(5);
  EXPECT_EQ(grown, inline_set);
  EXPECT_EQ(inline_set, grown);
  EXPECT_EQ(grown.hash(), inline_set.hash());
  EXPECT_EQ(grown.to_word(), inline_set.to_word());
  EXPECT_TRUE(grown.within(6));

  DestSet other = grown;
  other.set(64);
  EXPECT_NE(other, grown);
  EXPECT_NE(other.hash(), grown.hash());
}

TEST(DestSetMultiWordTest, HexCodecRoundTripsAt4096) {
  Rng rng(0xC0DECu);
  for (int round = 0; round < 50; ++round) {
    DestSet set;
    for (int i = 0; i < 64; ++i) {
      set.set(static_cast<std::uint32_t>(rng.uniform_below(4096)));
    }
    const DestSet back = DestSet::from_hex(set.to_hex());
    EXPECT_EQ(back, set);
    EXPECT_EQ(back.hash(), set.hash());
  }
  EXPECT_EQ(DestSet{}.to_hex(), "0");
  EXPECT_EQ(DestSet::from_hex("0"), DestSet{});
  EXPECT_THROW(DestSet::from_hex(""), ConfigError);
  EXPECT_THROW(DestSet::from_hex("xyz"), ConfigError);
  // 4097 bits cannot fit kMaxEndpoints.
  EXPECT_THROW(DestSet::from_hex("1" + std::string(1024, '0')), ConfigError);
}

TEST(DestSetMultiWordTest, RangeAndFirstNCrossWordBoundaries) {
  const DestSet all = DestSet::first_n(4096);
  EXPECT_EQ(all.count(), 4096u);
  EXPECT_TRUE(all.within(4096));
  const DestSet mid = DestSet::range(60, 70);
  EXPECT_EQ(mid.count(), 10u);
  EXPECT_TRUE(mid.test(60));
  EXPECT_TRUE(mid.test(69));
  EXPECT_FALSE(mid.test(59));
  EXPECT_FALSE(mid.test(70));
  EXPECT_TRUE(mid.subset_of(all));
  EXPECT_FALSE(all.subset_of(mid));
  EXPECT_TRUE(mid.intersects(DestRange{63, 64}));
  EXPECT_FALSE(mid.intersects(DestRange{70, 4096}));
}

TEST(DestSetMultiWordTest, CopyAndMovePreserveValue) {
  DestSet spilled;
  spilled.set(3);
  spilled.set(3000);
  DestSet copy = spilled;
  EXPECT_EQ(copy, spilled);
  copy.set(7);
  EXPECT_FALSE(spilled.test(7));  // deep copy, no aliasing

  DestSet moved = std::move(copy);
  EXPECT_TRUE(moved.test(7));
  EXPECT_TRUE(moved.test(3000));

  DestSet assigned;
  assigned = spilled;
  EXPECT_EQ(assigned, spilled);
  assigned = std::move(moved);
  EXPECT_TRUE(assigned.test(7));
}

// ---------------------------------------------------------------------------
// Spill pool: a reused block must behave exactly like a fresh one, and the
// pool's accounting must uphold the boundedness invariant CI gates on.

using Mirror = std::bitset<kMaxEndpoints>;

/// Member-by-member comparison of a DestSet with its bitset mirror.
void expect_mirrors(const DestSet& set, const Mirror& mirror) {
  ASSERT_EQ(set.count(), mirror.count());
  for (std::uint32_t d = 0; d < kMaxEndpoints; ++d) {
    ASSERT_EQ(set.test(d), mirror.test(d)) << "endpoint " << d;
  }
}

/// The randomized multi-word op sequence (the radix-4096 counterpart of the
/// differential suite above), replayed on a std::bitset mirror and checked
/// member by member along the way. Spilled copies are made and destroyed
/// throughout, so a warm pool hands recycled blocks back to the sequence.
void run_spill_ops_against_mirror(std::uint64_t seed) {
  Rng rng(seed);
  DestSet a;
  DestSet b;
  Mirror ma;
  Mirror mb;
  for (int op = 0; op < 2000; ++op) {
    const auto d = static_cast<std::uint32_t>(rng.uniform_below(4096));
    switch (rng.uniform_below(8)) {
      case 0:
        a.set(d);
        ma.set(d);
        break;
      case 1:
        b.set(d);
        mb.set(d);
        break;
      case 2:
        a.reset(d);
        ma.reset(d);
        break;
      case 3:
        a |= b;
        ma |= mb;
        break;
      case 4:
        b &= a;
        mb &= ma;
        break;
      case 5:
        a.remove(b);
        ma &= ~mb;
        break;
      case 6: {
        const auto lo = static_cast<std::uint32_t>(rng.uniform_below(4096));
        const auto hi = lo + static_cast<std::uint32_t>(
                                 rng.uniform_below(4097 - lo));
        a = a.subtree_slice({lo, hi}) | b;
        Mirror slice;
        for (std::uint32_t i = lo; i < hi; ++i) slice.set(i, ma.test(i));
        ma = slice | mb;
        break;
      }
      default: {
        DestSet copy = a;  // exercise spill copy + destroy
        copy.set(d);
        Mirror expected = ma;
        expected.set(d);
        expect_mirrors(copy, expected);
        break;
      }
    }
    if (op % 97 == 0) {
      expect_mirrors(a, ma);
      expect_mirrors(b, mb);
      EXPECT_EQ(DestSet::from_hex(a.to_hex()), a);
    }
  }
  expect_mirrors(a, ma);
  expect_mirrors(b, mb);
}

TEST(DestSetSpillPoolTest, ColdAndWarmPoolsMatchABitsetMirror) {
  DestSet::trim_spill_pool();
  const auto allocs_before = DestSet::spill_allocations();
  const auto reuses_before = DestSet::spill_reuses();
  {
    SCOPED_TRACE("cold pool");
    run_spill_ops_against_mirror(0x9001u);
  }
  EXPECT_GT(DestSet::spill_allocations(), allocs_before);
  const auto allocs_cold = DestSet::spill_allocations();
  {
    SCOPED_TRACE("warm pool");
    run_spill_ops_against_mirror(0x9001u);
  }
  // The warm replay needs no block the cold one did not already return.
  EXPECT_EQ(DestSet::spill_allocations(), allocs_cold);
  EXPECT_GT(DestSet::spill_reuses(), reuses_before);
  EXPECT_LE(DestSet::spill_allocations(), DestSet::spill_high_water());
}

TEST(DestSetSpillPoolTest, PoolReusesBlocksAndBoundsRawAllocations) {
  const auto allocs_before = DestSet::spill_allocations();
  const auto reuses_before = DestSet::spill_reuses();
  // Sequentially create and destroy spilled sets of one size: after the
  // first, every acquisition must come from the freelist.
  for (int i = 0; i < 100; ++i) {
    DestSet s;
    s.set(100);  // 2-word spill
    EXPECT_TRUE(s.test(100));
  }
  const auto allocs = DestSet::spill_allocations() - allocs_before;
  const auto reuses = DestSet::spill_reuses() - reuses_before;
  EXPECT_LE(allocs, 1u);  // 0 if a 2-word block was already parked
  EXPECT_GE(reuses, 99u);
  // The process-wide boundedness invariant (the CI gate): raw allocations
  // of each size only happen when all prior blocks of that size are live.
  EXPECT_LE(DestSet::spill_allocations(), DestSet::spill_high_water());
}

TEST(DestSetSpillPoolTest, OutstandingTracksLiveSpilledSets) {
  const auto outstanding_before = DestSet::spill_outstanding();
  {
    DestSet s = DestSet::single(4000);
    DestSet t = s;
    EXPECT_EQ(DestSet::spill_outstanding(), outstanding_before + 2);
  }
  EXPECT_EQ(DestSet::spill_outstanding(), outstanding_before);
}

}  // namespace
}  // namespace specnoc::noc
