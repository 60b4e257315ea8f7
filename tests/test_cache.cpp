/// Tests for the set-associative LRU cache model.

#include <gtest/gtest.h>

#include "simt/cache.hpp"
#include "simt_oracle.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace bd::simt {
namespace {

using bd::testing::oracle::TickLruCache;

/// A 4-set, 2-way cache of 128 B lines whose hits and misses are counted
/// from access() results, as the cache replay counts them.
struct CountingCache {
  SetAssocCache cache{1024, 128, 2};
  CacheStats stats;

  bool access(std::uint64_t addr) {
    const bool hit = cache.access(addr);
    ++(hit ? stats.hits : stats.misses);
    return hit;
  }
};

TEST(Cache, FirstAccessMisses) {
  CountingCache c;
  EXPECT_FALSE(c.access(0));
  EXPECT_EQ(c.stats.misses, 1u);
  EXPECT_EQ(c.stats.hits, 0u);
}

TEST(Cache, SecondAccessHits) {
  CountingCache c;
  c.access(0);
  EXPECT_TRUE(c.access(0));
  EXPECT_TRUE(c.access(64));  // same 128B line
  EXPECT_EQ(c.stats.hits, 2u);
  EXPECT_EQ(c.stats.misses, 1u);
}

TEST(Cache, DistinctLinesMiss) {
  SetAssocCache cache(1024, 128, 2);
  cache.access(0);
  EXPECT_FALSE(cache.access(128));
  EXPECT_FALSE(cache.access(256));
}

TEST(Cache, LruEvictionWithinSet) {
  // 1024B / 128B lines / 2 ways = 4 sets. Lines mapping to set 0:
  // addresses 0, 4*128=512, 8*128=1024, ...
  SetAssocCache cache(1024, 128, 2);
  ASSERT_EQ(SetAssocCache::sets_for(1024, 128, 2), 4u);
  cache.access(0);      // A
  cache.access(512);    // B — set full
  EXPECT_TRUE(cache.access(0));     // touch A; B is now LRU
  cache.access(1024);   // C evicts B
  EXPECT_TRUE(cache.access(0));     // A survives
  EXPECT_FALSE(cache.access(512));  // B was evicted
}

TEST(Cache, StatsHitRate) {
  CountingCache c;
  EXPECT_DOUBLE_EQ(c.stats.hit_rate(), 0.0);  // no accesses yet
  c.access(0);
  c.access(0);
  c.access(0);
  c.access(0);
  EXPECT_EQ(c.stats.accesses(), 4u);
  EXPECT_DOUBLE_EQ(c.stats.hit_rate(), 0.75);
}

TEST(Cache, StatsAccumulate) {
  CacheStats a{3, 1};
  CacheStats b{1, 5};
  a += b;
  EXPECT_EQ(a.hits, 4u);
  EXPECT_EQ(a.misses, 6u);
  EXPECT_DOUBLE_EQ(a.hit_rate(), 0.4);
}

TEST(Cache, RejectsBadGeometry) {
  EXPECT_THROW(SetAssocCache(1024, 100, 2), CheckError);  // non-pow2 line
  EXPECT_THROW(SetAssocCache(1024, 1, 2), CheckError);    // 1-byte line
  EXPECT_THROW(SetAssocCache(128, 128, 2), CheckError);   // capacity < ways
  EXPECT_THROW(SetAssocCache(1024, 128, 0), CheckError);  // zero ways
}

TEST(Cache, FullyAssociativeWorks) {
  // 4 lines, 4 ways -> 1 set.
  SetAssocCache cache(512, 128, 4);
  EXPECT_EQ(SetAssocCache::sets_for(512, 128, 4), 1u);
  for (int i = 0; i < 4; ++i) cache.access(static_cast<std::uint64_t>(i) * 128);
  for (int i = 0; i < 4; ++i) {
    EXPECT_TRUE(cache.access(static_cast<std::uint64_t>(i) * 128));
  }
  cache.access(4 * 128);                  // evicts line 0 (LRU)
  EXPECT_FALSE(cache.access(0));
}

TEST(Cache, MatchesTickLruOracle) {
  // Seeded streams over a pool of lines: a pool just above capacity gives
  // a hit-heavy stream, one 8x capacity a miss-heavy one. A quarter of
  // the accesses repeat the previous line (its set's most recent) or the
  // line the oracle would evict next (its set's least recent): the two
  // ends of each set's recency order. Every access's hit/miss must equal
  // the oracle's.
  struct Geometry {
    const char* name;
    std::uint32_t capacity, line, ways;
  };
  const Geometry geometries[] = {
      {"direct-mapped", 1024, 128, 1},
      {"2-way", 1024, 128, 2},
      {"K40 L1", 48 * 1024, 128, 6},
      {"K40 L2 partition", 64 * 16 * 32, 32, 16},
      {"fully associative", 16 * 128, 128, 16},
  };
  for (const Geometry& g : geometries) {
    const std::uint32_t lines = g.capacity / g.line;
    for (const std::uint32_t pool : {lines + lines / 4, 8 * lines}) {
      SCOPED_TRACE(::testing::Message()
                   << g.name << ", pool of " << pool << " lines");
      SetAssocCache cache(g.capacity, g.line, g.ways);
      TickLruCache oracle(g.capacity, g.line, g.ways);
      ASSERT_EQ(SetAssocCache::sets_for(g.capacity, g.line, g.ways),
                oracle.num_sets());
      util::Rng rng(pool * 31 + g.ways);
      std::uint64_t prev = 0;
      std::uint64_t hits = 0, lru_hits = 0;
      constexpr int kAccesses = 20000;
      for (int i = 0; i < kAccesses; ++i) {
        const double pick = rng.uniform();
        std::uint64_t addr =
            rng.uniform_index(pool) * g.line + rng.uniform_index(g.line);
        const std::optional<std::uint64_t> lru = oracle.lru_line(addr);
        const bool repeat_lru = pick < 0.125 && lru.has_value();
        if (repeat_lru) {
          addr = *lru + rng.uniform_index(g.line);
        } else if (pick < 0.25 && i > 0) {
          addr = prev;
        }
        const bool want = oracle.access(addr);
        ASSERT_EQ(cache.access(addr), want) << "access " << i << " at "
                                            << addr;
        hits += want;
        lru_hits += repeat_lru && want;
        prev = addr;
      }
      EXPECT_GT(lru_hits, 0u);
      if (pool > 2 * lines) {
        EXPECT_LT(hits, kAccesses / 2u);
      } else {
        EXPECT_GT(hits, kAccesses / 2u);
      }
    }
  }
}

class CacheCapacitySweep : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(CacheCapacitySweep, WorkingSetWithinCapacityAlwaysHitsOnSecondPass) {
  const std::uint32_t lines = GetParam();
  SetAssocCache cache(lines * 128, 128, 4);
  // Sequential working set equal to capacity: second pass must fully hit
  // (LRU with power-of-two sets and sequential addresses is conflict-free).
  const std::uint32_t resident =
      SetAssocCache::sets_for(lines * 128, 128, 4) * 4;  // × 4 ways
  for (std::uint32_t i = 0; i < resident; ++i) cache.access(i * 128ull);
  std::uint32_t misses = 0;
  for (std::uint32_t i = 0; i < resident; ++i) {
    if (!cache.access(i * 128ull)) ++misses;
  }
  EXPECT_EQ(misses, 0u);
}

INSTANTIATE_TEST_SUITE_P(Capacities, CacheCapacitySweep,
                         ::testing::Values(4u, 8u, 16u, 64u, 256u));

}  // namespace
}  // namespace bd::simt
