/// Tests for the set-associative LRU cache model.

#include <gtest/gtest.h>

#include "simt/cache.hpp"
#include "util/check.hpp"

namespace bd::simt {
namespace {

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
  ASSERT_EQ(cache.num_sets(), 4u);
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
  EXPECT_THROW(SetAssocCache(128, 128, 2), CheckError);   // capacity < ways
  EXPECT_THROW(SetAssocCache(1024, 128, 0), CheckError);  // zero ways
}

TEST(Cache, FullyAssociativeWorks) {
  // 4 lines, 4 ways -> 1 set.
  SetAssocCache cache(512, 128, 4);
  EXPECT_EQ(cache.num_sets(), 1u);
  for (int i = 0; i < 4; ++i) cache.access(static_cast<std::uint64_t>(i) * 128);
  for (int i = 0; i < 4; ++i) {
    EXPECT_TRUE(cache.access(static_cast<std::uint64_t>(i) * 128));
  }
  cache.access(4 * 128);                  // evicts line 0 (LRU)
  EXPECT_FALSE(cache.access(0));
}

class CacheCapacitySweep : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(CacheCapacitySweep, WorkingSetWithinCapacityAlwaysHitsOnSecondPass) {
  const std::uint32_t lines = GetParam();
  SetAssocCache cache(lines * 128, 128, 4);
  // Sequential working set equal to capacity: second pass must fully hit
  // (LRU with power-of-two sets and sequential addresses is conflict-free).
  const std::uint32_t resident = cache.num_sets() * cache.ways();
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
