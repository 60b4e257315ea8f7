/// Tests for the COMPUTE-PARTITION transforms (§III-C2).

#include <gtest/gtest.h>

#include <algorithm>

#include "core/forecast.hpp"
#include "quad/partition.hpp"
#include "quad_oracle.hpp"
#include "util/rng.hpp"

namespace bd::core {
namespace {

using bd::testing::adaptive_partition;
using bd::testing::count_per_subregion;
using bd::testing::merge_lists;
using bd::testing::uniform_partition;

TEST(RoundPow2, NearestInLogSpace) {
  EXPECT_EQ(round_pow2(0.0), 1u);
  EXPECT_EQ(round_pow2(1.0), 1u);
  EXPECT_EQ(round_pow2(1.3), 1u);
  EXPECT_EQ(round_pow2(1.5), 2u);
  EXPECT_EQ(round_pow2(3.0), 4u);   // log2(3)=1.58 -> 2 -> 4
  EXPECT_EQ(round_pow2(5.0), 4u);   // log2(5)=2.32 -> 2 -> 4
  EXPECT_EQ(round_pow2(6.0), 8u);   // log2(6)=2.58 -> 3 -> 8
  EXPECT_EQ(round_pow2(16.0), 16u);
  EXPECT_EQ(round_pow2(100.0), 128u);
}

TEST(UniformTransform, ProducesDyadicCounts) {
  const std::vector<double> pattern{1.0, 3.0, 7.0};
  const std::vector<double> breaks =
      uniform_partition(pattern, 1.0, 3.0, /*headroom=*/1.0);
  EXPECT_TRUE(quad::is_valid_partition(breaks));
  const auto counts = count_per_subregion(breaks, 1.0, 3);
  EXPECT_EQ(counts[0], 1u);
  EXPECT_EQ(counts[1], 4u);
  EXPECT_EQ(counts[2], 8u);
}

TEST(UniformTransform, HeadroomProvisionsUp) {
  const std::vector<double> pattern{3.0};
  // 1.5 × 3 = 4.5 -> nearest pow2 is 4; 1.5 × 6 = 9 -> 8.
  const auto a = uniform_partition(pattern, 1.0, 1.0, 1.5);
  EXPECT_EQ(count_per_subregion(a, 1.0, 1)[0], 4u);
  const auto b = uniform_partition(std::vector<double>{6.0}, 1.0, 1.0, 1.5);
  EXPECT_EQ(count_per_subregion(b, 1.0, 1)[0], 8u);
}

TEST(UniformTransform, ClipsAtRmax) {
  const std::vector<double> pattern{2.0, 2.0, 2.0, 2.0};
  const std::vector<double> breaks =
      uniform_partition(pattern, 1.0, 2.5, 1.0);
  EXPECT_DOUBLE_EQ(breaks.back(), 2.5);
  EXPECT_TRUE(quad::is_valid_partition(breaks));
}

TEST(UniformTransform, SimilarPatternsShareBreakpoints) {
  // The dyadic property: the finer partition contains the coarser one, so
  // MERGE-LISTS of cluster members stays tight.
  const auto coarse =
      uniform_partition(std::vector<double>{4.0}, 1.0, 1.0, 1.0);
  const auto fine =
      uniform_partition(std::vector<double>{8.0}, 1.0, 1.0, 1.0);
  const auto merged = merge_lists(coarse, fine);
  EXPECT_EQ(merged, fine);
}

TEST(AdaptiveTransform, RefinesPreviousPartition) {
  const std::vector<double> previous{0.0, 0.5, 1.0, 2.0};
  const std::vector<double> pattern{4.0, 2.0};
  const std::vector<double> refined = adaptive_partition(
      pattern, previous, 1.0, 2.0, /*headroom=*/1.0);
  EXPECT_TRUE(quad::is_valid_partition(refined));
  const auto counts = count_per_subregion(refined, 1.0, 2);
  EXPECT_GE(counts[0], 4u);
  EXPECT_GE(counts[1], 2u);
  // Previous breakpoints survive (refinement, not regeneration).
  bool has_half = false;
  for (double b : refined) has_half |= (b == 0.5);
  EXPECT_TRUE(has_half);
}

TEST(AdaptiveTransform, FallsBackWithoutPrevious) {
  const std::vector<double> pattern{2.0, 2.0};
  EXPECT_EQ(adaptive_partition(pattern, {}, 1.0, 2.0, 1.0),
            uniform_partition(pattern, 1.0, 2.0, 1.0));
}

// Property: for any pattern, the generated partition spans [0, r_max] and
// provisions at least the rounded predicted count per subregion.
class TransformSweep : public ::testing::TestWithParam<std::vector<double>> {};

TEST_P(TransformSweep, ProvisionsAtLeastPrediction) {
  const auto pattern = GetParam();
  const double r_max = static_cast<double>(pattern.size());
  const auto breaks = uniform_partition(pattern, 1.0, r_max, 1.0);
  EXPECT_TRUE(quad::is_valid_partition(breaks));
  EXPECT_DOUBLE_EQ(breaks.front(), 0.0);
  EXPECT_DOUBLE_EQ(breaks.back(), r_max);
  const auto counts = count_per_subregion(
      breaks, 1.0, static_cast<std::uint32_t>(pattern.size()));
  for (std::size_t j = 0; j < pattern.size(); ++j) {
    EXPECT_EQ(counts[j], round_pow2(pattern[j])) << j;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Patterns, TransformSweep,
    ::testing::Values(std::vector<double>{1.0},
                      std::vector<double>{0.2, 1.7, 9.3},
                      std::vector<double>{32.0, 16.0, 8.0, 4.0},
                      std::vector<double>{0.0, 0.0, 64.0},
                      std::vector<double>{2.5, 2.5, 2.5, 2.5, 2.5}));

// ---- The shipped *_bound / *_into pairs, called directly ------------------
// Seeded random inputs: patterns mixing zeros, fractions and counts up to
// 64; random subregion widths with r_max = w·κ as in RpProblem; previous
// partitions that are empty, span [0, r_max] exactly, or overhang or fall
// short of it at either end. Every *_into writes into a slot far larger
// than any output these inputs can produce, so an overrun of its bound
// shows up as a returned length above the bound.

struct TransformCase {
  std::vector<double> pattern;
  std::vector<double> previous;
  double sub_width = 1.0;
  double r_max = 1.0;
};

TransformCase random_case(util::Rng& rng) {
  TransformCase c;
  const auto kappa = static_cast<std::uint32_t>(1 + rng.uniform_index(16));
  c.sub_width = rng.uniform(0.05, 3.0);
  c.r_max = c.sub_width * kappa;
  for (std::uint32_t j = 0; j < kappa; ++j) {
    const std::uint64_t kind = rng.uniform_index(3);
    c.pattern.push_back(kind == 0   ? 0.0
                        : kind == 1 ? rng.uniform(0.0, 2.0)
                                    : rng.uniform(0.0, 64.0));
  }
  if (rng.uniform_index(4) == 0) return c;  // no previous partition
  // Each end: exactly at the region's end, past it, or inside it.
  const auto end = [&](double at, double outward) {
    switch (rng.uniform_index(3)) {
      case 0: return at;
      case 1: return at + outward * rng.uniform(0.01, 1.0) * c.r_max;
      default: return at - outward * rng.uniform(0.01, 0.45) * c.r_max;
    }
  };
  const double lo = end(0.0, -1.0);
  const double hi = end(c.r_max, 1.0);
  c.previous.push_back(lo);
  const std::uint64_t interior = rng.uniform_index(20);
  for (std::uint64_t i = 0; i < interior; ++i) {
    c.previous.push_back(rng.uniform(lo, hi));
  }
  c.previous.push_back(hi);
  std::sort(c.previous.begin(), c.previous.end());
  c.previous.erase(std::unique(c.previous.begin(), c.previous.end()),
                   c.previous.end());
  return c;
}

constexpr int kTransformCases = 2000;
constexpr std::size_t kSlot = 1 << 13;

TEST(TransformPairs, IntoWritesAtMostBound) {
  util::Rng rng(17);
  std::vector<double> slot(kSlot);
  for (int trial = 0; trial < kTransformCases; ++trial) {
    const TransformCase c = random_case(rng);
    SCOPED_TRACE(trial);
    const std::size_t uniform_bound = pattern_to_partition_bound(c.pattern);
    ASSERT_LE(uniform_bound, kSlot);
    EXPECT_LE(pattern_to_partition_into(c.pattern, c.sub_width, c.r_max,
                                        slot),
              uniform_bound);
    const std::size_t adaptive_bound = pattern_to_partition_adaptive_bound(
        c.pattern, c.previous, c.sub_width, c.r_max);
    ASSERT_LE(adaptive_bound, kSlot);
    EXPECT_LE(pattern_to_partition_adaptive_into(c.pattern, c.previous,
                                                 c.sub_width, c.r_max, slot),
              adaptive_bound);
  }
}

TEST(TransformPairs, OutputSpansRegionStrictlyIncreasing) {
  util::Rng rng(18);
  std::vector<double> slot(kSlot);
  const auto check = [](std::span<const double> breaks, double r_max) {
    EXPECT_TRUE(quad::is_valid_partition(breaks));
    ASSERT_GE(breaks.size(), 2u);
    EXPECT_DOUBLE_EQ(breaks.front(), 0.0);
    EXPECT_DOUBLE_EQ(breaks.back(), r_max);
  };
  for (int trial = 0; trial < kTransformCases; ++trial) {
    const TransformCase c = random_case(rng);
    SCOPED_TRACE(trial);
    const std::size_t uniform_len =
        pattern_to_partition_into(c.pattern, c.sub_width, c.r_max, slot);
    check(std::span<const double>(slot).first(uniform_len), c.r_max);
    const std::size_t adaptive_len = pattern_to_partition_adaptive_into(
        c.pattern, c.previous, c.sub_width, c.r_max, slot);
    check(std::span<const double>(slot).first(adaptive_len), c.r_max);
  }
}

TEST(TransformPairs, UniformCountsAreRoundedPattern) {
  util::Rng rng(19);
  std::vector<double> slot(kSlot);
  for (int trial = 0; trial < kTransformCases; ++trial) {
    const TransformCase c = random_case(rng);
    SCOPED_TRACE(trial);
    const std::size_t len =
        pattern_to_partition_into(c.pattern, c.sub_width, c.r_max, slot);
    const auto kappa = static_cast<std::uint32_t>(c.pattern.size());
    const auto counts = count_per_subregion(
        std::vector<double>(slot.begin(), slot.begin() + len), c.sub_width,
        kappa);
    for (std::uint32_t j = 0; j < kappa; ++j) {
      EXPECT_EQ(counts[j], round_pow2(kPartitionHeadroom * c.pattern[j]))
          << "subregion " << j;
    }
  }
}

TEST(TransformPairs, AdaptiveKeepsPreviousBreakpoints) {
  // Method 2 subdivides the previous intervals, so every previous
  // breakpoint inside (0, r_max) is an output breakpoint.
  util::Rng rng(20);
  std::vector<double> slot(kSlot);
  for (int trial = 0; trial < kTransformCases; ++trial) {
    const TransformCase c = random_case(rng);
    SCOPED_TRACE(trial);
    const std::size_t len = pattern_to_partition_adaptive_into(
        c.pattern, c.previous, c.sub_width, c.r_max, slot);
    const std::span<const double> out =
        std::span<const double>(slot).first(len);
    for (double p : c.previous) {
      if (!(p > 0.0 && p < c.r_max)) continue;
      EXPECT_TRUE(std::binary_search(out.begin(), out.end(), p))
          << "previous breakpoint " << p;
    }
  }
}

}  // namespace
}  // namespace bd::core
