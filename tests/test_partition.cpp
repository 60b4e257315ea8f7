/// Tests for the partition algebra: MERGE-LISTS, the midpoint rule that
/// attributes intervals to subregions, and the structure of the §III-C2
/// partitions the solvers build (core/forecast).

#include <gtest/gtest.h>

#include "quad/partition.hpp"
#include "quad_oracle.hpp"
#include "util/check.hpp"

namespace bd::quad {
namespace {

using bd::testing::adaptive_partition;
using bd::testing::count_per_subregion;
using bd::testing::merge_lists;
using bd::testing::uniform_partition;

TEST(Partition, MergeSortedUnique) {
  const std::vector<double> a{0.0, 1.0, 2.0};
  const std::vector<double> b{0.5, 1.0, 3.0};
  const std::vector<double> m = merge_lists(a, b);
  EXPECT_EQ(m, (std::vector<double>{0.0, 0.5, 1.0, 2.0, 3.0}));
}

TEST(Partition, MergeWithEmpty) {
  const std::vector<double> a{0.0, 1.0};
  EXPECT_EQ(merge_lists(a, {}), a);
  EXPECT_EQ(merge_lists({}, a), a);
}

TEST(Partition, MergeEpsilonDeduplicates) {
  const std::vector<double> a{0.0, 1.0};
  const std::vector<double> b{1.0 + 1e-15};
  const std::vector<double> m = merge_lists(a, b, 1e-12);
  EXPECT_EQ(m.size(), 2u);
}

TEST(Partition, MergeOfDyadicPartitionsNests) {
  // Dyadic partitions of the same interval: the union equals the finer
  // one — the property the pow2-rounding of COMPUTE-PARTITION exploits.
  std::vector<double> coarse, fine;
  for (int i = 0; i <= 4; ++i) coarse.push_back(i / 4.0);
  for (int i = 0; i <= 8; ++i) fine.push_back(i / 8.0);
  const std::vector<double> m = merge_lists(coarse, fine);
  EXPECT_EQ(m, fine);
}

TEST(Partition, CountPerSubregionAttributesByMidpoint) {
  // Subregions of width 1: [0,1), [1,2), [2,3).
  const std::vector<double> breaks{0.0, 0.25, 0.5, 1.0, 2.0, 2.5, 3.0};
  const auto counts = count_per_subregion(breaks, 1.0, 3);
  EXPECT_EQ(counts, (std::vector<std::uint32_t>{3, 1, 2}));
}

TEST(Partition, CountPerSubregionClampsOverhang) {
  const std::vector<double> breaks{0.0, 5.0};
  const auto counts = count_per_subregion(breaks, 1.0, 2);
  EXPECT_EQ(counts, (std::vector<std::uint32_t>{0, 1}));
}

TEST(Partition, CountHandlesDegenerateInputs) {
  EXPECT_EQ(count_per_subregion({}, 1.0, 3),
            (std::vector<std::uint32_t>{0, 0, 0}));
  EXPECT_EQ(count_per_subregion({0.5}, 1.0, 2),
            (std::vector<std::uint32_t>{0, 0}));
}

// The FromCounts* tests run the uniform transform at headroom 1 on
// power-of-two counts, which it reproduces exactly.
TEST(Partition, FromCountsProducesRequestedStructure) {
  const std::vector<double> counts{2, 1, 4};
  const std::vector<double> breaks = uniform_partition(counts, 1.0, 3.0, 1.0);
  EXPECT_TRUE(is_valid_partition(breaks));
  EXPECT_DOUBLE_EQ(breaks.front(), 0.0);
  EXPECT_DOUBLE_EQ(breaks.back(), 3.0);
  EXPECT_EQ(count_per_subregion(breaks, 1.0, 3),
            (std::vector<std::uint32_t>{2, 1, 4}));
}

TEST(Partition, FromCountsClipsAtRmax) {
  const std::vector<double> counts{2, 2, 2, 2};
  const std::vector<double> breaks = uniform_partition(counts, 1.0, 2.5, 1.0);
  EXPECT_DOUBLE_EQ(breaks.back(), 2.5);
  EXPECT_TRUE(is_valid_partition(breaks));
}

TEST(Partition, FromCountsZeroBecomesOne) {
  const std::vector<double> counts{0, 0};
  const std::vector<double> breaks = uniform_partition(counts, 1.0, 2.0, 1.0);
  EXPECT_EQ(breaks, (std::vector<double>{0.0, 1.0, 2.0}));
}

TEST(Partition, RefineSubdividesPreviousIntervals) {
  // Previous: one interval per unit subregion; target 2 in each.
  const std::vector<double> previous{0.0, 1.0, 2.0};
  const std::vector<double> counts{2, 4};
  const std::vector<double> refined =
      adaptive_partition(counts, previous, 1.0, 2.0, 1.0);
  EXPECT_TRUE(is_valid_partition(refined));
  const auto c = count_per_subregion(refined, 1.0, 2);
  EXPECT_GE(c[0], 2u);
  EXPECT_GE(c[1], 4u);
}

TEST(Partition, RefineFallsBackWithoutPrevious) {
  const std::vector<double> counts{2, 2};
  const std::vector<double> refined =
      adaptive_partition(counts, {}, 1.0, 2.0, 1.0);
  EXPECT_EQ(refined, uniform_partition(counts, 1.0, 2.0, 1.0));
}

// The Clip* tests drive the adaptive transform's clipping of a previous
// partition that overhangs [0, r_max]. One predicted interval per
// subregion never subdivides a previous interval, so the output is the
// clipped previous partition itself.
TEST(Partition, ClipInsertsEndpoints) {
  const std::vector<double> previous{-0.5, 0.5, 1.5, 2.5};
  const std::vector<double> clipped =
      adaptive_partition(std::vector<double>{1.0, 1.0}, previous, 1.0, 2.0,
                         1.0);
  EXPECT_EQ(clipped, (std::vector<double>{0.0, 0.5, 1.5, 2.0}));
}

TEST(Partition, ClipNonOverlappingIsEmpty) {
  // A previous partition outside [0, r_max] clips to nothing, so nothing
  // is refined: the result is the bare region, whatever the prediction.
  const std::vector<double> pattern{4.0};
  const std::vector<double> above{2.0, 3.0};
  const std::vector<double> below{-2.0, -1.0};
  EXPECT_EQ(adaptive_partition(pattern, above, 1.0, 1.0, 1.0),
            (std::vector<double>{0.0, 1.0}));
  EXPECT_EQ(adaptive_partition(pattern, below, 1.0, 1.0, 1.0),
            (std::vector<double>{0.0, 1.0}));
}

TEST(Partition, IsValidPartitionChecksOrdering) {
  const auto valid = [](std::initializer_list<double> breaks) {
    return is_valid_partition(std::vector<double>(breaks));
  };
  EXPECT_TRUE(valid({0.0, 1.0}));
  EXPECT_FALSE(valid({0.0}));
  EXPECT_FALSE(valid({0.0, 0.0}));
  EXPECT_FALSE(valid({1.0, 0.0}));
}

// Property: for any power-of-two counts vector (zero meaning one
// interval), the uniform transform's partition is valid and reproduces
// the counts (when not clipped). Rounding of other counts is
// TransformSweep's (test_forecast).
class CountsRoundTrip
    : public ::testing::TestWithParam<std::vector<std::uint32_t>> {};

TEST_P(CountsRoundTrip, RoundTrips) {
  const auto counts = GetParam();
  const double sub_width = 0.7;
  const double r_max = sub_width * static_cast<double>(counts.size());
  const std::vector<double> pattern(counts.begin(), counts.end());
  const std::vector<double> breaks =
      uniform_partition(pattern, sub_width, r_max, 1.0);
  EXPECT_TRUE(is_valid_partition(breaks));
  const auto round_trip = count_per_subregion(
      breaks, sub_width, static_cast<std::uint32_t>(counts.size()));
  for (std::size_t j = 0; j < counts.size(); ++j) {
    EXPECT_EQ(round_trip[j], std::max<std::uint32_t>(1, counts[j])) << j;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Cases, CountsRoundTrip,
    ::testing::Values(std::vector<std::uint32_t>{1},
                      std::vector<std::uint32_t>{4, 2, 1},
                      std::vector<std::uint32_t>{8, 8, 8, 8},
                      std::vector<std::uint32_t>{1, 16, 2, 32, 4},
                      std::vector<std::uint32_t>{0, 4, 0, 8}));

}  // namespace
}  // namespace bd::quad
