/// Tests for the supervised-learning dataset container.

#include <gtest/gtest.h>

#include "ml/dataset.hpp"
#include "util/check.hpp"

namespace bd::ml {
namespace {

TEST(Dataset, AddAndAccess) {
  Dataset d(2, 3);
  d.add(std::vector<double>{1.0, 2.0}, std::vector<double>{3.0, 4.0, 5.0});
  d.add(std::vector<double>{6.0, 7.0}, std::vector<double>{8.0, 9.0, 10.0});
  EXPECT_EQ(d.size(), 2u);
  EXPECT_EQ(d.feature_dim(), 2u);
  EXPECT_EQ(d.target_dim(), 3u);
  EXPECT_DOUBLE_EQ(d.features(1)[0], 6.0);
  EXPECT_DOUBLE_EQ(d.targets(0)[2], 5.0);
}

TEST(Dataset, DimensionMismatchThrows) {
  Dataset d(2, 1);
  EXPECT_THROW(d.add(std::vector<double>{1.0}, std::vector<double>{1.0}),
               bd::CheckError);
  EXPECT_THROW(
      d.add(std::vector<double>{1.0, 2.0}, std::vector<double>{1.0, 2.0}),
      bd::CheckError);
}

TEST(Dataset, MatricesMaterialize) {
  Dataset d(1, 2);
  d.add(std::vector<double>{1.0}, std::vector<double>{2.0, 3.0});
  d.add(std::vector<double>{4.0}, std::vector<double>{5.0, 6.0});
  const Matrix y = d.target_matrix();
  EXPECT_EQ(y.rows(), 2u);
  EXPECT_EQ(y.cols(), 2u);
  EXPECT_DOUBLE_EQ(y(1, 0), 5.0);
  EXPECT_DOUBLE_EQ(y(0, 1), 3.0);
}

TEST(Dataset, SplitPreservesAllExamples) {
  Dataset d(1, 1);
  for (int i = 0; i < 100; ++i) {
    const double v = i;
    d.add(std::vector<double>{v}, std::vector<double>{2 * v});
  }
  util::Rng rng(5);
  const auto [train, test] = d.split(0.25, rng);
  EXPECT_EQ(test.size(), 25u);
  EXPECT_EQ(train.size(), 75u);
  // Every original feature appears exactly once across the two sets.
  std::vector<int> seen(100, 0);
  for (std::size_t i = 0; i < train.size(); ++i) {
    ++seen[static_cast<std::size_t>(train.features(i)[0])];
  }
  for (std::size_t i = 0; i < test.size(); ++i) {
    ++seen[static_cast<std::size_t>(test.features(i)[0])];
  }
  for (int s : seen) EXPECT_EQ(s, 1);
}

TEST(Dataset, SplitIsDeterministicForSeed) {
  Dataset d(1, 1);
  for (int i = 0; i < 20; ++i) {
    const double v = i;
    d.add(std::vector<double>{v}, std::vector<double>{v});
  }
  util::Rng rng1(9), rng2(9);
  const auto [t1, s1] = d.split(0.5, rng1);
  const auto [t2, s2] = d.split(0.5, rng2);
  ASSERT_EQ(t1.size(), t2.size());
  for (std::size_t i = 0; i < t1.size(); ++i) {
    EXPECT_DOUBLE_EQ(t1.features(i)[0], t2.features(i)[0]);
  }
}

TEST(Dataset, ClearKeepsDims) {
  Dataset d(2, 2);
  d.add(std::vector<double>{1.0, 2.0}, std::vector<double>{3.0, 4.0});
  d.clear();
  EXPECT_TRUE(d.empty());
  EXPECT_EQ(d.feature_dim(), 2u);
  d.add(std::vector<double>{1.0, 2.0}, std::vector<double>{3.0, 4.0});
  EXPECT_EQ(d.size(), 1u);
}

}  // namespace
}  // namespace bd::ml
