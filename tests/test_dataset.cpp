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
