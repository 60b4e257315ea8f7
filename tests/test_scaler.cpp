/// Tests for the feature standardizer.

#include <gtest/gtest.h>

#include <cmath>

#include "ml/dataset.hpp"
#include "ml/scaler.hpp"
#include "util/check.hpp"

namespace bd::ml {
namespace {

Dataset two_column_data() {
  Dataset d(2, 1);
  // Column 0: mean 10, column 1: mean -1.
  d.add(std::vector<double>{8.0, -2.0}, std::vector<double>{0.0});
  d.add(std::vector<double>{10.0, -1.0}, std::vector<double>{0.0});
  d.add(std::vector<double>{12.0, 0.0}, std::vector<double>{0.0});
  return d;
}

TEST(Scaler, FitComputesMoments) {
  StandardScaler scaler;
  scaler.fit(two_column_data());
  ASSERT_TRUE(scaler.fitted());
  EXPECT_NEAR(scaler.means()[0], 10.0, 1e-12);
  EXPECT_NEAR(scaler.means()[1], -1.0, 1e-12);
  // One population σ = sqrt(8/3) above the mean scales to 1.
  std::vector<double> v{10.0 + std::sqrt(8.0 / 3.0), -1.0};
  scaler.transform(v);
  EXPECT_NEAR(v[0], 1.0, 1e-12);
}

TEST(Scaler, TransformCentersAndScales) {
  StandardScaler scaler;
  scaler.fit(two_column_data());
  std::vector<double> v{10.0, -1.0};
  scaler.transform(v);
  EXPECT_NEAR(v[0], 0.0, 1e-12);
  EXPECT_NEAR(v[1], 0.0, 1e-12);
}

TEST(Scaler, ConstantColumnLeftUnscaled) {
  Dataset d(1, 1);
  d.add(std::vector<double>{5.0}, std::vector<double>{0.0});
  d.add(std::vector<double>{5.0}, std::vector<double>{0.0});
  StandardScaler scaler;
  scaler.fit(d);
  std::vector<double> v{7.0};
  scaler.transform(v);
  EXPECT_NEAR(v[0], 2.0, 1e-12);  // centered, not divided by ~0
}

TEST(Scaler, ErrorsOnMisuse) {
  StandardScaler scaler;
  std::vector<double> v{1.0};
  EXPECT_THROW(scaler.transform(v), bd::CheckError);
  EXPECT_THROW(scaler.fit(Dataset(1, 1)), bd::CheckError);
  scaler.fit(two_column_data());
  std::vector<double> wrong{1.0};
  EXPECT_THROW(scaler.transform(wrong), bd::CheckError);
}

}  // namespace
}  // namespace bd::ml
