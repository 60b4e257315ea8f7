/// Tests for the regression quality metrics.

#include <gtest/gtest.h>

#include "ml/metrics.hpp"
#include "util/check.hpp"

namespace bd::ml {
namespace {

TEST(MlMetrics, MaeKnown) {
  const std::vector<double> p{1.0, -2.0};
  const std::vector<double> t{0.0, 2.0};
  EXPECT_DOUBLE_EQ(mae(p, t), 2.5);
  EXPECT_DOUBLE_EQ(mae({}, {}), 0.0);
}

TEST(MlMetrics, R2PerfectPrediction) {
  const std::vector<double> t{1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(r2_score(t, t), 1.0);
}

TEST(MlMetrics, R2MeanPredictorIsZero) {
  const std::vector<double> t{1.0, 2.0, 3.0};
  const std::vector<double> p{2.0, 2.0, 2.0};
  EXPECT_NEAR(r2_score(p, t), 0.0, 1e-12);
}

TEST(MlMetrics, R2CanBeNegative) {
  const std::vector<double> t{1.0, 2.0, 3.0};
  const std::vector<double> p{3.0, 2.0, 1.0};
  EXPECT_LT(r2_score(p, t), 0.0);
}

TEST(MlMetrics, R2ConstantTruth) {
  const std::vector<double> t{2.0, 2.0};
  EXPECT_DOUBLE_EQ(r2_score(t, t), 1.0);
  EXPECT_DOUBLE_EQ(r2_score(std::vector<double>{1.0, 3.0}, t), 0.0);
}

TEST(MlMetrics, SizeMismatchThrows) {
  EXPECT_THROW(mae(std::vector<double>{1.0}, std::vector<double>{1.0, 2.0}),
               bd::CheckError);
  EXPECT_THROW(r2_score(std::vector<double>{}, std::vector<double>{}),
               bd::CheckError);
}

}  // namespace
}  // namespace bd::ml
