/// Tests for the statistics helpers.

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "util/check.hpp"
#include "util/stats.hpp"

namespace bd::util {
namespace {

TEST(Stats, MeanBasic) {
  const std::vector<double> xs{1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(mean(xs), 2.5);
}

TEST(Stats, MeanEmptyIsZero) {
  EXPECT_DOUBLE_EQ(mean(std::vector<double>{}), 0.0);
}

TEST(Stats, RmsKnown) {
  const std::vector<double> xs{3.0, 4.0};
  EXPECT_NEAR(rms(xs), std::sqrt(12.5), 1e-12);
}

TEST(Stats, MseAndMaxAbs) {
  const std::vector<double> a{1.0, 2.0, 3.0};
  const std::vector<double> b{1.0, 4.0, 0.0};
  EXPECT_NEAR(mean_squared_error(a, b), (0.0 + 4.0 + 9.0) / 3.0, 1e-12);
}

TEST(Stats, MseSizeMismatchThrows) {
  const std::vector<double> a{1.0};
  const std::vector<double> b{1.0, 2.0};
  EXPECT_THROW(mean_squared_error(a, b), CheckError);
}

TEST(Stats, FitLineExact) {
  std::vector<double> xs, ys;
  for (int i = 0; i < 10; ++i) {
    xs.push_back(i);
    ys.push_back(2.0 * i - 1.0);
  }
  const LineFit fit = fit_line(xs, ys);
  EXPECT_NEAR(fit.slope, 2.0, 1e-12);
  EXPECT_NEAR(fit.intercept, -1.0, 1e-12);
  EXPECT_NEAR(fit.r_squared, 1.0, 1e-12);
}

TEST(Stats, FitLineNoisy) {
  std::vector<double> xs, ys;
  for (int i = 0; i < 100; ++i) {
    xs.push_back(i);
    ys.push_back(-0.5 * i + 3.0 + ((i % 2) ? 0.1 : -0.1));
  }
  const LineFit fit = fit_line(xs, ys);
  EXPECT_NEAR(fit.slope, -0.5, 1e-3);
  EXPECT_GT(fit.r_squared, 0.999);
}

TEST(Stats, FitLineRejectsDegenerate) {
  const std::vector<double> xs{1.0, 1.0};
  const std::vector<double> ys{2.0, 3.0};
  EXPECT_THROW(fit_line(xs, ys), CheckError);
  EXPECT_THROW(fit_line(std::vector<double>{1.0}, std::vector<double>{1.0}),
               CheckError);
}

TEST(Stats, CorrelationSigns) {
  std::vector<double> xs, up, down;
  for (int i = 0; i < 50; ++i) {
    xs.push_back(i);
    up.push_back(3.0 * i + 1);
    down.push_back(-2.0 * i);
  }
  EXPECT_NEAR(correlation(xs, up), 1.0, 1e-12);
  EXPECT_NEAR(correlation(xs, down), -1.0, 1e-12);
}

TEST(Stats, CorrelationConstantIsZero) {
  const std::vector<double> a{1.0, 1.0, 1.0};
  const std::vector<double> b{1.0, 2.0, 3.0};
  EXPECT_DOUBLE_EQ(correlation(a, b), 0.0);
}

}  // namespace
}  // namespace bd::util
