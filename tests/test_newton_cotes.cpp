/// Tests for the Newton–Cotes rules (the rp-integral's inner quadrature):
/// the weights WakeIntegrand folds into its inner nodes, checked through
/// the closed rule they define.

#include <gtest/gtest.h>

#include <cmath>
#include <functional>

#include "quad/newton_cotes.hpp"
#include "util/check.hpp"

namespace bd::quad {
namespace {

/// Integrate a callable over [a, b] with the n-point closed rule
/// Σ w_i f(a + i·h/(n-1)) · h, h = b - a.
double newton_cotes(const std::function<double(double)>& f, double a, double b,
                    int points) {
  const auto weights = newton_cotes_weights(points);
  const double h = b - a;
  double acc = 0.0;
  for (int i = 0; i < points; ++i) {
    const double x = a + h * static_cast<double>(i) / (points - 1);
    acc += weights[static_cast<std::size_t>(i)] * f(x);
  }
  return acc * h;
}

/// Degree of exactness of the n-point closed rule (highest polynomial degree
/// integrated exactly): n-1 for even n, n for odd n.
int newton_cotes_exactness(int points) {
  return (points % 2 == 1) ? points : points - 1;
}

TEST(NewtonCotes, WeightsSumToOne) {
  for (int n = 2; n <= 9; ++n) {
    const auto w = newton_cotes_weights(n);
    ASSERT_EQ(w.size(), static_cast<std::size_t>(n));
    double sum = 0.0;
    for (double v : w) sum += v;
    EXPECT_NEAR(sum, 1.0, 1e-14) << "n=" << n;
  }
}

TEST(NewtonCotes, WeightsAreSymmetric) {
  for (int n = 2; n <= 9; ++n) {
    const auto w = newton_cotes_weights(n);
    for (int i = 0; i < n / 2; ++i) {
      EXPECT_NEAR(w[static_cast<std::size_t>(i)],
                  w[static_cast<std::size_t>(n - 1 - i)], 1e-15)
          << "n=" << n << " i=" << i;
    }
  }
}

TEST(NewtonCotes, UnsupportedPointCountsThrow) {
  EXPECT_THROW(newton_cotes_weights(1), bd::CheckError);
  EXPECT_THROW(newton_cotes_weights(10), bd::CheckError);
}

TEST(NewtonCotes, TrapezoidIsExactForLinear) {
  const double v = newton_cotes([](double x) { return 3.0 * x + 1.0; }, 0.0,
                                2.0, 2);
  EXPECT_NEAR(v, 8.0, 1e-13);
}

TEST(NewtonCotes, SimpsonExactForCubic) {
  const double v =
      newton_cotes([](double x) { return x * x * x; }, 0.0, 1.0, 3);
  EXPECT_NEAR(v, 0.25, 1e-14);
}

// Property sweep: the n-point closed rule integrates polynomials exactly
// up to its degree of exactness.
class ExactnessSweep : public ::testing::TestWithParam<int> {};

TEST_P(ExactnessSweep, ExactUpToDegree) {
  const int points = GetParam();
  const int degree = newton_cotes_exactness(points);
  for (int d = 0; d <= degree; ++d) {
    const double v = newton_cotes(
        [d](double x) { return std::pow(x, d); }, 0.0, 1.0, points);
    const double exact = 1.0 / (d + 1);
    EXPECT_NEAR(v, exact, 1e-10 * std::max(1.0, std::abs(exact)))
        << "points=" << points << " degree=" << d;
  }
  // ... and fails to be exact one degree past that (generic interval).
  const int d = degree + 1;
  const double v = newton_cotes(
      [d](double x) { return std::pow(x, d); }, 0.0, 1.0, points);
  EXPECT_GT(std::abs(v - 1.0 / (d + 1)), 1e-12) << "points=" << points;
}

INSTANTIATE_TEST_SUITE_P(AllOrders, ExactnessSweep,
                         ::testing::Values(2, 3, 4, 5, 6, 7, 8, 9));

TEST(NewtonCotes, ReversedIntervalGivesNegative) {
  const double fwd = newton_cotes([](double x) { return x; }, 0.0, 1.0, 3);
  const double rev = newton_cotes([](double x) { return x; }, 1.0, 0.0, 3);
  EXPECT_NEAR(fwd, -rev, 1e-14);
}

}  // namespace
}  // namespace bd::quad
