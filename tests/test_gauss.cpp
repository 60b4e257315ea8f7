/// Tests for Gauss–Legendre quadrature.

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <thread>
#include <vector>

#include "quad/gauss.hpp"
#include "util/check.hpp"

namespace bd::quad {
namespace {

TEST(Gauss, WeightsSumToTwo) {
  for (int n : {1, 2, 3, 5, 8, 16, 31}) {
    const GaussRule rule = gauss_legendre(n);
    double sum = 0.0;
    for (double w : rule.weights) sum += w;
    EXPECT_NEAR(sum, 2.0, 1e-12) << "n=" << n;
  }
}

TEST(Gauss, NodesSymmetricAndSorted) {
  const GaussRule rule = gauss_legendre(7);
  for (int i = 0; i < 7; ++i) {
    EXPECT_NEAR(rule.nodes[static_cast<std::size_t>(i)],
                -rule.nodes[static_cast<std::size_t>(6 - i)], 1e-13);
    if (i > 0) {
      EXPECT_GT(rule.nodes[static_cast<std::size_t>(i)],
                rule.nodes[static_cast<std::size_t>(i - 1)]);
    }
  }
}

TEST(Gauss, RuleComputedOncePerPointCount) {
  // Every request for n points, from any thread, gets the one rule
  // computed on the first request.
  constexpr int kMaxN = 12;
  std::vector<std::array<const GaussRule*, kMaxN + 1>> seen(4);
  std::vector<std::thread> threads;
  for (auto& rules : seen) {
    threads.emplace_back([&rules] {
      for (int n = kMaxN; n >= 1; --n) rules[n] = &gauss_legendre(n);
    });
  }
  for (std::thread& t : threads) t.join();
  for (int n = 1; n <= kMaxN; ++n) {
    const GaussRule& rule = gauss_legendre(n);
    for (const auto& rules : seen) EXPECT_EQ(rules[n], &rule) << "n=" << n;
    EXPECT_EQ(rule.nodes.size(), static_cast<std::size_t>(n));
  }
}

TEST(Gauss, TwoPointNodesKnown) {
  const GaussRule rule = gauss_legendre(2);
  EXPECT_NEAR(rule.nodes[1], 1.0 / std::sqrt(3.0), 1e-14);
  EXPECT_NEAR(rule.weights[0], 1.0, 1e-14);
}

// n-point Gauss is exact for polynomials up to degree 2n-1.
class GaussExactness : public ::testing::TestWithParam<int> {};

TEST_P(GaussExactness, PolynomialExactness) {
  const int n = GetParam();
  for (int d = 0; d <= 2 * n - 1; ++d) {
    const double v = gauss_integrate(
        [d](double x) { return std::pow(x, d); }, 0.0, 1.0, n);
    EXPECT_NEAR(v, 1.0 / (d + 1), 1e-12) << "n=" << n << " d=" << d;
  }
}

INSTANTIATE_TEST_SUITE_P(Orders, GaussExactness,
                         ::testing::Values(1, 2, 3, 4, 5, 8, 12));

TEST(Gauss, IntegratesExponentialAccurately) {
  const double v =
      gauss_integrate([](double x) { return std::exp(x); }, 0.0, 1.0, 12);
  EXPECT_NEAR(v, std::exp(1.0) - 1.0, 1e-14);
}

TEST(Gauss, AdaptiveHitsToleranceOnPeakedFunction) {
  // Narrow Gaussian: naive low-order rules fail, adaptive must resolve it.
  auto f = [](double x) {
    const double z = (x - 0.37) / 0.01;
    return std::exp(-0.5 * z * z);
  };
  const double exact = 0.01 * std::sqrt(2.0 * M_PI);  // well inside [0,1]
  const double v = gauss_integrate_to_tolerance(f, 0.0, 1.0, 1e-12);
  EXPECT_NEAR(v, exact, 1e-10);
}

TEST(Gauss, AdaptiveHandlesIntegrableSingularity) {
  // ∫₀¹ x^(-1/3) dx = 3/2.
  auto f = [](double x) { return std::pow(x + 1e-300, -1.0 / 3.0); };
  const double v = gauss_integrate_to_tolerance(f, 0.0, 1.0, 1e-10);
  EXPECT_NEAR(v, 1.5, 1e-6);
}

TEST(Gauss, AdaptiveEmptyIntervalIsZero) {
  EXPECT_DOUBLE_EQ(
      gauss_integrate_to_tolerance([](double) { return 1.0; }, 2.0, 2.0,
                                   1e-10),
      0.0);
}

TEST(Gauss, InvalidArgumentsThrow) {
  EXPECT_THROW(gauss_legendre(0), bd::CheckError);
  EXPECT_THROW(gauss_integrate_to_tolerance([](double) { return 1.0; }, 0.0,
                                            1.0, 0.0),
               bd::CheckError);
}

}  // namespace
}  // namespace bd::quad
