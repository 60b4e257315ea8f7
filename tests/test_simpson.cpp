/// Tests for the Simpson estimate with Richardson error bound (the
/// RP-QUADRULE of Listing 1): quad::simpson_combine on five samples.

#include <gtest/gtest.h>

#include <cmath>

#include "quad/simpson.hpp"
#include "quad_oracle.hpp"
#include "simt_oracle.hpp"

namespace bd::quad {
namespace {

using bd::testing::simpson_estimate;

simt::NullProbe& probe() { return simt::NullProbe::instance(); }

TEST(Simpson, EstimateExactForCubicWithZeroError) {
  const FunctionIntegrand f([](double x) { return 2.0 * x * x * x + 1.0; });
  const QuadEstimate est = simpson_estimate(f, -1.0, 3.0, probe());
  EXPECT_NEAR(est.integral, (0.5 * 81 - 0.5 * 1) + 4.0, 1e-12);
  EXPECT_LT(est.error, 1e-12);
  EXPECT_EQ(est.evaluations, 5u);
}

TEST(Simpson, ErrorEstimateBoundsTrueErrorOnSmoothFunction) {
  const FunctionIntegrand f([](double x) { return std::sin(3.0 * x); });
  const double exact = (1.0 - std::cos(3.0)) / 3.0;
  const QuadEstimate est = simpson_estimate(f, 0.0, 1.0, probe());
  // Richardson-extrapolated value is far better than the raw estimate; the
  // error estimate should be the right order of magnitude.
  EXPECT_LT(std::abs(est.integral - exact), 10.0 * est.error + 1e-14);
  EXPECT_GT(est.error, 0.0);
}

TEST(Simpson, ErrorShrinksSixteenFoldPerHalving) {
  const FunctionIntegrand f([](double x) { return std::exp(2.0 * x); });
  const QuadEstimate whole = simpson_estimate(f, 0.0, 1.0, probe());
  const QuadEstimate left = simpson_estimate(f, 0.0, 0.5, probe());
  // err ~ C·h^5 for fixed integrand: halving h cuts the local error ~32x;
  // relative to the width-proportional tolerance that is the ~16x the
  // kernels' Richardson coarsening hint relies on. Allow slack.
  EXPECT_LT(left.error, whole.error / 8.0);
}

TEST(Simpson, EstimateAccumulation) {
  const FunctionIntegrand f([](double x) { return x; });
  QuadEstimate total;
  total += simpson_estimate(f, 0.0, 1.0, probe());
  total += simpson_estimate(f, 1.0, 2.0, probe());
  EXPECT_NEAR(total.integral, 2.0, 1e-13);
  EXPECT_EQ(total.evaluations, 10u);
}

TEST(Simpson, CountsFlopsThroughProbe) {
  bd::testing::CountingProbe counter;
  const FunctionIntegrand f([](double) { return 1.0; }, 7);
  simpson_estimate(f, 0.0, 1.0, counter);
  // 5 evaluations × 7 flops + 18 combination flops.
  EXPECT_EQ(counter.flops(), 5u * 7u + 18u);
}

TEST(Simpson, ZeroWidthIntervalIsZero) {
  const FunctionIntegrand f([](double x) { return x * x; });
  const QuadEstimate est = simpson_estimate(f, 1.5, 1.5, probe());
  EXPECT_DOUBLE_EQ(est.integral, 0.0);
  EXPECT_DOUBLE_EQ(est.error, 0.0);
}

}  // namespace
}  // namespace bd::quad
