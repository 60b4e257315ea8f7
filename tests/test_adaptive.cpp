/// Tests for adaptive Simpson quadrature (RP-ADAPTIVEQUADRATURE): the
/// seeded driver, run from a paid-for root by the quad_oracle.hpp wrapper.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "quad/adaptive.hpp"
#include "quad/partition.hpp"
#include "quad_oracle.hpp"
#include "simt_oracle.hpp"
#include "util/check.hpp"

namespace bd::quad {
namespace {

using bd::testing::adaptive_simpson;
using bd::testing::AdaptiveResult;

simt::NullProbe& probe() { return simt::NullProbe::instance(); }

TEST(Adaptive, ConvergesOnSmoothFunction) {
  const FunctionIntegrand f([](double x) { return std::sin(x); });
  const AdaptiveResult r = adaptive_simpson(f, 0.0, M_PI, 1e-10, probe());
  EXPECT_TRUE(r.converged);
  EXPECT_NEAR(r.integral, 2.0, 1e-9);
  EXPECT_LE(r.error, 1e-9);
}

TEST(Adaptive, PartitionIsValidAndBracketsInterval) {
  const FunctionIntegrand f([](double x) { return std::exp(-x * x); });
  const AdaptiveResult r = adaptive_simpson(f, -2.0, 3.0, 1e-8, probe());
  ASSERT_GE(r.breakpoints.size(), 2u);
  EXPECT_DOUBLE_EQ(r.breakpoints.front(), -2.0);
  EXPECT_DOUBLE_EQ(r.breakpoints.back(), 3.0);
  EXPECT_TRUE(is_valid_partition(r.breakpoints));
}

TEST(Adaptive, RefinesWhereIntegrandVariesRapidly) {
  // Narrow bump at 0.8: the partition must be denser there than at 0.2.
  const FunctionIntegrand f([](double x) {
    const double z = (x - 0.8) / 0.02;
    return std::exp(-0.5 * z * z);
  });
  const AdaptiveResult r = adaptive_simpson(f, 0.0, 1.0, 1e-10, probe());
  int near_bump = 0, far_from_bump = 0;
  for (std::size_t i = 0; i + 1 < r.breakpoints.size(); ++i) {
    const double mid = 0.5 * (r.breakpoints[i] + r.breakpoints[i + 1]);
    if (std::abs(mid - 0.8) < 0.1) ++near_bump;
    if (std::abs(mid - 0.2) < 0.1) ++far_from_bump;
  }
  EXPECT_GT(near_bump, 4 * std::max(1, far_from_bump));
}

TEST(Adaptive, SingularKernelIntegrates) {
  // The regularized CSR-like kernel (u + u0)^(-1/3).
  const FunctionIntegrand f(
      [](double u) { return std::pow(u + 0.05, -1.0 / 3.0); });
  const AdaptiveResult r = adaptive_simpson(f, 0.0, 1.0, 1e-9, probe());
  const double exact =
      1.5 * (std::pow(1.05, 2.0 / 3.0) - std::pow(0.05, 2.0 / 3.0));
  EXPECT_TRUE(r.converged);
  EXPECT_NEAR(r.integral, exact, 1e-7);
}

TEST(Adaptive, NanIntegrandTerminatesWithoutRefining) {
  // A poisoned integrand can never satisfy the error test; the driver must
  // give up on such an interval immediately instead of bisecting it until
  // the interval budget is exhausted (each bisection also grows the
  // breakpoint list, so budget-exhaustion here is also a memory blow-up).
  const FunctionIntegrand f(
      [](double) { return std::numeric_limits<double>::quiet_NaN(); });
  const AdaptiveResult r = adaptive_simpson(f, 0.0, 1.0, 1e-9, probe());
  EXPECT_FALSE(r.converged);
  EXPECT_EQ(r.breakpoints.size(), 2u);          // no refinement happened
  EXPECT_LT(r.evaluations, 16u);                // one Simpson estimate
  EXPECT_TRUE(std::isnan(r.integral));          // poison stays visible
}

TEST(Adaptive, InfIntegrandTerminatesWithoutRefining) {
  const FunctionIntegrand f(
      [](double) { return std::numeric_limits<double>::infinity(); });
  const AdaptiveResult r = adaptive_simpson(f, 0.0, 1.0, 1e-9, probe());
  EXPECT_FALSE(r.converged);
  EXPECT_EQ(r.breakpoints.size(), 2u);
}

TEST(Adaptive, DepthLimitMarksNonConverged) {
  // A discontinuity cannot be resolved: expect non-convergence with a
  // small depth budget but a finite answer.
  const FunctionIntegrand f([](double x) { return x < 0.337 ? 0.0 : 1.0; });
  AdaptiveOptions options;
  options.max_depth = 4;
  const AdaptiveResult r =
      adaptive_simpson(f, 0.0, 1.0, 1e-14, probe(), options);
  EXPECT_FALSE(r.converged);
  EXPECT_NEAR(r.integral, 1.0 - 0.337, 0.05);
}

TEST(Adaptive, EmptyIntervalReturnsZero) {
  const FunctionIntegrand f([](double) { return 1.0; });
  const AdaptiveResult r = adaptive_simpson(f, 1.0, 1.0, 1e-8, probe());
  EXPECT_DOUBLE_EQ(r.integral, 0.0);
  EXPECT_TRUE(r.converged);
}

TEST(Adaptive, InvalidArgumentsThrow) {
  const FunctionIntegrand f([](double) { return 1.0; });
  EXPECT_THROW(adaptive_simpson(f, 0.0, 1.0, 0.0, probe()), bd::CheckError);
  EXPECT_THROW(adaptive_simpson(f, 1.0, 0.0, 1e-8, probe()), bd::CheckError);
}

TEST(Adaptive, ReportsControlFlowThroughProbe) {
  bd::testing::CountingProbe counter;
  const FunctionIntegrand f([](double x) { return std::sin(10.0 * x); });
  adaptive_simpson(f, 0.0, 1.0, 1e-8, counter);
  EXPECT_GT(counter.loop_iterations(), 1u);   // worklist trips
  EXPECT_GT(counter.branches(), 0u);          // accept/subdivide branches
}

// Property: tighter tolerances produce finer partitions and smaller errors.
class ToleranceSweep : public ::testing::TestWithParam<double> {};

TEST_P(ToleranceSweep, ErrorWithinTolerance) {
  const double tol = GetParam();
  const FunctionIntegrand f([](double x) { return std::cos(5.0 * x) + x; });
  const AdaptiveResult r = adaptive_simpson(f, 0.0, 2.0, tol, probe());
  const double exact = std::sin(10.0) / 5.0 + 2.0;
  EXPECT_TRUE(r.converged);
  EXPECT_LE(r.error, tol * 1.0000001);
  EXPECT_NEAR(r.integral, exact, 10.0 * tol);
}

INSTANTIATE_TEST_SUITE_P(Tolerances, ToleranceSweep,
                         ::testing::Values(1e-4, 1e-6, 1e-8, 1e-10));

}  // namespace
}  // namespace bd::quad
