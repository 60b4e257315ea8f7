/// Tests for the deterministic RNG stack (SplitMix64, xoshiro256++, Rng).

#include <gtest/gtest.h>

#include <cmath>
#include <span>
#include <vector>

#include "util/rng.hpp"
#include "util/stats.hpp"

namespace bd::util {
namespace {

/// Standard deviation of a large sample, from its mean and RMS.
double sample_stddev(std::span<const double> xs) {
  const double m = mean(xs);
  const double r = rms(xs);
  return std::sqrt(r * r - m * m);
}

TEST(SplitMix64, KnownSequence) {
  // Reference values for seed 1234567 from the public-domain SplitMix64.
  SplitMix64 sm(1234567);
  const std::uint64_t a = sm.next();
  const std::uint64_t b = sm.next();
  EXPECT_NE(a, b);
  SplitMix64 sm2(1234567);
  EXPECT_EQ(sm2.next(), a);
  EXPECT_EQ(sm2.next(), b);
}

TEST(Xoshiro256, DeterministicForSeed) {
  Xoshiro256 g1(42), g2(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(g1.next(), g2.next());
}

TEST(Xoshiro256, DifferentSeedsDiffer) {
  Xoshiro256 g1(1), g2(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (g1.next() == g2.next()) ++equal;
  }
  EXPECT_EQ(equal, 0);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(99);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformRangeRespected) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(-3.0, 7.0);
    EXPECT_GE(u, -3.0);
    EXPECT_LT(u, 7.0);
  }
}

TEST(Rng, UniformMeanNearHalf) {
  Rng rng(11);
  std::vector<double> xs(20000);
  for (double& x : xs) x = rng.uniform();
  EXPECT_NEAR(mean(xs), 0.5, 0.01);
}

TEST(Rng, NormalMomentsMatch) {
  Rng rng(21);
  std::vector<double> xs(50000);
  for (double& x : xs) x = rng.normal();
  EXPECT_NEAR(mean(xs), 0.0, 0.02);
  EXPECT_NEAR(sample_stddev(xs), 1.0, 0.02);
}

TEST(Rng, NormalScaledMoments) {
  Rng rng(22);
  std::vector<double> xs(50000);
  for (double& x : xs) x = rng.normal(3.0, 2.0);
  EXPECT_NEAR(mean(xs), 3.0, 0.05);
  EXPECT_NEAR(sample_stddev(xs), 2.0, 0.05);
}

TEST(Rng, UniformIndexBounds) {
  Rng rng(31);
  std::vector<int> counts(10, 0);
  for (int i = 0; i < 10000; ++i) {
    const std::uint64_t k = rng.uniform_index(10);
    ASSERT_LT(k, 10u);
    ++counts[static_cast<std::size_t>(k)];
  }
  for (int c : counts) EXPECT_GT(c, 800);  // roughly uniform
}

TEST(Rng, UniformIndexZeroIsZero) {
  Rng rng(1);
  EXPECT_EQ(rng.uniform_index(0), 0u);
  EXPECT_EQ(rng.uniform_index(1), 0u);
}

TEST(Rng, ReproducibleAcrossInstances) {
  Rng r1(123), r2(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(r1.normal(), r2.normal());
  }
}

}  // namespace
}  // namespace bd::util
