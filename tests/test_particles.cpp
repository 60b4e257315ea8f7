/// Tests for the particle container and bunch samplers.

#include <gtest/gtest.h>

#include <cmath>

#include "beam/bunch.hpp"
#include "beam/particles.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace bd::beam {
namespace {

/// Root-mean-square deviation from the mean (the population σ).
double rms_spread(std::span<const double> v) {
  const double mu = util::mean(v);
  double acc = 0.0;
  for (double x : v) acc += (x - mu) * (x - mu);
  return v.empty() ? 0.0 : std::sqrt(acc / static_cast<double>(v.size()));
}

TEST(Particles, ResizeKeepsArraysInSync) {
  ParticleSet p(10);
  EXPECT_EQ(p.size(), 10u);
  EXPECT_EQ(p.s().size(), 10u);
  EXPECT_EQ(p.y().size(), 10u);
  EXPECT_EQ(p.ps().size(), 10u);
  EXPECT_EQ(p.py().size(), 10u);
  p.resize(3);
  EXPECT_EQ(p.size(), 3u);
}

TEST(Particles, MomentsOfKnownSet) {
  ParticleSet p(2);
  p.s()[0] = -1.0;
  p.s()[1] = 3.0;
  p.y()[0] = 2.0;
  p.y()[1] = 2.0;
  EXPECT_DOUBLE_EQ(util::mean(p.s()), 1.0);
  EXPECT_DOUBLE_EQ(rms_spread(p.s()), 2.0);
  EXPECT_DOUBLE_EQ(util::mean(p.y()), 2.0);
  EXPECT_DOUBLE_EQ(rms_spread(p.y()), 0.0);
}

TEST(Bunch, GaussianMomentsMatchParams) {
  util::Rng rng(101);
  BeamParams params;
  params.sigma_s = 1.0;
  params.sigma_y = 0.5;
  params.charge = 2.0;
  const ParticleSet p = sample_gaussian_bunch(50000, params, rng);
  EXPECT_NEAR(util::mean(p.s()), 0.0, 0.02);
  EXPECT_NEAR(rms_spread(p.s()), 1.0, 0.02);
  EXPECT_NEAR(rms_spread(p.y()), 0.5, 0.01);
  EXPECT_DOUBLE_EQ(p.weight(), 2.0 / 50000.0);
}

TEST(Bunch, ZeroMomentumSpreadByDefault) {
  util::Rng rng(5);
  const ParticleSet p = sample_gaussian_bunch(100, BeamParams{}, rng);
  for (double v : p.ps()) EXPECT_DOUBLE_EQ(v, 0.0);
  for (double v : p.py()) EXPECT_DOUBLE_EQ(v, 0.0);
}

TEST(Bunch, MomentumSpreadApplied) {
  util::Rng rng(6);
  const ParticleSet p =
      sample_gaussian_bunch(20000, BeamParams{}, rng, /*momentum_spread=*/0.1);
  double acc = 0.0;
  for (double v : p.ps()) acc += v * v;
  EXPECT_NEAR(std::sqrt(acc / 20000.0), 0.1, 0.005);
}

TEST(Bunch, DeterministicForSeed) {
  util::Rng rng1(42), rng2(42);
  const ParticleSet a = sample_gaussian_bunch(100, BeamParams{}, rng1);
  const ParticleSet b = sample_gaussian_bunch(100, BeamParams{}, rng2);
  for (std::size_t i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.s()[i], b.s()[i]);
    EXPECT_DOUBLE_EQ(a.y()[i], b.y()[i]);
  }
}

}  // namespace
}  // namespace bd::beam
