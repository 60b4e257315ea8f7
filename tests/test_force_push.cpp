/// Tests for the force gather and the leap-frog pusher.

#include <gtest/gtest.h>

#include "beam/force.hpp"
#include "beam/push.hpp"
#include "util/check.hpp"

namespace bd::beam {
namespace {

TEST(ForceGather, TscReproducesLinearField) {
  const GridSpec spec = make_centered_grid(17, 17, 4.0, 4.0);
  Grid2D field(spec);
  for (std::uint32_t iy = 0; iy < spec.ny; ++iy) {
    for (std::uint32_t ix = 0; ix < spec.nx; ++ix) {
      field.at(ix, iy) = 2.0 * spec.x_at(ix) - spec.y_at(iy);
    }
  }
  ParticleSet p(3);
  p.s()[0] = 0.3;  p.y()[0] = -1.1;
  p.s()[1] = -2.4; p.y()[1] = 0.0;
  p.s()[2] = 1.7;  p.y()[2] = 2.9;
  std::vector<double> out(3);
  gather_forces(field, p, out);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_NEAR(out[i], 2.0 * p.s()[i] - p.y()[i], 1e-10);
  }
}

TEST(ForceGather, ZeroOutsideInterpolableRegion) {
  const GridSpec spec = make_centered_grid(9, 9, 1.0, 1.0);
  Grid2D field(spec);
  field.fill(3.0);
  EXPECT_DOUBLE_EQ(interpolate_tsc(field, 5.0, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(interpolate_tsc(field, 0.0, -5.0), 0.0);
  // On the outermost node the 3-point stencil would leave the grid.
  EXPECT_DOUBLE_EQ(interpolate_tsc(field, 1.0, 1.0), 0.0);
}

TEST(ForceGather, SizeMismatchThrows) {
  const GridSpec spec = make_centered_grid(5, 5, 1.0, 1.0);
  Grid2D field(spec);
  ParticleSet p(4);
  std::vector<double> out(3);
  EXPECT_THROW(gather_forces(field, p, out), bd::CheckError);
}

TEST(Push, ConstantForceKicksAndDrifts) {
  ParticleSet p(1);
  const std::vector<double> fs{2.0};
  const std::vector<double> fy{-1.0};
  leapfrog_push(p, fs, fy, 0.5);
  EXPECT_DOUBLE_EQ(p.ps()[0], 1.0);   // 2.0 * 0.5
  EXPECT_DOUBLE_EQ(p.py()[0], -0.5);
  EXPECT_DOUBLE_EQ(p.s()[0], 0.5);    // drift with updated momentum
  EXPECT_DOUBLE_EQ(p.y()[0], -0.25);
}

TEST(Push, FreeStreamingWithoutForce) {
  ParticleSet p(1);
  p.ps()[0] = 3.0;
  leapfrog_push(p, {}, {}, 1.0);
  EXPECT_DOUBLE_EQ(p.s()[0], 3.0);
  EXPECT_DOUBLE_EQ(p.ps()[0], 3.0);
  EXPECT_DOUBLE_EQ(p.y()[0], 0.0);
}

TEST(Push, HarmonicOscillatorEnergyNearlyConserved) {
  // F = -k x integrated with leap-frog: bounded energy over many periods.
  ParticleSet p(1);
  p.s()[0] = 1.0;
  const double dt = 0.05;
  const double k = 1.0;
  std::vector<double> fs(1);
  double max_energy = 0.0, min_energy = 1e300;
  for (int step = 0; step < 2000; ++step) {
    fs[0] = -k * p.s()[0];
    leapfrog_push(p, fs, {}, dt);
    const double energy =
        0.5 * p.ps()[0] * p.ps()[0] + 0.5 * k * p.s()[0] * p.s()[0];
    max_energy = std::max(max_energy, energy);
    min_energy = std::min(min_energy, energy);
  }
  EXPECT_LT(max_energy / min_energy, 1.2);  // symplectic: no secular drift
}

TEST(Push, ForceSizeMismatchThrows) {
  ParticleSet p(3);
  const std::vector<double> wrong(2, 0.0);
  EXPECT_THROW(leapfrog_push(p, wrong, {}, 0.1), bd::CheckError);
}

}  // namespace
}  // namespace bd::beam
