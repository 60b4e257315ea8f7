/// Tests for particle-in-cell deposition.

#include <gtest/gtest.h>

#include <cmath>
#include <numeric>

#include "util/check.hpp"
#include "beam/bunch.hpp"
#include "beam/deposit.hpp"
#include "util/rng.hpp"

namespace bd::beam {
namespace {

ParticleSet single_particle(double s, double y, double weight = 1.0) {
  ParticleSet p(1);
  p.s()[0] = s;
  p.y()[0] = y;
  p.set_weight(weight);
  return p;
}

/// Sum of all node values (≈ deposited charge / (dx·dy)).
double grid_total(const Grid2D& rho) {
  return std::accumulate(rho.data().begin(), rho.data().end(), 0.0);
}

TEST(Deposit, ConservesCharge) {
  const GridSpec spec = make_centered_grid(17, 17, 4.0, 4.0);
  Grid2D rho(spec);
  util::Rng rng(3);
  BeamParams params;
  params.sigma_s = 0.8;
  params.sigma_y = 0.8;
  params.charge = 3.0;
  const ParticleSet p = sample_gaussian_bunch(5000, params, rng);
  const double dropped = deposit(p, rho);
  // Deposited density × cell area + dropped = total charge.
  EXPECT_NEAR(grid_total(rho) * spec.dx * spec.dy + dropped, 3.0, 1e-10);
  EXPECT_LT(dropped, 0.01);  // ±4σ box at σ=0.8 drops almost nothing
}

TEST(Deposit, TscCentroidPreserved) {
  const GridSpec spec = make_centered_grid(9, 9, 4.0, 4.0);
  Grid2D rho(spec);
  deposit(single_particle(-0.7, 0.9), rho);
  double cx = 0.0, cy = 0.0, total = 0.0;
  for (std::uint32_t iy = 0; iy < spec.ny; ++iy) {
    for (std::uint32_t ix = 0; ix < spec.nx; ++ix) {
      const double v = rho.at(ix, iy);
      cx += v * spec.x_at(ix);
      cy += v * spec.y_at(iy);
      total += v;
    }
  }
  EXPECT_NEAR(cx / total, -0.7, 1e-12);
  EXPECT_NEAR(cy / total, 0.9, 1e-12);
}

TEST(Deposit, TscSpreadsOver9Nodes) {
  const GridSpec spec = make_centered_grid(9, 9, 4.0, 4.0);
  Grid2D rho(spec);
  deposit(single_particle(0.1, 0.1), rho);
  int nonzero = 0;
  for (double v : rho.data()) {
    if (v != 0.0) ++nonzero;
  }
  EXPECT_EQ(nonzero, 9);
}

TEST(Deposit, OutsideParticleDropped) {
  const GridSpec spec = make_centered_grid(5, 5, 1.0, 1.0);
  Grid2D rho(spec);
  const double dropped = deposit(single_particle(10.0, 0.0, 2.0), rho);
  EXPECT_GT(dropped, 0.0);
  EXPECT_DOUBLE_EQ(grid_total(rho), 0.0);
}

TEST(Gradient, LongitudinalOfLinearField) {
  const GridSpec spec = make_centered_grid(9, 5, 4.0, 2.0);
  Grid2D rho(spec), grad(spec);
  for (std::uint32_t iy = 0; iy < spec.ny; ++iy) {
    for (std::uint32_t ix = 0; ix < spec.nx; ++ix) {
      rho.at(ix, iy) = 3.0 * spec.x_at(ix) + 7.0;
    }
  }
  longitudinal_gradient(rho, grad);
  for (double v : grad.data()) EXPECT_NEAR(v, 3.0, 1e-12);
}

TEST(Gradient, QuadraticFieldSecondOrderAccurate) {
  const GridSpec spec = make_centered_grid(33, 5, 4.0, 1.0);
  Grid2D rho(spec), grad(spec);
  for (std::uint32_t iy = 0; iy < spec.ny; ++iy) {
    for (std::uint32_t ix = 0; ix < spec.nx; ++ix) {
      const double x = spec.x_at(ix);
      rho.at(ix, iy) = x * x;
    }
  }
  longitudinal_gradient(rho, grad);
  // Central differences are exact for quadratics in the interior.
  for (std::uint32_t ix = 1; ix + 1 < spec.nx; ++ix) {
    EXPECT_NEAR(grad.at(ix, 2), 2.0 * spec.x_at(ix), 1e-12);
  }
}

TEST(Gradient, SpecMismatchThrows) {
  Grid2D a(make_centered_grid(4, 4, 1.0, 1.0));
  Grid2D b(make_centered_grid(5, 5, 1.0, 1.0));
  EXPECT_THROW(longitudinal_gradient(a, b), bd::CheckError);
}

}  // namespace
}  // namespace bd::beam
