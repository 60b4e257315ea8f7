/// Tests for the 2-D grid and interpolation weights.

#include <gtest/gtest.h>

#include <numeric>

#include "beam/grid.hpp"
#include "util/check.hpp"

namespace bd::beam {
namespace {

TEST(GridSpec, CenteredGridGeometry) {
  const GridSpec spec = make_centered_grid(5, 3, 2.0, 1.0);
  EXPECT_EQ(spec.nx, 5u);
  EXPECT_EQ(spec.ny, 3u);
  EXPECT_DOUBLE_EQ(spec.x0, -2.0);
  EXPECT_DOUBLE_EQ(spec.x_max(), 2.0);
  EXPECT_DOUBLE_EQ(spec.dx, 1.0);
  EXPECT_DOUBLE_EQ(spec.dy, 1.0);
  EXPECT_DOUBLE_EQ(spec.x_at(3), 1.0);
  EXPECT_DOUBLE_EQ(spec.gx(1.5), 3.5);
  EXPECT_EQ(spec.nodes(), 15u);
}

TEST(GridSpec, ValidatesArguments) {
  EXPECT_THROW(make_centered_grid(1, 3, 1.0, 1.0), bd::CheckError);
  EXPECT_THROW(make_centered_grid(4, 4, 0.0, 1.0), bd::CheckError);
}

TEST(Grid2D, AtAndFill) {
  Grid2D g(make_centered_grid(4, 4, 1.0, 1.0));
  g.fill(2.0);
  EXPECT_DOUBLE_EQ(g.at(3, 3), 2.0);
  g.at(1, 2) = -1.0;
  EXPECT_DOUBLE_EQ(g.at(1, 2), -1.0);
  EXPECT_DOUBLE_EQ(std::accumulate(g.data().begin(), g.data().end(), 0.0),
                   2.0 * 16 - 3.0);
}

TEST(TscWeights, PartitionOfUnityAndSymmetry) {
  double w[3];
  for (double f : {-0.5, -0.25, 0.0, 0.3, 0.5}) {
    tsc_weights(f, w);
    EXPECT_NEAR(w[0] + w[1] + w[2], 1.0, 1e-14) << "f=" << f;
    EXPECT_GE(w[0], 0.0);
    EXPECT_GE(w[1], 0.0);
    EXPECT_GE(w[2], 0.0);
  }
  // Symmetry: w(f) reversed equals w(-f).
  double wp[3], wm[3];
  tsc_weights(0.3, wp);
  tsc_weights(-0.3, wm);
  EXPECT_NEAR(wp[0], wm[2], 1e-14);
  EXPECT_NEAR(wp[1], wm[1], 1e-14);
}

TEST(TscWeights, CenteredSampleWeights) {
  double w[3];
  tsc_weights(0.0, w);
  EXPECT_NEAR(w[0], 0.125, 1e-14);
  EXPECT_NEAR(w[1], 0.75, 1e-14);
  EXPECT_NEAR(w[2], 0.125, 1e-14);
}

TEST(TscWeights, ReproducesLinearFunctions) {
  // Σ w_i · (i-1) = f  — the first-moment (linear exactness) property.
  double w[3];
  for (double f : {-0.4, -0.1, 0.2, 0.45}) {
    tsc_weights(f, w);
    EXPECT_NEAR(-w[0] + w[2], f, 1e-14);
  }
}

}  // namespace
}  // namespace bd::beam
