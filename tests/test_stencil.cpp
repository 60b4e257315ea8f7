/// Tests for the 27-point space–time interpolation stencil: its
/// interpolation properties on the scalar reference (sample_spacetime in
/// tests/wake_oracle.hpp), and at every case the production path,
/// WakeIntegrand::eval_batch, matching that reference bit for bit.

#include <gtest/gtest.h>

#include <array>
#include <cmath>

#include "beam/stencil.hpp"
#include "beam/wake.hpp"
#include "simt_oracle.hpp"
#include "test_helpers.hpp"
#include "wake_oracle.hpp"

namespace bd::beam {
namespace {

using bd::testing::expect_batch_matches_reference;
using bd::testing::sample_spacetime;
using bd::testing::ScalarWakeIntegrand;

GridSpec spec() { return make_centered_grid(17, 17, 4.0, 4.0); }

/// eval_batch at the one retarded separation whose sample sits at
/// (x, ·, t): an integrand at (x + u, y) with sub-width 1 and step ⌈t⌉, so
/// u = ⌈t⌉ - t. Checked bit for bit against the scalar reference, whose
/// inner nodes run the stencil through sample_spacetime around y.
void expect_batch_matches_reference_at(const GridHistory& history,
                                       MomentChannel channel, double x,
                                       double y, double t) {
  WakeModel model = WakeModel::longitudinal();
  model.channel = channel;
  const auto step = static_cast<std::int64_t>(std::ceil(t));
  const double u = static_cast<double>(step) - t;
  const WakeIntegrand f(history, model, x + u, y, step, 1.0);
  const ScalarWakeIntegrand ref(history, model, x + u, y, step, 1.0);
  SCOPED_TRACE(::testing::Message()
               << "x=" << x << " y=" << y << " t=" << t);
  expect_batch_matches_reference(f, ref, &u, 1);
}

/// History whose planes hold a + b·x + c·y + d·t (linear in space-time).
GridHistory linear_history(double a, double b, double c, double d,
                           std::int64_t latest, std::uint32_t depth) {
  GridHistory history(spec(), depth);
  Grid2D rho(spec()), grad(spec());
  for (std::int64_t step = latest - depth + 1; step <= latest; ++step) {
    for (std::uint32_t iy = 0; iy < spec().ny; ++iy) {
      for (std::uint32_t ix = 0; ix < spec().nx; ++ix) {
        rho.at(ix, iy) = a + b * spec().x_at(ix) + c * spec().y_at(iy) +
                         d * static_cast<double>(step);
        grad.at(ix, iy) = b;
      }
    }
    if (step == latest - depth + 1) {
      history.fill_all(step, rho, grad);
    } else {
      history.push_step(step, rho, grad);
    }
  }
  return history;
}

TEST(Stencil, ReproducesLinearSpaceTimeField) {
  const GridHistory history = linear_history(1.0, 2.0, -0.5, 0.25, 10, 6);
  simt::NullProbe& probe = simt::NullProbe::instance();
  for (double t : {9.2, 8.7, 9.9}) {
    for (double x : {-2.3, 0.1, 1.9}) {
      for (double y : {-1.7, 0.4}) {
        const double v =
            sample_spacetime(history, kChannelRho, x, y, t, probe);
        EXPECT_NEAR(v, 1.0 + 2.0 * x - 0.5 * y + 0.25 * t, 1e-10)
            << "x=" << x << " y=" << y << " t=" << t;
        expect_batch_matches_reference_at(history, kChannelRho, x, y, t);
      }
    }
  }
}

TEST(Stencil, QuadraticInTimeIsExact) {
  // Planes hold t² — backward quadratic interpolation must be exact.
  GridHistory history(spec(), 6);
  Grid2D rho(spec()), grad(spec());
  for (std::int64_t step = 5; step <= 10; ++step) {
    rho.fill(static_cast<double>(step * step));
    if (step == 5) {
      history.fill_all(step, rho, grad);
    } else {
      history.push_step(step, rho, grad);
    }
  }
  simt::NullProbe& probe = simt::NullProbe::instance();
  for (double t : {9.5, 8.25, 9.9}) {
    EXPECT_NEAR(sample_spacetime(history, kChannelRho, 0.0, 0.0, t, probe),
                t * t, 1e-9);
    expect_batch_matches_reference_at(history, kChannelRho, 0.0, 0.0, t);
  }
}

TEST(Stencil, ZeroOutsideGridWithoutLoads) {
  const GridHistory history = linear_history(5.0, 0.0, 0.0, 0.0, 3, 4);
  bd::testing::LaneTrace trace;
  const double v =
      sample_spacetime(history, kChannelRho, 100.0, 0.0, 2.5, trace);
  EXPECT_DOUBLE_EQ(v, 0.0);
  EXPECT_TRUE(trace.loads().empty());
  ASSERT_EQ(trace.branches().size(), 1u);
  EXPECT_FALSE(trace.branches()[0].taken);
  // Off the grid in x (the range branch rejects) and in y alone (every
  // inner node's stencil leaves the grid).
  expect_batch_matches_reference_at(history, kChannelRho, 100.0, 0.0, 2.5);
  expect_batch_matches_reference_at(history, kChannelRho, 0.0, 100.0, 2.5);
}

TEST(Stencil, IssuesNineRowLoadsInBounds) {
  const GridHistory history = linear_history(1.0, 0.0, 0.0, 0.0, 5, 5);
  bd::testing::LaneTrace trace;
  sample_spacetime(history, kChannelRho, 0.1, -0.2, 4.5, trace);
  EXPECT_EQ(trace.loads().size(),
            static_cast<std::size_t>(kLoadsPerSample));
  for (const auto& load : trace.loads()) {
    EXPECT_EQ(load.bytes, 3 * sizeof(double));
  }
  expect_batch_matches_reference_at(history, kChannelRho, 0.1, -0.2, 4.5);
}

TEST(Stencil, LoadAddressesPointIntoHistoryWindow) {
  // Probed addresses live in the history's device-virtual window (fixed
  // base + in-buffer offset), not at the host allocation: identically
  // configured histories replay identical addresses wherever the host
  // allocator placed them (the fleet-vs-solo metrics contract).
  const GridHistory history = linear_history(1.0, 0.0, 0.0, 0.0, 5, 5);
  bd::testing::LaneTrace trace;
  sample_spacetime(history, kChannelRho, 0.0, 0.0, 4.5, trace);
  const auto lo = reinterpret_cast<std::uint64_t>(
      history.probe_address(history.plane(1, kChannelRho)));
  // Conservative bound: the whole ring past the plane base.
  const std::uint64_t hi = lo + history.depth() * kNumChannels *
                                    spec().nodes() * sizeof(double);
  for (const auto& load : trace.loads()) {
    EXPECT_GE(load.addr + 24, lo);
    EXPECT_LT(load.addr, hi);
  }
  // And the window is allocation-independent: a second identical history
  // maps its plane base to the same virtual address.
  const GridHistory twin = linear_history(1.0, 0.0, 0.0, 0.0, 5, 5);
  EXPECT_EQ(twin.probe_address(twin.plane(1, kChannelRho)),
            history.probe_address(history.plane(1, kChannelRho)));
  expect_batch_matches_reference_at(history, kChannelRho, 0.0, 0.0, 4.5);
}

TEST(Stencil, ClampsTimeNearHistoryEdges) {
  const GridHistory history = linear_history(0.0, 0.0, 0.0, 1.0, 5, 4);
  simt::NullProbe& probe = simt::NullProbe::instance();
  // t beyond latest and before oldest-2 are clamped, not fatal; linear
  // field extrapolates exactly either way.
  EXPECT_NEAR(sample_spacetime(history, kChannelRho, 0.0, 0.0, 5.4, probe),
              5.4, 1e-10);
  EXPECT_NEAR(sample_spacetime(history, kChannelRho, 0.0, 0.0, 2.2, probe),
              2.2, 1e-10);
  expect_batch_matches_reference_at(history, kChannelRho, 0.0, 0.0, 5.4);
  expect_batch_matches_reference_at(history, kChannelRho, 0.0, 0.0, 2.2);
}

TEST(Stencil, BatchClampsTimeOnShallowHistory) {
  // Solvers keep num_subregions + 4 planes, so their samples never reach
  // the oldest-plane clamp. Here the radial range spans 12 steps of a
  // 4-plane history: most samples need the clamp (b - 2 < oldest), in
  // simpson_sweep's batch layout across the whole range.
  const GridHistory history = linear_history(1.0, 0.5, -0.25, 0.75, 10, 4);
  const WakeModel model = WakeModel::longitudinal();
  const double sub_width = 0.5;
  for (const double s_point : {3.0, 0.2}) {
    const WakeIntegrand f(history, model, s_point, 0.3, 10, sub_width);
    const ScalarWakeIntegrand ref(history, model, s_point, 0.3, 10,
                                  sub_width);
    for (std::size_t j = 0; j < 12; ++j) {
      const double a = sub_width * static_cast<double>(j);
      const double b = a + sub_width;
      const double m = 0.5 * (a + b);
      const std::array<double, 4> u = {m, b, 0.5 * (a + m), 0.5 * (m + b)};
      SCOPED_TRACE(::testing::Message()
                   << "s=" << s_point << " interval " << j);
      expect_batch_matches_reference(f, ref, u.data(), u.size());
    }
  }
}

TEST(Stencil, SpatialOnlySampleMatchesPlane) {
  // At an integer time the Lagrange weights are (1, 0, 0): the sample is
  // the spatial TSC sample of that step's plane alone.
  const GridHistory history = linear_history(2.0, 1.0, 1.0, 0.0, 3, 4);
  simt::NullProbe& probe = simt::NullProbe::instance();
  const double v =
      sample_spacetime(history, kChannelRho, 0.5, -0.5, 3.0, probe);
  EXPECT_NEAR(v, 2.0 + 0.5 - 0.5, 1e-10);
  expect_batch_matches_reference_at(history, kChannelRho, 0.5, -0.5, 3.0);
}

TEST(Stencil, GradientChannelSelected) {
  const GridHistory history = linear_history(1.0, 3.0, 0.0, 0.0, 3, 4);
  simt::NullProbe& probe = simt::NullProbe::instance();
  EXPECT_NEAR(
      sample_spacetime(history, kChannelDrhoDs, 0.3, 0.2, 2.5, probe), 3.0,
      1e-10);
  expect_batch_matches_reference_at(history, kChannelDrhoDs, 0.3, 0.2, 2.5);
}

}  // namespace
}  // namespace bd::beam
