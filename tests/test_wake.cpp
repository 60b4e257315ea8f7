/// Tests for the retarded-wake integrand and its analytic continuum
/// reference (the physics of Fig. 2).

#include <gtest/gtest.h>

#include <cmath>

#include "beam/analytic.hpp"
#include "beam/bunch.hpp"
#include "beam/deposit.hpp"
#include "beam/stencil.hpp"
#include "beam/wake.hpp"
#include "quad/adaptive.hpp"
#include "quad_oracle.hpp"
#include "simt_oracle.hpp"
#include "test_helpers.hpp"
#include "util/rng.hpp"
#include "wake_oracle.hpp"

namespace bd::beam {
namespace {

using bd::testing::eval_at;
using bd::testing::expect_batch_matches_reference;
using bd::testing::ScalarWakeIntegrand;

constexpr double kSubWidth = 1.0;
constexpr double kRMax = 12.0;

GridSpec spec() { return make_centered_grid(65, 65, 6.0, 6.0); }

/// History filled with the *continuum* Gaussian density evaluated at nodes
/// (no Monte-Carlo noise): isolates quadrature/interpolation error.
GridHistory continuum_history(const BeamParams& params) {
  GridHistory history(spec(), 16);
  Grid2D rho(spec()), grad(spec());
  for (std::uint32_t iy = 0; iy < spec().ny; ++iy) {
    for (std::uint32_t ix = 0; ix < spec().nx; ++ix) {
      const double x = spec().x_at(ix);
      const double y = spec().y_at(iy);
      rho.at(ix, iy) = gaussian_pdf(x, params.sigma_s) *
                       gaussian_pdf(y, params.sigma_y);
      grad.at(ix, iy) = gaussian_pdf_prime(x, params.sigma_s) *
                        gaussian_pdf(y, params.sigma_y);
    }
  }
  history.fill_all(20, rho, grad);
  return history;
}

TEST(Analytic, GaussianPdfNormalization) {
  EXPECT_NEAR(gaussian_pdf(0.0, 1.0), 1.0 / std::sqrt(2.0 * M_PI), 1e-14);
  EXPECT_NEAR(gaussian_pdf(2.0, 2.0), gaussian_pdf(1.0, 1.0) / 2.0, 1e-14);
}

TEST(Analytic, PdfPrimeIsDerivative) {
  const double h = 1e-6;
  for (double x : {-1.5, -0.2, 0.7, 2.0}) {
    const double numeric =
        (gaussian_pdf(x + h, 1.3) - gaussian_pdf(x - h, 1.3)) / (2 * h);
    EXPECT_NEAR(gaussian_pdf_prime(x, 1.3), numeric, 1e-7);
  }
}

TEST(Analytic, RadialFactorVanishesFarBehind) {
  const WakeModel model = WakeModel::longitudinal();
  const BeamParams params;
  // s = -20: the retarded argument s-u is far outside the bunch for all u.
  EXPECT_NEAR(analytic_radial_factor(-20.0, model, params, kRMax, 1e-12),
              0.0, 1e-10);
}

TEST(Analytic, LongitudinalForceAntisymmetricIsh) {
  // The u^{-1/3} λ' kernel produces a wake that changes sign across the
  // bunch: positive before the head-side peak, negative behind.
  const WakeModel model = WakeModel::longitudinal();
  const BeamParams params;
  const double front = analytic_force(0.0, 0.0, model, params, kRMax);
  const double back = analytic_force(2.0, 0.0, model, params, kRMax);
  EXPECT_GT(front, 0.0);
  EXPECT_LT(back, 0.0);
}

/// Transverse factor T(y) in closed form: the coupling kernel convolved
/// with the bunch's Gaussian transverse profile over the whole line is a
/// Gaussian (or its derivative) of width sqrt(σ_c² + σ_y²).
double closed_form_transverse_factor(double y, const WakeModel& model,
                                     const BeamParams& params) {
  const double sigma_t = std::sqrt(model.coupling_sigma *
                                       model.coupling_sigma +
                                   params.sigma_y * params.sigma_y);
  return model.coupling_derivative ? gaussian_pdf_prime(y, sigma_t)
                                   : gaussian_pdf(y, sigma_t);
}

TEST(Analytic, TransverseFactorClosedForm) {
  // With an inner window of ±20 σ_c, the windowed factor analytic_force
  // uses equals the full convolution to far below the tolerance.
  WakeModel model = WakeModel::longitudinal();
  model.coupling_sigma = 0.6;
  model.inner_halfwidth_sigmas = 20.0;
  BeamParams params;
  params.sigma_y = 0.8;
  EXPECT_NEAR(analytic_transverse_factor_windowed(0.5, model, params),
              closed_form_transverse_factor(0.5, model, params), 1e-10);
  model.coupling_derivative = true;
  EXPECT_NEAR(analytic_transverse_factor_windowed(0.5, model, params),
              closed_form_transverse_factor(0.5, model, params), 1e-10);
}

TEST(Wake, IntegrandMatchesContinuumOnNoiselessGrid) {
  const BeamParams params;
  const WakeModel model = WakeModel::longitudinal();
  const GridHistory history = continuum_history(params);
  simt::NullProbe& probe = simt::NullProbe::instance();

  // Evaluate the full rp-integral with adaptive quadrature and compare to
  // the analytic continuum force at several grid points.
  for (double s : {-1.0, 0.0, 1.5}) {
    for (double y : {0.0, 0.8}) {
      const WakeIntegrand integrand(history, model, s, y, 20, kSubWidth);
      const bd::testing::AdaptiveResult r =
          bd::testing::adaptive_simpson(integrand, 0.0, kRMax, 1e-8, probe);
      const double exact = analytic_force(s, y, model, params, kRMax);
      // Grid interpolation + finite inner window limit the agreement.
      EXPECT_NEAR(r.integral, exact,
                  std::max(5e-4 * std::abs(exact), 5e-5))
          << "s=" << s << " y=" << y;
      // The scalar reference refines to the same partition, bit for bit.
      const ScalarWakeIntegrand ref(history, model, s, y, 20, kSubWidth);
      const bd::testing::AdaptiveResult want =
          bd::testing::adaptive_simpson(ref, 0.0, kRMax, 1e-8, probe);
      EXPECT_EQ(r.integral, want.integral) << "s=" << s << " y=" << y;
      EXPECT_EQ(r.breakpoints, want.breakpoints) << "s=" << s << " y=" << y;
    }
  }
}

TEST(Wake, TransverseIntegrandMatchesContinuum) {
  const BeamParams params;
  const WakeModel model = WakeModel::transverse();
  const GridHistory history = continuum_history(params);
  simt::NullProbe& probe = simt::NullProbe::instance();
  const double y = 1.0;
  const WakeIntegrand integrand(history, model, 0.0, y, 20, kSubWidth);
  const bd::testing::AdaptiveResult r =
      bd::testing::adaptive_simpson(integrand, 0.0, kRMax, 1e-8, probe);
  const double exact = analytic_force(0.0, y, model, params, kRMax);
  EXPECT_NEAR(r.integral, exact, std::max(5e-3 * std::abs(exact), 2e-4));
  EXPECT_LT(exact, 0.0);  // focusing direction above the axis
}

TEST(Wake, FastRejectOutsideRangeSkipsLoads) {
  const BeamParams params;
  const WakeModel model = WakeModel::longitudinal();
  const GridHistory history = continuum_history(params);
  // Grid point at the far left: s - u leaves the grid for u > ~0.
  const WakeIntegrand integrand(history, model, -6.0, 0.0, 20, kSubWidth);
  bd::testing::LaneTrace trace;
  const double v = eval_at(integrand, 2.0, trace);  // s-u = -8 < grid min
  EXPECT_DOUBLE_EQ(v, 0.0);
  EXPECT_TRUE(trace.loads().empty());
  const ScalarWakeIntegrand ref(history, model, -6.0, 0.0, 20, kSubWidth);
  const double u[] = {2.0, 0.0};
  expect_batch_matches_reference(integrand, ref, u, 2);
}

TEST(Wake, InnerPointsControlLoadCount) {
  const BeamParams params;
  WakeModel model = WakeModel::longitudinal();
  model.inner_points = 5;
  const GridHistory history = continuum_history(params);
  const WakeIntegrand integrand(history, model, 0.0, 0.0, 20, kSubWidth);
  bd::testing::LaneTrace trace;
  eval_at(integrand, 0.5, trace);
  EXPECT_EQ(trace.loads().size(), 5u * kLoadsPerSample);
  const ScalarWakeIntegrand ref(history, model, 0.0, 0.0, 20, kSubWidth);
  const double u[] = {0.5};
  expect_batch_matches_reference(integrand, ref, u, 1);
}

TEST(Wake, SingularKernelGrowsTowardZero) {
  const BeamParams params;
  const WakeModel model = WakeModel::longitudinal();
  const GridHistory history = continuum_history(params);
  simt::NullProbe& probe = simt::NullProbe::instance();
  const WakeIntegrand integrand(history, model, 1.0, 0.0, 20, kSubWidth);
  // |f(u)| near u=0 exceeds |f| at u=2 thanks to the (u+u0)^(-1/3) kernel
  // (λ' at the retarded position is comparable at these two offsets).
  EXPECT_GT(std::abs(eval_at(integrand, 0.01, probe)),
            std::abs(eval_at(integrand, 2.0, probe)));
}

TEST(Wake, DepositedBunchApproachesContinuum) {
  // Monte-Carlo deposited density: integrand value converges to the
  // continuum one as N grows.
  const BeamParams params;
  const WakeModel model = WakeModel::longitudinal();
  GridHistory continuum = continuum_history(params);
  simt::NullProbe& probe = simt::NullProbe::instance();
  const WakeIntegrand exact_integrand(continuum, model, 0.5, 0.0, 20,
                                      kSubWidth);
  const double exact = eval_at(exact_integrand, 1.0, probe);

  double prev_err = 1e300;
  for (std::size_t n : {2000, 200000}) {
    util::Rng rng(77);
    const ParticleSet bunch = sample_gaussian_bunch(n, params, rng);
    Grid2D rho(spec()), grad(spec());
    deposit(bunch, rho);
    longitudinal_gradient(rho, grad);
    GridHistory noisy(spec(), 16);
    noisy.fill_all(20, rho, grad);
    const WakeIntegrand integrand(noisy, model, 0.5, 0.0, 20, kSubWidth);
    const double err = std::abs(eval_at(integrand, 1.0, probe) - exact);
    EXPECT_LT(err, prev_err);
    prev_err = err;
  }
  EXPECT_LT(prev_err, 5e-3);
}

}  // namespace
}  // namespace bd::beam
