#include "beam/analytic.hpp"

#include <cmath>

#include "quad/gauss.hpp"
#include "util/check.hpp"

namespace bd::beam {

double gaussian_pdf(double x, double sigma) {
  const double z = x / sigma;
  return std::exp(-0.5 * z * z) / (sigma * std::sqrt(2.0 * M_PI));
}

double gaussian_pdf_prime(double x, double sigma) {
  return -x / (sigma * sigma) * gaussian_pdf(x, sigma);
}

double analytic_radial_factor(double s, const WakeModel& model,
                              const BeamParams& params, double r_max,
                              double abs_tol) {
  BD_CHECK(r_max > 0.0);
  const double sigma = params.sigma_s;
  auto q = [&](double arg) {
    return model.channel == kChannelDrhoDs ? gaussian_pdf_prime(arg, sigma)
                                           : gaussian_pdf(arg, sigma);
  };
  auto integrand = [&](double u) {
    return std::pow(u + model.regularization, model.kernel_power) * q(s - u);
  };
  return quad::gauss_integrate_to_tolerance(integrand, 0.0, r_max, abs_tol);
}

double analytic_transverse_factor_windowed(double y, const WakeModel& model,
                                           const BeamParams& params,
                                           double abs_tol) {
  const double w = model.inner_halfwidth_sigmas * model.coupling_sigma;
  auto integrand = [&](double yp) {
    const double delta = y - yp;
    const double coupling =
        model.coupling_derivative
            ? gaussian_pdf_prime(delta, model.coupling_sigma)
            : gaussian_pdf(delta, model.coupling_sigma);
    return coupling * gaussian_pdf(yp, params.sigma_y);
  };
  return quad::gauss_integrate_to_tolerance(integrand, y - w, y + w, abs_tol);
}

double analytic_force(double s, double y, const WakeModel& model,
                      const BeamParams& params, double r_max,
                      double abs_tol) {
  return model.amplitude *
         analytic_radial_factor(s, model, params, r_max, abs_tol) *
         analytic_transverse_factor_windowed(y, model, params, abs_tol);
}

}  // namespace bd::beam
