#pragma once
/// \file analytic.hpp
/// Continuum analytic reference for the rigid Gaussian bunch — the "exact
/// analytical results" of the paper's validation (§V-A). For the separable
/// continuum density ρ(s, y) = λ_σs(s)·g_σy(y), the effective force
/// factorizes into a 1-D radial wake integral (computed here to 1e-12 by
/// adaptive Gauss quadrature; the Gaussian-convolution transverse factor is
/// closed-form).

#include "beam/units.hpp"
#include "beam/wake.hpp"

namespace bd::beam {

/// Gaussian pdf value.
double gaussian_pdf(double x, double sigma);

/// d/dx of the Gaussian pdf.
double gaussian_pdf_prime(double x, double sigma);

/// Radial wake factor W(s) = ∫₀ᴿ (u+u0)^p q(s-u) du, where q = λ' for the
/// gradient channel and q = λ for the density channel.
double analytic_radial_factor(double s, const WakeModel& model,
                              const BeamParams& params, double r_max,
                              double abs_tol = 1e-12);

/// Transverse factor restricted to the integrand's finite inner window
/// [y - w, y + w] (w = inner_halfwidth_sigmas·σ_c) — the operator the
/// kernels actually evaluate. Computed by high-order quadrature to
/// `abs_tol`.
double analytic_transverse_factor_windowed(double y, const WakeModel& model,
                                           const BeamParams& params,
                                           double abs_tol = 1e-12);

/// Full continuum force F(s, y) = amplitude · W(s) · T(y) for the given
/// model (matches the WakeIntegrand's value in the continuum limit).
double analytic_force(double s, double y, const WakeModel& model,
                      const BeamParams& params, double r_max,
                      double abs_tol = 1e-12);

}  // namespace bd::beam
