#pragma once
/// \file deposit.hpp
/// Particle-in-cell deposition (step 1 of the simulation loop): spread each
/// macro-particle's charge onto grid nodes with TSC (triangular-shaped
/// cloud, quadratic) weights — the 3×3 stencil matching the 27-point
/// space-time interpolation of the rp-integrand.

#include "beam/grid.hpp"
#include "beam/particles.hpp"

namespace bd::beam {

/// Deposit particle charge onto `rho` (values are *added*; clear first for
/// a fresh deposit). Charge landing outside the grid is dropped and its
/// total returned (diagnostic: should be ~0 for a well-sized grid).
/// Deposited values are densities: weight / (dx·dy) per unit cell area.
double deposit(const ParticleSet& particles, Grid2D& rho);

/// Central-difference longitudinal derivative: out(ix,iy) ≈ ∂ρ/∂s.
/// One-sided at the s boundaries. `out` must share `rho`'s spec.
void longitudinal_gradient(const Grid2D& rho, Grid2D& out);

}  // namespace bd::beam
