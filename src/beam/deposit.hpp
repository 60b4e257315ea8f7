#pragma once
/// \file deposit.hpp
/// Particle-in-cell deposition (step 1 of the simulation loop): spread each
/// macro-particle's charge onto grid nodes. Supports NGP (nearest grid
/// point), CIC (cloud-in-cell, linear) and TSC (triangular-shaped cloud,
/// quadratic — the 3×3 stencil matching the 27-point space-time
/// interpolation of the rp-integrand).

#include "beam/grid.hpp"
#include "beam/particles.hpp"

namespace bd::beam {

/// Deposition kernel order.
enum class DepositScheme { kNGP, kCIC, kTSC };

/// Deposit particle charge onto `rho` (values are *added*; clear first for
/// a fresh deposit). Charge landing outside the grid is dropped and its
/// total returned (diagnostic: should be ~0 for a well-sized grid).
/// Deposited values are densities: weight / (dx·dy) per unit cell area.
double deposit(const ParticleSet& particles, DepositScheme scheme,
               Grid2D& rho);

/// Central-difference longitudinal derivative: out(ix,iy) ≈ ∂ρ/∂s.
/// One-sided at the s boundaries. `out` must share `rho`'s spec.
void longitudinal_gradient(const Grid2D& rho, Grid2D& out);

}  // namespace bd::beam
