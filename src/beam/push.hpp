#pragma once
/// \file push.hpp
/// Step 4 of the simulation loop: advance particles by Δt with the
/// leap-frog (kick–drift) scheme.

#include <span>

#include "beam/particles.hpp"

namespace bd::beam {

/// Leap-frog push: momenta are kicked by the gathered forces, then
/// positions drift with the updated momenta.
///   p ← p + F·Δt ;  x ← x + p·Δt
/// Pass empty spans to skip a force component (e.g. longitudinal-only
/// performance runs).
void leapfrog_push(ParticleSet& particles, std::span<const double> force_s,
                   std::span<const double> force_y, double dt);

}  // namespace bd::beam
