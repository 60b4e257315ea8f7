#pragma once
/// \file stencil.hpp
/// The 27-point space–time interpolation of the rp-integrand (paper §II-A:
/// "f(p) is approximated using 27 neighboring points from the data grids
/// D_{i-1}, D_i, D_{i+1}"): a 3×3 TSC spatial stencil on each of three
/// consecutive history grids, combined by quadratic (backward-Lagrange)
/// interpolation in time. WakeIntegrand::eval_batch (wake_batch.cpp)
/// evaluates it; the scalar reference in tests/wake_oracle.hpp is the
/// one-sample form it is checked against. Every grid row touched is
/// reported to the LaneProbe as one global load (3 contiguous doubles), so
/// the SIMT model sees 9 loads per sample — 3 rows × 3 time planes.

#include <cstdint>

#include "simt/probe.hpp"

namespace bd::beam {

/// Probe sites the space–time stencil reports at: the per-sample bounds
/// branch (taken when the 3×3 stencil stays inside the grid) and the row
/// loads.
inline constexpr std::uint32_t kStencilBoundsSite =
    simt::site_id("beam/stencil/bounds");
inline constexpr std::uint32_t kStencilRowSite =
    simt::site_id("beam/stencil/row");

/// Global loads per in-bounds space–time sample (3 planes × 3 rows).
inline constexpr int kLoadsPerSample = 9;

}  // namespace bd::beam
