#pragma once
/// \file stencil.hpp
/// The 27-point space–time interpolation of the rp-integrand (paper §II-A:
/// "f(p) is approximated using 27 neighboring points from the data grids
/// D_{i-1}, D_i, D_{i+1}"): a 3×3 TSC spatial stencil on each of three
/// consecutive history grids, combined by quadratic (backward-Lagrange)
/// interpolation in time. WakeIntegrand::eval_batch (wake_batch.cpp)
/// evaluates it; the scalar reference in tests/wake_oracle.hpp is the
/// one-sample form it is checked against. Every grid row touched is one
/// global load (3 contiguous doubles), so the SIMT model sees 9 loads per
/// sample — 3 rows × 3 time planes. A plane's 3 rows sit one grid pitch
/// (nx doubles) apart, and eval_batch reports them to the LaneProbe as one
/// group (LaneProbe::load_groups); on every grid whose pitch is a whole
/// number of L1 lines the warp analyzer then coalesces the group through
/// its first row. The scalar reference reports the same 9 loads one by
/// one.

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

/// Rows read per time plane, and time planes per in-bounds space–time
/// sample.
inline constexpr int kRowsPerPlane = 3;
inline constexpr int kPlanesPerSample = 3;

/// Global loads per in-bounds space–time sample (3 planes × 3 rows).
inline constexpr int kLoadsPerSample = kPlanesPerSample * kRowsPerPlane;

}  // namespace bd::beam
