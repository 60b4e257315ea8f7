#pragma once
/// \file stencil.hpp
/// The 27-point space–time interpolation of the rp-integrand (paper §II-A:
/// "f(p) is approximated using 27 neighboring points from the data grids
/// D_{i-1}, D_i, D_{i+1}"): a 3×3 TSC spatial stencil on each of three
/// consecutive history grids, combined by quadratic (backward-Lagrange)
/// interpolation in time. Every grid row touched is reported to the
/// LaneProbe as one global load (3 contiguous doubles), so the SIMT model
/// sees 9 loads per sample — 3 rows × 3 time planes.

#include "beam/history.hpp"
#include "simt/probe.hpp"

namespace bd::beam {

/// Interpolate moment `channel` at physical position (x, y) and continuous
/// time `t_steps` (in units of the simulation step). Time interpolation is
/// quadratic through steps b, b-1, b-2 with b = floor(t_steps) — the grids
/// D_{k-j-1}, D_{k-j-2}, D_{k-j-3} the paper prescribes for subregion S_j.
/// Returns 0 without loads when the spatial stencil would leave the grid
/// (reported as a branch at a dedicated site).
double sample_spacetime(const GridHistory& history, MomentChannel channel,
                        double x, double y, double t_steps,
                        simt::LaneProbe& probe);

/// Probe sites the space–time stencil reports at. Public because the
/// batched wake path (wake_batch.cpp) must emit the identical event stream
/// from the identical sites.
inline constexpr std::uint32_t kStencilBoundsSite =
    simt::site_id("beam/stencil/bounds");
inline constexpr std::uint32_t kStencilRowSite =
    simt::site_id("beam/stencil/row");

/// Number of global loads one in-bounds space–time sample issues.
inline constexpr int kLoadsPerSample = 9;

/// Number of grid values one in-bounds space–time sample reads.
inline constexpr int kPointsPerSample = 27;

}  // namespace bd::beam
