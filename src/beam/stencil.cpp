#include "beam/stencil.hpp"

#include <cmath>

#include "util/check.hpp"

namespace bd::beam {

namespace {
constexpr std::uint32_t kBoundsSite = kStencilBoundsSite;
constexpr std::uint32_t kRowSite = kStencilRowSite;

/// TSC 3×3 spatial sample on one time plane. Caller has validated bounds.
inline double sample_plane(const GridHistory& history, MomentChannel channel,
                           std::int64_t step, std::uint32_t ix,
                           std::uint32_t iy, const double wx[3],
                           const double wy[3], simt::LaneProbe& probe) {
  double acc = 0.0;
  for (int dy = -1; dy <= 1; ++dy) {
    const double* row =
        history.row_ptr(step, channel, ix - 1,
                        static_cast<std::uint32_t>(iy + dy));
    probe.load(kRowSite, history.probe_address(row), 3 * sizeof(double));
    const double wrow = wy[dy + 1];
    acc += wrow * (wx[0] * row[0] + wx[1] * row[1] + wx[2] * row[2]);
  }
  probe.count_flops(18);
  return acc;
}
}  // namespace

double sample_spacetime(const GridHistory& history, MomentChannel channel,
                        double x, double y, double t_steps,
                        simt::LaneProbe& probe) {
  const GridSpec& spec = history.spec();
  const double gx = spec.gx(x);
  const double gy = spec.gy(y);
  const auto ix = static_cast<std::int64_t>(std::lround(gx));
  const auto iy = static_cast<std::int64_t>(std::lround(gy));

  const bool inside = ix >= 1 && iy >= 1 &&
                      ix <= static_cast<std::int64_t>(spec.nx) - 2 &&
                      iy <= static_cast<std::int64_t>(spec.ny) - 2;
  probe.branch(kBoundsSite, inside);
  if (!inside) return 0.0;

  double wx[3], wy[3];
  tsc_weights(gx - static_cast<double>(ix), wx);
  tsc_weights(gy - static_cast<double>(iy), wy);
  probe.count_flops(12);

  // Backward quadratic time interpolation through b, b-1, b-2.
  std::int64_t b = static_cast<std::int64_t>(std::floor(t_steps));
  // Clamp so all three planes are retained (warm-up fills the deep end).
  const std::int64_t newest = history.latest_step();
  const std::int64_t oldest =
      newest - static_cast<std::int64_t>(history.depth()) + 1;
  if (b > newest) b = newest;
  if (b - 2 < oldest) b = oldest + 2;
  BD_DCHECK(history.has_step(b) && history.has_step(b - 2));
  const double u = t_steps - static_cast<double>(b);  // in [0, 1) typically
  // Lagrange weights at nodes 0, -1, -2 evaluated at u.
  const double l0 = 0.5 * (u + 1.0) * (u + 2.0);
  const double l1 = -u * (u + 2.0);
  const double l2 = 0.5 * u * (u + 1.0);
  probe.count_flops(10);

  const auto uix = static_cast<std::uint32_t>(ix);
  const auto uiy = static_cast<std::uint32_t>(iy);
  const double f0 =
      sample_plane(history, channel, b, uix, uiy, wx, wy, probe);
  const double f1 =
      sample_plane(history, channel, b - 1, uix, uiy, wx, wy, probe);
  const double f2 =
      sample_plane(history, channel, b - 2, uix, uiy, wx, wy, probe);
  probe.count_flops(5);
  return l0 * f0 + l1 * f1 + l2 * f2;
}

}  // namespace bd::beam
