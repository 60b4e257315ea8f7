#pragma once
/// Reference rp-integrand the batched WakeIntegrand::eval_batch is checked
/// against: the scalar path, one retarded separation at a time. The inner
/// node/weight setup, ScalarWakeIntegrand::eval and sample_spacetime (the
/// 27-point space–time stencil) are the code the solvers ran before
/// eval_batch became the only evaluation path; eval_batch must match them
/// bit for bit — values and probe streams alike. No gtest dependency, so
/// bench_simd times the same reference.

#include <array>
#include <cmath>
#include <cstddef>
#include <cstdint>

#include "beam/history.hpp"
#include "beam/stencil.hpp"
#include "beam/wake.hpp"
#include "quad/gauss.hpp"
#include "quad/integrand.hpp"
#include "quad/newton_cotes.hpp"
#include "simt/probe.hpp"
#include "util/check.hpp"

namespace bd::testing {

namespace detail {

/// TSC 3×3 spatial sample on one time plane. Caller has validated bounds.
inline double sample_plane(const beam::GridHistory& history,
                           beam::MomentChannel channel, std::int64_t step,
                           std::uint32_t ix, std::uint32_t iy,
                           const double wx[3], const double wy[3],
                           simt::LaneProbe& probe) {
  double acc = 0.0;
  for (int dy = -1; dy <= 1; ++dy) {
    const double* row =
        history.row_ptr(step, channel, ix - 1,
                        static_cast<std::uint32_t>(iy + dy));
    probe.load(beam::kStencilRowSite, history.probe_address(row),
               3 * sizeof(double));
    const double wrow = wy[dy + 1];
    acc += wrow * (wx[0] * row[0] + wx[1] * row[1] + wx[2] * row[2]);
  }
  probe.count_flops(18);
  return acc;
}

}  // namespace detail

/// Interpolate moment `channel` at physical position (x, y) and continuous
/// time `t_steps` (in units of the simulation step). Time interpolation is
/// quadratic through steps b, b-1, b-2 with b = floor(t_steps) — the grids
/// D_{k-j-1}, D_{k-j-2}, D_{k-j-3} the paper prescribes for subregion S_j.
/// Returns 0 without loads when the spatial stencil would leave the grid
/// (reported as a branch at a dedicated site).
inline double sample_spacetime(const beam::GridHistory& history,
                               beam::MomentChannel channel, double x,
                               double y, double t_steps,
                               simt::LaneProbe& probe) {
  const beam::GridSpec& spec = history.spec();
  const double gx = spec.gx(x);
  const double gy = spec.gy(y);
  const auto ix = static_cast<std::int64_t>(std::lround(gx));
  const auto iy = static_cast<std::int64_t>(std::lround(gy));

  const bool inside = ix >= 1 && iy >= 1 &&
                      ix <= static_cast<std::int64_t>(spec.nx) - 2 &&
                      iy <= static_cast<std::int64_t>(spec.ny) - 2;
  probe.branch(beam::kStencilBoundsSite, inside);
  if (!inside) return 0.0;

  double wx[3], wy[3];
  beam::tsc_weights(gx - static_cast<double>(ix), wx);
  beam::tsc_weights(gy - static_cast<double>(iy), wy);
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
      detail::sample_plane(history, channel, b, uix, uiy, wx, wy, probe);
  const double f1 =
      detail::sample_plane(history, channel, b - 1, uix, uiy, wx, wy, probe);
  const double f2 =
      detail::sample_plane(history, channel, b - 2, uix, uiy, wx, wy, probe);
  probe.count_flops(5);
  return l0 * f0 + l1 * f1 + l2 * f2;
}

/// The scalar rp-integrand: eval(u) computes the inner Newton–Cotes (or
/// Gauss–Legendre) integral at retarded separation u through
/// sample_spacetime, one inner node at a time. Built from the same
/// arguments as beam::WakeIntegrand, whose private state it does not read.
class ScalarWakeIntegrand final : public quad::RadialIntegrand {
 public:
  ScalarWakeIntegrand(const beam::GridHistory& history,
                      const beam::WakeModel& model, double s_point,
                      double y_point, std::int64_t step, double sub_width)
      : history_(history),
        amplitude_(model.amplitude),
        kernel_power_(model.kernel_power),
        regularization_(model.regularization),
        channel_(model.channel),
        s_point_(s_point),
        step_(step),
        sub_width_(sub_width) {
    BD_CHECK(sub_width > 0.0);
    BD_CHECK(model.inner_points >= 2 &&
             model.inner_points <= beam::kMaxInnerPoints);
    pow_kind_ = model.kernel_power == beam::kLongitudinalKernelPower
                    ? PowKind::kLongitudinal
                    : model.kernel_power == beam::kTransverseKernelPower
                          ? PowKind::kTransverse
                          : PowKind::kGeneric;
    const double w = model.inner_halfwidth_sigmas * model.coupling_sigma;
    inner_lo_ = y_point - w;
    inner_width_ = 2.0 * w;
    inner_count_ = model.inner_points;
    if (model.inner_rule == beam::InnerRule::kNewtonCotes) {
      const auto nc = quad::newton_cotes_weights(model.inner_points);
      for (int i = 0; i < model.inner_points; ++i) {
        inner_y_[static_cast<std::size_t>(i)] =
            inner_lo_ + inner_width_ * static_cast<double>(i) /
                            (model.inner_points - 1);
        inner_w_[static_cast<std::size_t>(i)] =
            nc[static_cast<std::size_t>(i)] * inner_width_;
      }
    } else {
      const quad::GaussRule& rule =
          quad::gauss_legendre(model.inner_points);
      for (int i = 0; i < model.inner_points; ++i) {
        inner_y_[static_cast<std::size_t>(i)] =
            y_point + w * rule.nodes[static_cast<std::size_t>(i)];
        inner_w_[static_cast<std::size_t>(i)] =
            rule.weights[static_cast<std::size_t>(i)] * w;
      }
    }
    // Fold the (fixed per grid point) coupling factor into the weights. The
    // Gaussian normalization σ√2π and σ² are hoisted out of the node loop —
    // same expressions, evaluated once.
    const double sigma = model.coupling_sigma;
    const double norm = sigma * std::sqrt(2.0 * M_PI);
    const double sigma_sq = sigma * sigma;
    for (int i = 0; i < model.inner_points; ++i) {
      const double delta = y_point - inner_y_[static_cast<std::size_t>(i)];
      const double z = delta / sigma;
      const double kernel = std::exp(-0.5 * z * z) / norm;
      const double coupling =
          model.coupling_derivative ? -delta / sigma_sq * kernel : kernel;
      inner_w_[static_cast<std::size_t>(i)] *= coupling;
    }
  }

  double eval(double u, simt::LaneProbe& probe) const {
    const beam::GridSpec& spec = history_.spec();
    const double s = s_point_ - u;
    // Fast reject: the retarded sample sits entirely outside the grid.
    const bool in_range =
        s >= spec.x0 - spec.dx && s <= spec.x_max() + spec.dx;
    probe.branch(beam::kWakeRangeSite, in_range);
    probe.count_flops(4);
    if (!in_range) return 0.0;

    const double t_steps = static_cast<double>(step_) - u / sub_width_;
    double inner = 0.0;
    for (std::size_t i = 0; i < static_cast<std::size_t>(inner_count_); ++i) {
      const double f = sample_spacetime(history_, channel_, s, inner_y_[i],
                                        t_steps, probe);
      inner += inner_w_[i] * f;
    }
    probe.count_flops(2 * static_cast<std::size_t>(inner_count_) + 12);
    return amplitude_ * radial_kernel(u) * inner;
  }

  void eval_batch(const double* u, double* out, std::size_t n,
                  simt::LaneProbe& probe) const override {
    for (std::size_t k = 0; k < n; ++k) out[k] = eval(u[k], probe);
  }

 private:
  enum class PowKind : std::uint8_t { kLongitudinal, kTransverse, kGeneric };

  double radial_kernel(double u) const {
    const double base = u + regularization_;
    switch (pow_kind_) {
      case PowKind::kLongitudinal:
        return std::pow(base, beam::kLongitudinalKernelPower);
      case PowKind::kTransverse:
        return std::pow(base, beam::kTransverseKernelPower);
      default:
        return std::pow(base, kernel_power_);
    }
  }

  const beam::GridHistory& history_;
  double amplitude_;
  double kernel_power_;
  double regularization_;
  beam::MomentChannel channel_;
  PowKind pow_kind_;
  double s_point_;
  std::int64_t step_;
  double sub_width_;
  double inner_lo_;
  double inner_width_;
  int inner_count_;
  std::array<double, beam::kMaxInnerPoints> inner_y_;
  std::array<double, beam::kMaxInnerPoints> inner_w_;  // weight × coupling
};

}  // namespace bd::testing
