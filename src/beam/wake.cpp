#include "beam/wake.hpp"

#include <cmath>

#include "quad/gauss.hpp"
#include "quad/newton_cotes.hpp"
#include "util/check.hpp"

namespace bd::beam {

WakeModel WakeModel::longitudinal() { return WakeModel{}; }

WakeModel WakeModel::transverse() {
  WakeModel m;
  m.kernel_power = kTransverseKernelPower;
  m.coupling_derivative = true;
  m.channel = kChannelRho;
  return m;
}

WakeIntegrand::WakeIntegrand(const GridHistory& history,
                             const WakeModel& model, double s_point,
                             double y_point, std::int64_t step,
                             double sub_width)
    : history_(history),
      amplitude_(model.amplitude),
      kernel_power_(model.kernel_power),
      regularization_(model.regularization),
      channel_(model.channel),
      s_point_(s_point),
      step_(step),
      sub_width_(sub_width) {
  BD_CHECK(sub_width > 0.0);
  BD_CHECK(model.inner_points >= 2 && model.inner_points <= kMaxInnerPoints);
  pow_kind_ = model.kernel_power == kLongitudinalKernelPower
                  ? PowKind::kLongitudinal
                  : model.kernel_power == kTransverseKernelPower
                        ? PowKind::kTransverse
                        : PowKind::kGeneric;
  const double w = model.inner_halfwidth_sigmas * model.coupling_sigma;
  const double inner_lo = y_point - w;
  const double inner_width = 2.0 * w;
  inner_count_ = model.inner_points;
  std::array<double, kMaxInnerPoints> inner_y;
  if (model.inner_rule == InnerRule::kNewtonCotes) {
    const auto nc = quad::newton_cotes_weights(model.inner_points);
    for (int i = 0; i < model.inner_points; ++i) {
      inner_y[static_cast<std::size_t>(i)] =
          inner_lo + inner_width * static_cast<double>(i) /
                         (model.inner_points - 1);
      inner_w_[static_cast<std::size_t>(i)] =
          nc[static_cast<std::size_t>(i)] * inner_width;
    }
  } else {
    const quad::GaussRule& rule =
        quad::gauss_legendre(model.inner_points);
    for (int i = 0; i < model.inner_points; ++i) {
      inner_y[static_cast<std::size_t>(i)] =
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
    const double delta = y_point - inner_y[static_cast<std::size_t>(i)];
    const double z = delta / sigma;
    const double kernel = std::exp(-0.5 * z * z) / norm;
    const double coupling =
        model.coupling_derivative ? -delta / sigma_sq * kernel : kernel;
    inner_w_[static_cast<std::size_t>(i)] *= coupling;
  }
  // Hoisted stencil geometry for eval_batch (wake_batch.cpp). The inner
  // nodes are fixed per integrand, so the per-node y index, bounds flag and
  // TSC weights are evaluated once here — the expressions the scalar
  // reference evaluates per sample, so the same bits.
  const GridSpec& spec = history.spec();
  for (int i = 0; i < model.inner_points; ++i) {
    const auto idx = static_cast<std::size_t>(i);
    const double gy = spec.gy(inner_y[idx]);
    const auto iy = static_cast<std::int64_t>(std::lround(gy));
    inner_iy_[idx] = iy;
    inner_iy_ok_[idx] =
        iy >= 1 && iy <= static_cast<std::int64_t>(spec.ny) - 2;
    tsc_weights(gy - static_cast<double>(iy), &inner_wy_[3 * idx]);
  }
}

}  // namespace bd::beam
