#pragma once
/// \file wake.hpp
/// The retarded-interaction integrand family — our instantiation of the
/// paper's rp-integral (Eq. 1). The outer dimension is the retarded
/// separation u (time-retarded by u/c into the grid history); the inner
/// dimension is the transverse coordinate y', integrated with an α-point
/// Newton–Cotes rule. The radial kernel (u + u0)^p carries the steady-state
/// CSR wake singularity (p = -1/3 longitudinal, -2/3 transverse; Derbenev
/// et al. / Murphy et al. — the paper's validation references [24], [25]).

#include <array>
#include <cmath>
#include <cstdint>

#include "beam/history.hpp"
#include "beam/units.hpp"
#include "quad/integrand.hpp"

namespace bd::beam {

/// The paper's two radial-kernel exponents. Kept as named constants so the
/// per-eval kernel dispatch can hand `std::pow` a compile-time exponent
/// (same double value as the model field — bit-identical results).
inline constexpr double kLongitudinalKernelPower = -1.0 / 3;
inline constexpr double kTransverseKernelPower = -2.0 / 3;

/// Which quadrature rule samples the inner (transverse) integral. The
/// paper uses Newton–Cotes; at the small α a GPU kernel can afford, NC
/// under-resolves a Gaussian transverse profile, so Gauss–Legendre nodes
/// (same number of samples → identical memory-reference count α·n_i) are
/// the default. The ablation bench quantifies the difference.
enum class InnerRule { kNewtonCotes, kGaussLegendre };

/// Parameters of one retarded-interaction component.
struct WakeModel {
  double amplitude = 0.05;        ///< overall strength C
  double kernel_power = kLongitudinalKernelPower; ///< radial kernel exponent p
  double regularization = 0.05;   ///< u0 — keeps (u+u0)^p finite at u=0
  double coupling_sigma = 1.0;    ///< σ_c of the transverse coupling
  bool coupling_derivative = false; ///< use G'σc (transverse force) if true
  MomentChannel channel = kChannelDrhoDs; ///< which moment is integrated
  int inner_points = 7;           ///< α — inner sample points per radius
  double inner_halfwidth_sigmas = 3.0; ///< inner window ±w in σ_c units
  InnerRule inner_rule = InnerRule::kGaussLegendre;

  /// Longitudinal effective-force model: (u+u0)^{-1/3} against ∂ρ/∂s.
  static WakeModel longitudinal();

  /// Transverse effective-force model: (u+u0)^{-2/3}, derivative coupling,
  /// against ρ.
  static WakeModel transverse();
};

/// Maximum inner sample points a WakeIntegrand supports. The model asserts
/// inner_points ≤ 9, which lets the integrand keep its node/weight tables
/// in fixed arrays — constructing one allocates nothing.
inline constexpr int kMaxInnerPoints = 9;

/// Probe site of WakeIntegrand's fast-reject range branch. Public because
/// the scalar reference integrand in tests/ reports at the same site.
inline constexpr std::uint32_t kWakeRangeSite =
    simt::site_id("beam/wake/s-range");

/// rp-integrand for one grid point at one time step. A sample at retarded
/// separation u is the inner Newton–Cotes integral there, sampling the
/// moment history through the 27-point space–time stencil.
///
/// Construction copies the model scalars it needs (no reference retained)
/// and performs no heap allocation, so hot paths can build one per grid
/// point on the stack.
class WakeIntegrand final : public quad::RadialIntegrand {
 public:
  /// \param sub_width c·Δt — the radial subregion width; converts u to a
  ///        retarded offset in time steps.
  WakeIntegrand(const GridHistory& history, const WakeModel& model,
                double s_point, double y_point, std::int64_t step,
                double sub_width);

  /// Batched evaluation (wake_batch.cpp): evaluates up to quad::kBatchWidth
  /// retarded separations per call with the per-sample stencil geometry
  /// hoisted into SoA form. Bitwise identical to the scalar reference
  /// integrand in tests/wake_oracle.hpp sampled one separation at a time —
  /// values and probe streams alike.
  void eval_batch(const double* u, double* out, std::size_t n,
                  simt::LaneProbe& probe) const override;

 private:
  /// Which compile-time exponent the radial kernel dispatch can use.
  enum class PowKind : std::uint8_t { kLongitudinal, kTransverse, kGeneric };

  /// The radial kernel (u + u0)^p, dispatched on the two paper exponents so
  /// std::pow sees a compile-time constant (identical value → bit-identical
  /// result).
  double radial_kernel(double u) const {
    const double base = u + regularization_;
    switch (pow_kind_) {
      case PowKind::kLongitudinal:
        return std::pow(base, kLongitudinalKernelPower);
      case PowKind::kTransverse:
        return std::pow(base, kTransverseKernelPower);
      default:
        return std::pow(base, kernel_power_);
    }
  }

  const GridHistory& history_;
  double amplitude_;
  double kernel_power_;
  double regularization_;
  MomentChannel channel_;
  PowKind pow_kind_;
  double s_point_;
  std::int64_t step_;
  double sub_width_;
  // Precomputed inner weights (fixed per grid point).
  int inner_count_;
  std::array<double, kMaxInnerPoints> inner_w_;  // NC weight × coupling
  // Per-inner-node stencil geometry, precomputed once per integrand: the y
  // grid index, its in-bounds flag and the TSC y-weights (the scalar
  // reference recomputes them on every sample with the same expressions,
  // so the bits agree).
  std::array<std::int64_t, kMaxInnerPoints> inner_iy_;
  std::array<double, 3 * kMaxInnerPoints> inner_wy_;
  std::array<bool, kMaxInnerPoints> inner_iy_ok_;
};

}  // namespace bd::beam
