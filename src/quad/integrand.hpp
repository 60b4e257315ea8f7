#pragma once
/// \file integrand.hpp
/// Integrand interfaces for the rp-integral machinery.
///
/// The rp-integral (paper Eq. 1) is a nested integral: an outer integration
/// over retarded radius r' and an inner integration over angle θ'. The
/// outer quadrature algorithms in this library operate on a RadialIntegrand,
/// whose samples f(r) are understood to *be* the inner integral at radius r
/// (computed by the implementation with Newton–Cotes, reporting its memory
/// traffic through the LaneProbe).

#include <cstddef>
#include <cstdint>
#include <functional>

#include "simt/probe.hpp"

namespace bd::quad {

/// Maximum samples per eval_batch call — the four fresh samples
/// simpson_sweep pays per interval (the memoized bisection pays two).
inline constexpr std::size_t kBatchWidth = 4;

/// Abstract outer-dimension integrand f(r) = ∫ f(r, θ) dθ.
class RadialIntegrand {
 public:
  virtual ~RadialIntegrand() = default;

  /// Evaluate the inner integral at the `n` radii r[0..n) (n ≤
  /// kBatchWidth) into out[0..n), reporting flops and global loads through
  /// `probe`. Samples are independent: out[k] depends on r[k] alone, and
  /// the probe events of one call are those of n one-wide calls in index
  /// order, so a caller may batch samples freely.
  virtual void eval_batch(const double* r, double* out, std::size_t n,
                          simt::LaneProbe& probe) const = 0;
};

/// Adapter turning any callable double(double) into a RadialIntegrand.
/// Used by tests and by analytic reference computations; reports `flops_per
/// _eval` flops per sample and no loads.
class FunctionIntegrand final : public RadialIntegrand {
 public:
  explicit FunctionIntegrand(std::function<double(double)> fn,
                             std::uint64_t flops_per_eval = 8)
      : fn_(std::move(fn)), flops_per_eval_(flops_per_eval) {}

  void eval_batch(const double* r, double* out, std::size_t n,
                  simt::LaneProbe& probe) const override {
    for (std::size_t k = 0; k < n; ++k) {
      probe.count_flops(flops_per_eval_);
      out[k] = fn_(r[k]);
    }
  }

 private:
  std::function<double(double)> fn_;
  std::uint64_t flops_per_eval_;
};

}  // namespace bd::quad
