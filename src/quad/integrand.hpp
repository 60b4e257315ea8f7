#pragma once
/// \file integrand.hpp
/// Integrand interfaces for the rp-integral machinery.
///
/// The rp-integral (paper Eq. 1) is a nested integral: an outer integration
/// over retarded radius r' and an inner integration over angle θ'. The
/// outer quadrature algorithms in this library operate on a RadialIntegrand,
/// whose eval(r) is understood to *be* the inner integral at radius r
/// (computed by the implementation with Newton–Cotes, reporting its memory
/// traffic through the LaneProbe).

#include <cstddef>
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

  /// Evaluate the inner integral at radius `r`, reporting flops and global
  /// loads through `probe`.
  virtual double eval(double r, simt::LaneProbe& probe) const = 0;

  /// Evaluate `n` radii in one call (n ≤ kBatchWidth). The contract is
  /// strict batch-of-eval semantics: out[k] must be bitwise identical to
  /// eval(r[k], probe), and probe events must be emitted per sample in
  /// index order with the same per-site sequences the scalar path produces.
  /// This default is exactly that loop — it also serves integrands that
  /// never grow a batched path, including test doubles that count eval()
  /// calls; beam::WakeIntegrand overrides it with its SoA path.
  virtual void eval_batch(const double* r, double* out, std::size_t n,
                          simt::LaneProbe& probe) const {
    for (std::size_t k = 0; k < n; ++k) out[k] = eval(r[k], probe);
  }
};

/// Adapter turning any callable double(double) into a RadialIntegrand.
/// Used by tests and by analytic reference computations; reports `flops_per
/// _eval` flops and no loads.
class FunctionIntegrand final : public RadialIntegrand {
 public:
  explicit FunctionIntegrand(std::function<double(double)> fn,
                             std::uint64_t flops_per_eval = 8)
      : fn_(std::move(fn)), flops_per_eval_(flops_per_eval) {}

  double eval(double r, simt::LaneProbe& probe) const override {
    probe.count_flops(flops_per_eval_);
    return fn_(r);
  }

 private:
  std::function<double(double)> fn_;
  std::uint64_t flops_per_eval_;
};

}  // namespace bd::quad
