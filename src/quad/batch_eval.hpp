#pragma once
/// \file batch_eval.hpp
/// Batched sample evaluation for the quadrature engine.
///
/// The evaluation-engine entry points walk contiguous sample arrays: the
/// shared-sample sweep pays four fresh samples per interval (fm, fb, fl,
/// fr) and the memoized adaptive refinement pays two (fl, fr). Both now
/// hand those samples to `RadialIntegrand::eval_batch` as one block, so an
/// integrand with a batched path (beam::WakeIntegrand) evaluates all
/// lanes per call while integrands without one fall back to the default
/// scalar loop defined here.
///
/// Identity contract (enforced by test_eval_engine): eval_batch(r, out, n)
/// must leave out[k] bitwise equal to eval(r[k]) and must emit the same
/// per-site probe-event sequences as n sequential eval() calls. Batching
/// changes how many virtual calls are paid, never which IEEE operations
/// run or what the warp analyzer sees.

#include <cstddef>

#include "quad/integrand.hpp"
#include "quad/rule.hpp"
#include "quad/simpson.hpp"
#include "simt/probe.hpp"

namespace bd::quad {

/// Maximum samples per eval_batch call — the four samples simpson_sweep
/// adds per interval.
inline constexpr std::size_t kBatchWidth = 4;

/// The memoized-refinement pair: evaluates the two fine points fl, fr of
/// [a, b] as one batch and combines with the known coarse samples.
/// Bit-identical to simpson_estimate_memo's former two scalar evals (same
/// points, same order).
QuadEstimate simpson_refine_batch(const RadialIntegrand& f, double a,
                                  double b, double fa, double fm, double fb,
                                  simt::LaneProbe& probe,
                                  SimpsonSamples& out);

}  // namespace bd::quad
