#pragma once
/// \file adaptive.hpp
/// Stack-based adaptive Simpson quadrature — the RP-ADAPTIVEQUADRATURE of
/// the paper. Besides the integral/error estimates, every accepted leaf
/// interval is handed to a caller callback, so the caller can log the
/// partition the driver generated (the fallback kernel counts leaves per
/// subregion as the observed data-access pattern for the online learner).
///
/// The driver is memoized: each work item carries the samples of its
/// interval that are already known, so a bisection costs 2 new integrand
/// evaluations (the two fine points of each child) instead of 5, and the
/// root is seeded with the five samples the kernel-1 sweep already paid
/// for. Accept/poison/depth logic, LIFO traversal order and all arithmetic
/// are those of the plain 5-evaluations-per-item driver, so results are
/// bit-identical to it (tests/quad_oracle.hpp keeps that reference).

#include <cmath>
#include <cstdint>
#include <vector>

#include "quad/integrand.hpp"
#include "quad/rule.hpp"
#include "quad/simpson.hpp"
#include "simt/probe.hpp"

namespace bd::quad {

/// Tunables for the adaptive driver.
struct AdaptiveOptions {
  int max_depth = 30;           ///< bisection depth limit
  std::uint64_t max_intervals = 1u << 20;  ///< interval budget safety net
};

/// One pending interval of the memoized worklist. The three coarse samples
/// are always valid; the fine pair is valid only for a seeded root
/// (`have_fine`), whose five samples the caller already owns.
struct AdaptiveWorkItem {
  double a = 0.0;
  double b = 0.0;
  double fa = 0.0;
  double fm = 0.0;
  double fb = 0.0;
  double fl = 0.0;       ///< valid only when have_fine
  double fr = 0.0;       ///< valid only when have_fine
  double tol = 0.0;
  int depth = 0;
  bool have_fine = false;
};

/// Aggregate outcome of the seeded driver. No breakpoint list — callers
/// that need one collect leaf intervals through the accept callback.
struct AdaptiveOutcome {
  double integral = 0.0;
  double error = 0.0;
  std::uint64_t evaluations = 0;        ///< new evals paid by the driver
  std::uint64_t evaluations_saved = 0;  ///< 3 per memoized bisection child
  std::uint64_t intervals = 0;          ///< accepted (leaf) intervals
  bool converged = true;
};

namespace detail {
inline constexpr std::uint32_t kAdaptiveLoopSite =
    simt::site_id("quad/adaptive/worklist");
inline constexpr std::uint32_t kAdaptiveAcceptSite =
    simt::site_id("quad/adaptive/accept");
}  // namespace detail

/// Memoized adaptive Simpson over [a, b] to absolute tolerance `tol`,
/// seeded with the five samples of the root interval (free when the caller
/// just estimated it, e.g. during the kernel-1 partition sweep). Tolerance
/// is distributed proportionally to subinterval width (each bisection
/// halves it), so the total error is bounded by `tol` — the classic
/// adaptive-Simpson policy the paper's GPU fallback kernel executes. Loop
/// trip counts and accept branches are reported through `probe` so the
/// SIMT model sees this routine's data-dependent control flow. `stack` is
/// caller-provided scratch — it is cleared on entry and reusing it across
/// calls makes the driver allocation-free in steady state.
/// `accept(item, est)` is invoked for every accepted leaf in DFS
/// (left-to-right) order.
///
/// Eval accounting: the driver pays 2 evaluations and books 3 saved per
/// memoized child; the seeded root books nothing here — the caller
/// decides whether its samples were actually free (+5 saved in the
/// fallback).
template <typename Accept>
AdaptiveOutcome adaptive_simpson_seeded(const RadialIntegrand& f, double a,
                                        double b, double tol,
                                        const SimpsonSamples& root,
                                        simt::LaneProbe& probe,
                                        const AdaptiveOptions& options,
                                        std::vector<AdaptiveWorkItem>& stack,
                                        Accept&& accept) {
  AdaptiveOutcome out;
  stack.clear();
  stack.push_back(AdaptiveWorkItem{a, b, root.fa, root.fm, root.fb, root.fl,
                                   root.fr, tol, 0, true});

  std::uint64_t trips = 0;
  std::uint64_t intervals_created = 1;

  while (!stack.empty()) {
    ++trips;
    const AdaptiveWorkItem item = stack.back();
    stack.pop_back();

    SimpsonSamples s;
    QuadEstimate est;
    if (item.have_fine) {
      s = SimpsonSamples{item.fa, item.fl, item.fm, item.fr, item.fb};
      est = simpson_combine(item.a, item.b, s, probe);
    } else {
      est = simpson_estimate_memo(f, item.a, item.b, item.fa, item.fm,
                                  item.fb, probe, s);
      out.evaluations += 2;
      out.evaluations_saved += 3;
    }

    // A non-finite estimate can never converge — bisecting a NaN integrand
    // yields NaN on both halves — so refining it would only burn the whole
    // interval budget (and, via the breakpoint list, unbounded memory when
    // a poisoned grid taints every point's integrand).
    const bool poisoned =
        !std::isfinite(est.integral) || !std::isfinite(est.error);
    const bool accepted = poisoned || est.error <= item.tol ||
                          item.depth >= options.max_depth ||
                          intervals_created >= options.max_intervals;
    probe.branch(detail::kAdaptiveAcceptSite, accepted);

    if (accepted) {
      if (poisoned || est.error > item.tol) out.converged = false;
      out.integral += est.integral;
      out.error += est.error;
      ++out.intervals;
      accept(item, est);
    } else {
      const double m = 0.5 * (item.a + item.b);
      // LIFO order keeps the scan depth-first, left to right. Each child
      // inherits three of the parent's five samples: the fine pair become
      // the children's midpoints (the sample points coincide exactly).
      stack.push_back(AdaptiveWorkItem{m, item.b, s.fm, s.fr, s.fb, 0.0, 0.0,
                                       0.5 * item.tol, item.depth + 1,
                                       false});
      stack.push_back(AdaptiveWorkItem{item.a, m, s.fa, s.fl, s.fm, 0.0, 0.0,
                                       0.5 * item.tol, item.depth + 1,
                                       false});
      ++intervals_created;
      probe.count_flops(4);
    }
  }
  probe.loop_trip(detail::kAdaptiveLoopSite, trips);
  return out;
}

}  // namespace bd::quad
