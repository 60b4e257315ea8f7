#pragma once
/// \file simpson.hpp
/// Simpson quadrature rule with a Richardson error estimate — the
/// RP-QUADRULE of the paper (Listing 1): estimates the rp-integral along
/// one outer subregion, evaluating the inner integral at 5 radii.
///
/// Both evaluation-engine entry points below share one arithmetic core
/// (`simpson_combine`), so the shared-sample partition sweep (kernel 1)
/// and the 2-point memoized refinement (the adaptive fallback) produce
/// bit-identical estimates for the same interval; they differ only in how
/// many integrand evaluations they pay.

#include <cstddef>
#include <cstdint>
#include <span>

#include "quad/integrand.hpp"
#include "quad/rule.hpp"
#include "simt/probe.hpp"

namespace bd::quad {

/// The five samples of one Simpson interval [a, b] with m = (a+b)/2:
/// fa = f(a), fl = f((a+m)/2), fm = f(m), fr = f((m+b)/2), fb = f(b).
struct SimpsonSamples {
  double fa = 0.0;
  double fl = 0.0;
  double fm = 0.0;
  double fr = 0.0;
  double fb = 0.0;
};

/// Richardson-extrapolated Simpson estimate from already-known samples:
/// compares S(a,b) against S(a,m) + S(m,b), uses the standard
/// |S2 - S1| / 15 error bound and returns the extrapolated value as the
/// integral. Costs 0 integrand evaluations (18 flops). The sweep and the
/// memoized refinement are thin wrappers over this, which is what
/// guarantees their bit-identity.
QuadEstimate simpson_combine(double a, double b, const SimpsonSamples& s,
                             simt::LaneProbe& probe);

/// Simpson estimate over [a, b] with the three coarse samples
/// fa = f(a), fm = f((a+b)/2), fb = f(b) already known (the memoized
/// adaptive refinement path): evaluates only the two fine points fl, fr,
/// as one eval_batch block in that order. Costs 2 integrand evaluations;
/// the full sample set is written to `out` so the caller can seed further
/// bisections.
QuadEstimate simpson_estimate_memo(const RadialIntegrand& f, double a,
                                   double b, double fa, double fm, double fb,
                                   simt::LaneProbe& probe,
                                   SimpsonSamples& out);

/// Shared-sample sweep over a whole partition: produces the same estimate
/// for every interval [p[i], p[i+1]] as a naive per-interval 5-point
/// Simpson estimate, but carries f(b_i) into interval i+1, so a
/// partition of n intervals costs 4·n+1 integrand evaluations instead of
/// 5·n. Bit-identical to the naive loop: the integrand is pure and every
/// sample-point expression is unchanged. The first sample f(p[0]) is a
/// one-wide eval_batch call; the four fresh samples per interval are one
/// eval_batch block in the order fm, fb, fl, fr. `visit(i, a, b, est,
/// samples)` is called once per interval, in order. Returns total
/// evaluations.
template <typename Visit>
std::uint64_t simpson_sweep(const RadialIntegrand& f,
                            std::span<const double> partition,
                            simt::LaneProbe& probe, Visit&& visit) {
  if (partition.size() < 2) return 0;
  SimpsonSamples s;
  f.eval_batch(&partition[0], &s.fa, 1, probe);
  std::uint64_t evaluations = 1;
  for (std::size_t i = 0; i + 1 < partition.size(); ++i) {
    const double a = partition[i];
    const double b = partition[i + 1];
    const double m = 0.5 * (a + b);
    const double r[4] = {m, b, 0.5 * (a + m), 0.5 * (m + b)};
    double fv[4];
    f.eval_batch(r, fv, 4, probe);
    s.fm = fv[0];
    s.fb = fv[1];
    s.fl = fv[2];
    s.fr = fv[3];
    evaluations += 4;
    const QuadEstimate est = simpson_combine(a, b, s, probe);
    visit(i, a, b, est, s);
    s.fa = s.fb;  // the shared sample: f(b_i) == f(a_{i+1})
  }
  return evaluations;
}

}  // namespace bd::quad
