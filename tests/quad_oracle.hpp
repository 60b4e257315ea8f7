#pragma once
/// Reference code for the quadrature and partition tests, built on the
/// routines the solvers run: the naive 5-point Simpson estimate the
/// shared-sample sweep is checked against, the standalone adaptive driver
/// (five root evaluations, then quad::adaptive_simpson_seeded), the
/// per-subregion interval count, and helpers that run each shipped
/// COMPUTE-PARTITION *_bound / *_into pair and MERGE-LISTS into a vector.

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "core/forecast.hpp"
#include "quad/adaptive.hpp"
#include "quad/integrand.hpp"
#include "quad/partition.hpp"
#include "quad/rule.hpp"
#include "quad/simpson.hpp"
#include "simt/probe.hpp"
#include "util/check.hpp"

namespace bd::testing {

/// f(r) as a one-wide eval_batch call.
inline double eval_at(const quad::RadialIntegrand& f, double r,
                      simt::LaneProbe& probe) {
  double out;
  f.eval_batch(&r, &out, 1, probe);
  return out;
}

/// Simpson estimate over [a, b] from five one-sample evaluations (fa, fm,
/// fb, fl, fr), combined by quad::simpson_combine. Costs 5 evaluations.
inline quad::QuadEstimate simpson_estimate(const quad::RadialIntegrand& f,
                                           double a, double b,
                                           simt::LaneProbe& probe) {
  const double m = 0.5 * (a + b);
  quad::SimpsonSamples s;
  s.fa = eval_at(f, a, probe);
  s.fm = eval_at(f, m, probe);
  s.fb = eval_at(f, b, probe);
  s.fl = eval_at(f, 0.5 * (a + m), probe);
  s.fr = eval_at(f, 0.5 * (m + b), probe);
  quad::QuadEstimate est = quad::simpson_combine(a, b, s, probe);
  est.evaluations = 5;
  return est;
}

/// Result of adaptive integration over one interval.
struct AdaptiveResult {
  double integral = 0.0;
  double error = 0.0;               ///< accumulated error estimate
  std::uint64_t evaluations = 0;    ///< integrand evaluations
  std::uint64_t evaluations_saved = 0;  ///< evals avoided by memoization
  bool converged = true;            ///< false if a budget/depth limit hit
  std::vector<double> breakpoints;  ///< sorted partition incl. both endpoints
};

/// Adaptively integrate `f` over [a, b] to absolute tolerance `tol`: pays
/// for the root's five samples, then runs the seeded driver the fallback
/// kernel runs and collects the accepted leaves as a partition. The root
/// books no saved evaluations, since it was paid for here.
inline AdaptiveResult adaptive_simpson(const quad::RadialIntegrand& f,
                                       double a, double b, double tol,
                                       simt::LaneProbe& probe,
                                       const quad::AdaptiveOptions& options =
                                           {}) {
  BD_CHECK_MSG(tol > 0.0, "tolerance must be positive");
  AdaptiveResult result;
  if (a == b) {
    result.breakpoints = {a, b};
    return result;
  }
  BD_CHECK_MSG(a < b, "interval must be ordered");

  const double m = 0.5 * (a + b);
  quad::SimpsonSamples root;
  root.fa = eval_at(f, a, probe);
  root.fm = eval_at(f, m, probe);
  root.fb = eval_at(f, b, probe);
  root.fl = eval_at(f, 0.5 * (a + m), probe);
  root.fr = eval_at(f, 0.5 * (m + b), probe);

  std::vector<quad::AdaptiveWorkItem> stack;
  std::vector<double> interior;  // accepted breakpoints (excluding a, b)
  const quad::AdaptiveOutcome out = quad::adaptive_simpson_seeded(
      f, a, b, tol, root, probe, options, stack,
      [&](const quad::AdaptiveWorkItem& item, const quad::QuadEstimate&) {
        if (item.a != a) interior.push_back(item.a);
      });

  result.integral = out.integral;
  result.error = out.error;
  result.evaluations = 5 + out.evaluations;
  result.evaluations_saved = out.evaluations_saved;
  result.converged = out.converged;

  std::sort(interior.begin(), interior.end());
  result.breakpoints.reserve(interior.size() + 2);
  result.breakpoints.push_back(a);
  for (double x : interior) result.breakpoints.push_back(x);
  result.breakpoints.push_back(b);
  return result;
}

/// Count partition intervals per subregion (width `sub_width`), each
/// attributed by quad::subregion_of.
inline std::vector<std::uint32_t> count_per_subregion(
    const std::vector<double>& breakpoints, double sub_width,
    std::uint32_t num_subregions) {
  BD_CHECK(sub_width > 0.0);
  std::vector<std::uint32_t> counts(num_subregions, 0);
  if (breakpoints.size() < 2 || num_subregions == 0) return counts;
  for (std::size_t i = 0; i + 1 < breakpoints.size(); ++i) {
    ++counts[quad::subregion_of(breakpoints[i], breakpoints[i + 1],
                                sub_width, num_subregions)];
  }
  return counts;
}

/// Run one *_bound / *_into pair: fill a slot of twice the bound and
/// return the breakpoints written. An *_into that writes past its bound
/// (the slot a PartitionSet row would have had) throws CheckError.
template <typename Into>
std::vector<double> run_into(std::size_t bound, Into&& into) {
  std::vector<double> slot(2 * bound);
  const std::size_t len = into(std::span<double>(slot));
  BD_CHECK_MSG(len <= bound,
               "*_into wrote " << len << " breakpoints, bound " << bound);
  slot.resize(len);
  return slot;
}

/// The uniform COMPUTE-PARTITION transform as a vector.
inline std::vector<double> uniform_partition(
    std::span<const double> pattern, double sub_width, double r_max,
    double headroom = core::kPartitionHeadroom) {
  return run_into(core::pattern_to_partition_bound(pattern, headroom),
                  [&](std::span<double> slot) {
                    return core::pattern_to_partition_into(
                        pattern, sub_width, r_max, slot, headroom);
                  });
}

/// The adaptive COMPUTE-PARTITION transform as a vector.
inline std::vector<double> adaptive_partition(
    std::span<const double> pattern, std::span<const double> previous,
    double sub_width, double r_max,
    double headroom = core::kPartitionHeadroom) {
  return run_into(core::pattern_to_partition_adaptive_bound(
                      pattern, previous, sub_width, r_max, headroom),
                  [&](std::span<double> slot) {
                    return core::pattern_to_partition_adaptive_into(
                        pattern, previous, sub_width, r_max, slot, headroom);
                  });
}

/// MERGE-LISTS of two partitions as a new vector.
inline std::vector<double> merge_lists(std::span<const double> a,
                                       std::span<const double> b,
                                       double eps = 1e-12) {
  std::vector<double> out;
  quad::merge_partitions_into(a, b, out, eps);
  return out;
}

}  // namespace bd::testing
