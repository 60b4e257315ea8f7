#pragma once
/// \file rp_kernels.hpp
/// The two modeled-GPU kernels every rp-solver is built from:
///
///  * COMPUTE-RP-INTEGRAL (paper Listing 1): one thread per grid point of
///    its block's cluster; evaluates Simpson estimates over the partition
///    bound to its point (a merged list shared by its warp, or one row
///    bound to every point), accumulates passing intervals and emits
///    failing ones. Intervals are walked with the shared-sample sweep
///    (4·n+1 evaluations per partition instead of 5·n), and a failing
///    interval carries its five samples out so the fallback can refine it
///    without re-evaluating them.
///
///  * RP-ADAPTIVEQUADRATURE (paper Algorithm 1, lines 18–24): one thread
///    per point-contiguous *group* of failed intervals running memoized
///    adaptive Simpson — the divergent fallback that guarantees the
///    tolerance regardless of prediction quality. One integrand per group
///    (not per item), each root seeded with the samples kernel 1 already
///    paid for, each bisection costing 2 new evaluations instead of 5.
///
/// Both kernels stage their intermediate state in the caller's
/// SolverScratch, so the steady-state solve path performs no heap
/// allocation.

#include <cstdint>
#include <span>
#include <vector>

#include "core/clustering.hpp"
#include "core/problem.hpp"
#include "quad/partition_set.hpp"
#include "quad/simpson.hpp"
#include "simt/device.hpp"

namespace bd::core {

struct SolverScratch;

/// An interval whose Simpson error exceeded the local tolerance, together
/// with the five samples kernel 1 evaluated on it (the fallback seeds its
/// adaptive root with them — five free evaluations per item).
struct FailedInterval {
  std::uint32_t point;
  double a;
  double b;
  quad::SimpsonSamples samples;
};

/// Inputs of COMPUTE-RP-INTEGRAL. `partitions` is indexed by grid point;
/// points that share a partition are bound to the same row.
struct RpKernelInput {
  const RpProblem* problem = nullptr;
  const ClusterAssignment* clusters = nullptr;
  const quad::PartitionSet* partitions = nullptr;
};

/// Outputs of COMPUTE-RP-INTEGRAL.
struct RpKernelOutput {
  std::vector<double> integral;   ///< per grid point (passing intervals)
  std::vector<double> error;      ///< per grid point
  PatternField contributions;     ///< fractional per-subregion counts
  /// Intervals for the fallback pass. Points into the SolverScratch the
  /// kernel was given — valid until its next kernel-1 launch.
  std::span<const FailedInterval> failed;
  simt::KernelMetrics metrics;
  std::uint64_t intervals = 0;    ///< intervals evaluated
  std::uint64_t evaluations = 0;  ///< integrand evaluations paid
  std::uint64_t evaluations_saved = 0;  ///< evals avoided by the sweep
};

/// Run COMPUTE-RP-INTEGRAL under the SIMT model.
RpKernelOutput run_compute_rp_integral(const simt::DeviceSpec& device,
                                       const RpKernelInput& input,
                                       SolverScratch& scratch);

/// Outputs of the fallback pass (integral/error/contributions are updated
/// in place on the arrays produced by kernel 1).
struct FallbackOutput {
  simt::KernelMetrics metrics;
  std::uint64_t evaluations = 0;
  std::uint64_t evaluations_saved = 0;  ///< seeded roots + memoized children
  std::uint64_t non_converged = 0;  ///< items that hit the depth budget
  std::uint64_t integrand_cache_hits = 0;  ///< items served by a group's
                                           ///< already-built integrand
  /// Final adaptive interval count per failed item (same order as the
  /// input span) — what "fine enough" turned out to mean there. Points
  /// into the SolverScratch — valid until its next fallback launch.
  std::span<const std::uint32_t> intervals_per_item;
};

/// Run RP-ADAPTIVEQUADRATURE over the failed intervals.
FallbackOutput run_adaptive_fallback(const simt::DeviceSpec& device,
                                     const RpProblem& problem,
                                     std::span<const FailedInterval> failed,
                                     std::vector<double>& integral,
                                     std::vector<double>& error,
                                     PatternField& contributions,
                                     SolverScratch& scratch);

/// Local tolerance for an interval: τ scaled by its share of the domain.
inline double local_tolerance(const RpProblem& problem, double a, double b) {
  return problem.tolerance * (b - a) / problem.r_max();
}

}  // namespace bd::core
