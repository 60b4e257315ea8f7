#include "baselines/two_phase.hpp"

#include "core/forecast.hpp"
#include "core/rp_kernels.hpp"
#include "core/solver_scratch.hpp"
#include "util/timer.hpp"

namespace bd::baselines {

namespace {
/// Threads per block in phase 1 (row-major chunks of the grid points).
constexpr std::uint32_t kBlockSize = 128;
}  // namespace

core::SolveResult TwoPhaseSolver::solve(const core::RpProblem& problem) {
  util::WallTimer wall;
  core::SolverScratch& scratch = scratch_for(problem);

  // Phase 1: fixed first-level partition — one interval per subregion,
  // identical for every grid point (a single row aliased by every entry).
  const auto ones = scratch.acquire_fill(scratch.ones,
                                         problem.num_subregions, 1.0);
  quad::PartitionSet& parts = scratch.point_partitions;
  parts.reset(problem.num_points());
  const auto slot = scratch.acquire(
      scratch.merge_a,
      core::pattern_to_partition_bound(ones, /*headroom=*/1.0));
  const std::size_t len = core::pattern_to_partition_into(
      ones, problem.sub_width, problem.r_max(), slot, /*headroom=*/1.0);
  parts.bind_all(parts.add_row(slot.first(len)));

  const core::ClusterAssignment blocks =
      core::chunk_clustering(problem.num_points(), kBlockSize);

  core::RpKernelInput input;
  input.problem = &problem;
  input.clusters = &blocks;
  input.partitions = &parts;

  core::RpKernelOutput phase1 =
      core::run_compute_rp_integral(device_, input, scratch);

  // Phase 2: globally adaptive pass over every non-converged interval.
  const core::FallbackOutput phase2 = core::run_adaptive_fallback(
      device_, problem, phase1.failed, phase1.integral, phase1.error,
      phase1.contributions, scratch);

  simt::KernelMetrics metrics = phase1.metrics;
  metrics += phase2.metrics;
  scratch.flush_metrics();

  core::SolveResult result = core::detail::make_result(
      problem, std::move(phase1.integral), std::move(phase1.error),
      std::move(phase1.contributions), std::move(metrics));
  result.fallback_items = phase1.failed.size();
  result.kernel_intervals = phase1.intervals;
  result.wall_seconds = wall.seconds();
  return result;
}

}  // namespace bd::baselines
