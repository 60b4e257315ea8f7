#include "baselines/heuristic.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "core/forecast.hpp"
#include "core/rp_kernels.hpp"
#include "core/solver_scratch.hpp"
#include "quad/partition.hpp"
#include "util/check.hpp"
#include "util/serialize.hpp"
#include "util/telemetry.hpp"
#include "util/timer.hpp"

namespace bd::baselines {

namespace telemetry = bd::util::telemetry;

namespace {
/// Threads per block.
constexpr std::uint32_t kBlockSize = 128;
/// point_run sentinel: this point has no failed intervals this step.
constexpr std::uint32_t kNoRun = 0xffffffffu;
}  // namespace

void HeuristicSolver::save_state(util::BinaryWriter& out) const {
  quad::write_partition_set_nested(out, previous_partitions_);
}

void HeuristicSolver::load_state(util::BinaryReader& in) {
  quad::read_partition_set_nested(in, previous_partitions_);
}

core::SolveResult HeuristicSolver::solve(const core::RpProblem& problem) {
  util::WallTimer wall;
  core::SolverScratch& scratch = scratch_for(problem);
  const std::size_t num_points = problem.num_points();
  const bool bootstrap = previous_partitions_.entries() != num_points;

  telemetry::TraceSession& session = telemetry::current_trace();

  // Heuristic 1: start from last step's partitions. The carried
  // PartitionSet is the kernel's input directly — no per-step copy.
  util::WallTimer forecast_timer;
  const double reuse_start = session.enabled() ? session.now_us() : 0.0;
  if (bootstrap) {
    const auto ones = scratch.acquire_fill(scratch.ones,
                                           problem.num_subregions, 1.0);
    previous_partitions_.reset(num_points);
    const auto slot = scratch.acquire(
        scratch.merge_a,
        core::pattern_to_partition_bound(ones, /*headroom=*/1.0));
    const std::size_t len = core::pattern_to_partition_into(
        ones, problem.sub_width, problem.r_max(), slot, /*headroom=*/1.0);
    previous_partitions_.bind_all(
        previous_partitions_.add_row(slot.first(len)));
  }
  const double forecast_seconds = forecast_timer.seconds();
  if (session.enabled()) {
    session.record_complete("heuristic.partition_reuse", "baselines",
                            reuse_start, session.now_us() - reuse_start, "");
  }

  // Heuristic 2: coarse workload buckets (log2 of the partition size),
  // row-major within each bucket.
  util::WallTimer cluster_timer;
  const double sort_start = session.enabled() ? session.now_us() : 0.0;
  core::ClusterAssignment blocks;
  if (bootstrap) {
    blocks = core::chunk_clustering(num_points, kBlockSize);
  } else {
    std::vector<std::uint32_t> order(num_points);
    std::iota(order.begin(), order.end(), 0u);
    std::vector<std::uint32_t> bucket(num_points);
    for (std::size_t p = 0; p < num_points; ++p) {
      const double w =
          static_cast<double>(previous_partitions_.at(p).size());
      bucket[p] = static_cast<std::uint32_t>(std::lround(std::log2(w)));
    }
    std::stable_sort(order.begin(), order.end(),
                     [&](std::uint32_t a, std::uint32_t b) {
                       return bucket[a] > bucket[b];
                     });
    blocks = core::ordered_clustering(order, kBlockSize);
  }
  const double clustering_seconds = cluster_timer.seconds();
  if (session.enabled()) {
    session.record_complete("heuristic.bucket_sort", "baselines", sort_start,
                            session.now_us() - sort_start, "");
  }

  core::RpKernelInput input;
  input.problem = &problem;
  input.clusters = &blocks;
  input.partitions = &previous_partitions_;

  core::RpKernelOutput kernel1 =
      core::run_compute_rp_integral(device_, input, scratch);

  // The fallback does not touch the kernel's failure list, so the span
  // stays valid for the refinement fold below.
  const std::span<const core::FailedInterval> failed = kernel1.failed;
  const core::FallbackOutput kernel2 = core::run_adaptive_fallback(
      device_, problem, kernel1.failed, kernel1.integral, kernel1.error,
      kernel1.contributions, scratch);

  // Update stored partitions: refinement only (no coarsening) — the
  // partition a point keeps is what it used, subdivided wherever the
  // tolerance was missed, into as many pieces as the fallback's adaptive
  // pass actually generated there. A point's failed intervals form one
  // contiguous run of `failed` (one lane per point, the lanes of a warp
  // run serially, and the per-warp lists are concatenated in lane order),
  // so a single scan finds each point's run start and the fold below
  // merges a point's refined items into its partition in item order.
  quad::PartitionSet& next = scratch.merged;
  next.reset(num_points);
  const auto run_of = scratch.acquire_fill(scratch.point_run, num_points,
                                           kNoRun);
  for (std::size_t i = 0; i < failed.size(); ++i) {
    if (i == 0 || failed[i].point != failed[i - 1].point) {
      // A second run of the same point would overwrite the first and drop
      // its refinement.
      BD_DCHECK(run_of[failed[i].point] == kNoRun);
      run_of[failed[i].point] = static_cast<std::uint32_t>(i);
    }
  }
  // Pre-size: the fold appends at most the previous per-point breaks plus
  // one refined partition per failed item (one reserve instead of a
  // doubling cascade of add_row growths when refinement sets a record).
  std::size_t bound = 0;
  for (std::size_t p = 0; p < num_points; ++p) {
    bound += previous_partitions_.at(p).size();
  }
  std::uint32_t max_pieces = 2;
  for (std::size_t i = 0; i < failed.size(); ++i) {
    const std::uint32_t pieces =
        std::max<std::uint32_t>(2, kernel2.intervals_per_item[i]);
    bound += pieces + 1;
    max_pieces = std::max(max_pieces, pieces);
  }
  next.reserve_breaks(bound);
  const auto refined_slot =
      scratch.acquire(scratch.refined, std::size_t{max_pieces} + 1);
  for (std::size_t p = 0; p < num_points; ++p) {
    if (run_of[p] == kNoRun) {
      next.bind(p, next.add_row(previous_partitions_.at(p)));
      continue;
    }
    std::span<const double> acc = previous_partitions_.at(p);
    std::vector<double>* front = &scratch.merge_a;
    std::vector<double>* spare = &scratch.merge_b;
    for (std::size_t i = run_of[p];
         i < failed.size() && failed[i].point == p; ++i) {
      const core::FailedInterval& item = failed[i];
      const std::uint32_t pieces =
          std::max<std::uint32_t>(2, kernel2.intervals_per_item[i]);
      const auto refined = refined_slot.first(std::size_t{pieces} + 1);
      for (std::uint32_t piece = 0; piece <= pieces; ++piece) {
        refined[piece] =
            item.a + (item.b - item.a) * static_cast<double>(piece) / pieces;
      }
      quad::merge_partitions_into(acc, refined, *front);
      acc = *front;
      std::swap(front, spare);
    }
    next.bind(p, next.add_row(acc));
  }
  std::swap(previous_partitions_, next);
  scratch.absorb(previous_partitions_);

  simt::KernelMetrics metrics = kernel1.metrics;
  metrics += kernel2.metrics;
  scratch.flush_metrics();

  core::SolveResult result = core::detail::make_result(
      problem, std::move(kernel1.integral), std::move(kernel1.error),
      std::move(kernel1.contributions), std::move(metrics));
  result.fallback_items = failed.size();
  result.kernel_intervals = kernel1.intervals;
  result.clustering_seconds = clustering_seconds;
  result.forecast_seconds = forecast_seconds;
  result.wall_seconds = wall.seconds();
  return result;
}

}  // namespace bd::baselines
