/// Tests for COMPUTE-RP-INTEGRAL and the RP-ADAPTIVEQUADRATURE fallback.

#include <gtest/gtest.h>

#include <cmath>

#include "core/forecast.hpp"
#include "core/rp_kernels.hpp"
#include "core/solver_scratch.hpp"
#include "quad_oracle.hpp"
#include "simt/device.hpp"
#include "test_helpers.hpp"
#include "util/check.hpp"
#include "util/parallel.hpp"

namespace bd::core {
namespace {

using bd::testing::ProblemFixture;
using bd::testing::uniform_partition;

/// Shared scratch: kernel outputs (failed spans, intervals_per_item) point
/// into it, so it must outlive each test's assertions.
SolverScratch& test_scratch() {
  static SolverScratch scratch;
  return scratch;
}

RpKernelOutput run_with_uniform_counts(const ProblemFixture& fixture,
                                       double count,
                                       std::uint32_t block = 64) {
  const RpProblem& problem = fixture.problem;
  const std::vector<double> partition = uniform_partition(
      std::vector<double>(problem.num_subregions, count), problem.sub_width,
      problem.r_max(), 1.0);
  static quad::PartitionSet parts;    // keep alive across return
  static ClusterAssignment clusters;  // keep alive across return
  parts.reset(problem.num_points());
  parts.bind_all(parts.add_row(partition));
  clusters = chunk_clustering(problem.num_points(), block);
  RpKernelInput input;
  input.problem = &problem;
  input.clusters = &clusters;
  input.partitions = &parts;
  return run_compute_rp_integral(simt::tesla_k40(), input, test_scratch());
}

TEST(RpKernel, CoarsePartitionProducesFailures) {
  const ProblemFixture fixture(16, 1e-7);
  const RpKernelOutput out = run_with_uniform_counts(fixture, 1.0);
  EXPECT_GT(out.failed.size(), 0u);
  EXPECT_EQ(out.integral.size(), fixture.problem.num_points());
  EXPECT_EQ(out.intervals,
            fixture.problem.num_points() * fixture.problem.num_subregions);
}

TEST(RpKernel, FinePartitionMostlyPasses) {
  const ProblemFixture fixture(16, 1e-6);
  const RpKernelOutput coarse = run_with_uniform_counts(fixture, 1.0);
  const RpKernelOutput fine = run_with_uniform_counts(fixture, 16.0);
  EXPECT_LT(fine.failed.size(), coarse.failed.size() / 2 + 1);
}

TEST(RpKernel, FailedListInLaneOrderAtAnyThreadCount) {
  // Kernel 1 keeps a failure list per warp, and any two warps may run at
  // once. Concatenated in (block, warp) order the lists are lane order:
  // each cluster's failed points in member order, block by block, the
  // same list at any pool width. Scrambled members, three warps a block.
  const ProblemFixture fixture(16, 1e-7);
  const RpProblem& problem = fixture.problem;
  std::vector<std::uint32_t> order(problem.num_points());
  std::vector<std::size_t> rank(problem.num_points());
  for (std::size_t i = 0; i < order.size(); ++i) {
    order[i] = static_cast<std::uint32_t>((i * 97) % order.size());
    rank[order[i]] = i;
  }
  const ClusterAssignment clusters = ordered_clustering(order, 96);
  ASSERT_GT(clusters.members.size(), 2u);
  quad::PartitionSet parts;
  parts.reset(problem.num_points());
  parts.bind_all(parts.add_row(uniform_partition(
      std::vector<double>(problem.num_subregions, 1.0), problem.sub_width,
      problem.r_max(), 1.0)));
  RpKernelInput input;
  input.problem = &problem;
  input.clusters = &clusters;
  input.partitions = &parts;

  std::vector<std::vector<FailedInterval>> runs;
  for (unsigned threads : {1u, 8u}) {
    util::ThreadPool::set_global_threads(threads);
    const RpKernelOutput out =
        run_compute_rp_integral(simt::tesla_k40(), input, test_scratch());
    runs.emplace_back(out.failed.begin(), out.failed.end());
  }
  util::ThreadPool::set_global_threads(0);

  const std::vector<FailedInterval>& serial = runs[0];
  const std::vector<FailedInterval>& pooled = runs[1];
  ASSERT_GT(serial.size(), problem.num_points());
  ASSERT_EQ(pooled.size(), serial.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    SCOPED_TRACE(::testing::Message() << "item " << i);
    EXPECT_EQ(pooled[i].point, serial[i].point);
    EXPECT_EQ(pooled[i].a, serial[i].a);
    EXPECT_EQ(pooled[i].b, serial[i].b);
    EXPECT_EQ(pooled[i].samples.fm, serial[i].samples.fm);
    if (i > 0) {
      EXPECT_LE(rank[serial[i - 1].point], rank[serial[i].point]);
      if (serial[i - 1].point == serial[i].point) {
        EXPECT_LT(serial[i - 1].a, serial[i].a);
      }
    }
  }
}

TEST(RpKernel, FallbackRestoresTolerance) {
  const ProblemFixture fixture(16, 1e-6);
  RpKernelOutput out = run_with_uniform_counts(fixture, 1.0);
  const FallbackOutput fb = run_adaptive_fallback(
      simt::tesla_k40(), fixture.problem, out.failed, out.integral, out.error,
      out.contributions, test_scratch());
  EXPECT_EQ(fb.non_converged, 0u);
  // Compare against the analytic continuum force at a few interior nodes.
  const beam::GridSpec& spec = fixture.spec;
  for (std::uint32_t iy : {spec.ny / 2}) {
    for (std::uint32_t ix : {spec.nx / 2, spec.nx / 2 + 2}) {
      const std::size_t p = static_cast<std::size_t>(iy) * spec.nx + ix;
      const double exact = fixture.exact(ix, iy);
      // Quadrature hits τ; remaining gap is interpolation bias.
      EXPECT_NEAR(out.integral[p], exact,
                  std::max(0.12 * std::abs(exact), 4e-4));
    }
  }
}

TEST(RpKernel, SharedPartitionUniformControlFlowWhenLanesAligned) {
  // With a shared partition AND warps whose lanes share the same s (and
  // hence the same in-range status), control flow is lockstep. Warps that
  // span the full s-range instead diverge on the range check — the
  // irregularity pattern clustering exists to remove.
  const ProblemFixture fixture(32, 1e-5);
  const RpProblem& problem = fixture.problem;
  const std::vector<double> shared_partition = uniform_partition(
      std::vector<double>(problem.num_subregions, 8.0), problem.sub_width,
      problem.r_max(), 1.0);

  // Column-major ordering: a warp = 32 points with identical s.
  const beam::GridSpec& spec = fixture.spec;
  std::vector<std::uint32_t> column_major;
  for (std::uint32_t ix = 0; ix < spec.nx; ++ix) {
    for (std::uint32_t iy = 0; iy < spec.ny; ++iy) {
      column_major.push_back(iy * spec.nx + ix);
    }
  }
  const ClusterAssignment aligned = ordered_clustering(column_major, 64);
  const ClusterAssignment row_major =
      chunk_clustering(problem.num_points(), 64);

  // One partition row bound to every point.
  quad::PartitionSet shared;
  shared.reset(problem.num_points());
  shared.bind_all(shared.add_row(shared_partition));
  auto run = [&](const ClusterAssignment& clusters) {
    RpKernelInput input;
    input.problem = &problem;
    input.clusters = &clusters;
    input.partitions = &shared;
    return run_compute_rp_integral(simt::tesla_k40(), input, test_scratch());
  };
  const RpKernelOutput good = run(aligned);
  const RpKernelOutput bad = run(row_major);
  EXPECT_GT(good.metrics.warp_execution_efficiency(), 0.8);
  EXPECT_LT(bad.metrics.warp_execution_efficiency(),
            good.metrics.warp_execution_efficiency() - 0.15);
}

TEST(RpKernel, PerPointDivergenceLowersWarpEfficiency) {
  const ProblemFixture fixture(16, 1e-5);
  const RpProblem& problem = fixture.problem;
  // Give each point a workload depending on its index parity: adjacent
  // lanes differ strongly -> heavy divergence.
  quad::PartitionSet per_point;
  per_point.reset(problem.num_points());
  for (std::size_t p = 0; p < problem.num_points(); ++p) {
    const double count = (p % 2 == 0) ? 1.0 : 16.0;
    per_point.bind(p, per_point.add_row(uniform_partition(
                          std::vector<double>(problem.num_subregions, count),
                          problem.sub_width, problem.r_max(), 1.0)));
  }
  const ClusterAssignment clusters =
      chunk_clustering(problem.num_points(), 64);
  RpKernelInput input;
  input.problem = &problem;
  input.clusters = &clusters;
  input.partitions = &per_point;
  const RpKernelOutput out =
      run_compute_rp_integral(simt::tesla_k40(), input, test_scratch());
  EXPECT_LT(out.metrics.warp_execution_efficiency(), 0.75);
}

TEST(RpKernel, ContributionsReflectRequirement) {
  // Over-provisioned partitions report shrunken (coarsening) counts.
  const ProblemFixture fixture(16, 1e-4);
  const RpKernelOutput out = run_with_uniform_counts(fixture, 32.0);
  EXPECT_TRUE(out.failed.empty());
  double total = 0.0;
  for (double v : out.contributions.flat()) total += v;
  // Requirement is far below 32/subregion: contributions << provisioned.
  EXPECT_LT(total, 0.6 * static_cast<double>(out.intervals));
}

TEST(RpKernel, FallbackEmptyIsNoOp) {
  const ProblemFixture fixture(16, 1e-4);
  std::vector<double> integral(fixture.problem.num_points(), 0.0);
  std::vector<double> error(fixture.problem.num_points(), 0.0);
  PatternField contributions(fixture.problem.num_points(),
                             fixture.problem.num_subregions);
  const FallbackOutput fb =
      run_adaptive_fallback(simt::tesla_k40(), fixture.problem, {}, integral,
                            error, contributions, test_scratch());
  EXPECT_EQ(fb.evaluations, 0u);
  EXPECT_EQ(fb.metrics.flops, 0u);
}

TEST(RpKernel, LocalToleranceScalesWithWidth) {
  const ProblemFixture fixture(16, 1e-6);
  const double full =
      local_tolerance(fixture.problem, 0.0, fixture.problem.r_max());
  EXPECT_DOUBLE_EQ(full, 1e-6);
  EXPECT_DOUBLE_EQ(local_tolerance(fixture.problem, 0.0, 6.0), 5e-7);
}

TEST(RpKernel, InputValidation) {
  const ProblemFixture fixture(16, 1e-6);
  RpKernelInput input;
  input.problem = &fixture.problem;
  EXPECT_THROW(
      run_compute_rp_integral(simt::tesla_k40(), input, test_scratch()),
      bd::CheckError);
}

}  // namespace
}  // namespace bd::core
