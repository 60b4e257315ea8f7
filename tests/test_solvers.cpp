/// Integration tests for the three rp-solvers: correctness equivalence,
/// statefulness, and the performance-metric ordering the paper reports.

#include <gtest/gtest.h>

#include <cmath>

#include "baselines/heuristic.hpp"
#include "baselines/two_phase.hpp"
#include "core/predictive.hpp"
#include "test_helpers.hpp"
#include "util/stats.hpp"
#include "util/telemetry.hpp"

namespace bd::core {
namespace {

using bd::testing::ProblemFixture;

/// Run `steps` solves of the (stationary) fixture problem, returning the
/// last result.
SolveResult run_steps(RpSolver& solver, ProblemFixture& fixture, int steps) {
  SolveResult last;
  for (int k = 0; k < steps; ++k) {
    if (k > 0) fixture.advance();
    last = solver.solve(fixture.problem);
  }
  return last;
}

class SolverKind : public ::testing::TestWithParam<const char*> {
 protected:
  std::unique_ptr<RpSolver> make() const {
    const std::string kind = GetParam();
    if (kind == "two-phase") {
      return std::make_unique<baselines::TwoPhaseSolver>(simt::tesla_k40());
    }
    if (kind == "heuristic") {
      return std::make_unique<baselines::HeuristicSolver>(simt::tesla_k40());
    }
    return std::make_unique<PredictiveSolver>(simt::tesla_k40());
  }
};

TEST_P(SolverKind, MatchesAnalyticContinuumForce) {
  ProblemFixture fixture(24, 1e-6);
  auto solver = make();
  const SolveResult result = run_steps(*solver, fixture, 3);
  // Interior nodes: compare against the analytic continuum reference.
  const beam::GridSpec& spec = fixture.spec;
  for (std::uint32_t iy : {spec.ny / 2, spec.ny / 2 + 3}) {
    for (std::uint32_t ix : {spec.nx / 4, spec.nx / 2, 3 * spec.nx / 4}) {
      const double exact = fixture.exact(ix, iy);
      EXPECT_NEAR(result.values.at(ix, iy), exact,
                  std::max(6e-2 * std::abs(exact), 3e-4))
          << GetParam() << " at (" << ix << "," << iy << ")";
    }
  }
}

TEST_P(SolverKind, ErrorEstimateWithinTolerance) {
  ProblemFixture fixture(16, 1e-6);
  auto solver = make();
  const SolveResult result = run_steps(*solver, fixture, 2);
  // Per-point accumulated error estimates stay near τ (each interval is
  // held to a width-proportional share).
  for (double err : result.errors.data()) {
    EXPECT_LE(err, 4e-6);
  }
}

TEST_P(SolverKind, SolversAgreeWithEachOther) {
  ProblemFixture f1(16, 1e-6), f2(16, 1e-6);
  baselines::TwoPhaseSolver reference(simt::tesla_k40());
  auto solver = make();
  const SolveResult a = run_steps(reference, f1, 1);
  const SolveResult b = run_steps(*solver, f2, 3);
  double worst = 0.0;
  for (std::uint32_t iy = 2; iy < 14; ++iy) {
    for (std::uint32_t ix = 2; ix < 14; ++ix) {
      worst = std::max(worst,
                       std::abs(a.values.at(ix, iy) - b.values.at(ix, iy)));
    }
  }
  EXPECT_LT(worst, 5e-5);
}

TEST_P(SolverKind, ObservedPatternsPopulated) {
  ProblemFixture fixture(16, 1e-6);
  auto solver = make();
  const SolveResult result = run_steps(*solver, fixture, 2);
  EXPECT_EQ(result.observed.points(), fixture.problem.num_points());
  double total = 0.0;
  for (double v : result.observed.flat()) {
    EXPECT_GE(v, 0.0);
    total += v;
  }
  EXPECT_GT(total, 0.0);
}

TEST_P(SolverKind, ResetClearsState) {
  ProblemFixture fixture(16, 1e-6);
  auto solver = make();
  const SolveResult before = run_steps(*solver, fixture, 3);
  solver->reset();
  fixture.advance();
  const SolveResult after = solver->solve(fixture.problem);
  // After reset the solver is back in bootstrap: same coarse interval
  // count as a fresh two-phase step.
  EXPECT_EQ(after.kernel_intervals,
            fixture.problem.num_points() * fixture.problem.num_subregions);
  (void)before;
}

TEST_P(SolverKind, KernelMetricsIdentitiesHold) {
  // simt::launch BD_DCHECKs these on every launch; release builds compile
  // the checks out, so assert them exactly on each step's metrics (kernel
  // plus fallback launches).
  const simt::DeviceSpec device = simt::tesla_k40();
  ProblemFixture fixture(24, 1e-6);
  auto solver = make();
  for (int k = 0; k < 4; ++k) {
    if (k > 0) fixture.advance();
    const simt::KernelMetrics m = solver->solve(fixture.problem).metrics;
    EXPECT_GT(m.l1_transactions, 0u);
    EXPECT_LE(m.active_lane_slots, m.lane_slots);
    EXPECT_EQ(m.l1.hits + m.l1.misses, m.l1_transactions);
    EXPECT_EQ(m.l2.hits + m.l2.misses,
              m.l1.misses * (device.l1_line_bytes / device.l2_line_bytes));
    EXPECT_EQ(m.dram_bytes, m.l2.misses * device.l2_line_bytes);
  }
}

INSTANTIATE_TEST_SUITE_P(All, SolverKind,
                         ::testing::Values("two-phase", "heuristic",
                                           "predictive"));

TEST(SolverComparison, PaperOrderingOnStationaryWorkload) {
  // The headline shape of Table I: after warm-up, Predictive-RP beats
  // Heuristic-RP beats Two-Phase-RP on warp efficiency, and Predictive
  // has the fewest fallback items.
  ProblemFixture f_two(48, 1e-6), f_heu(48, 1e-6), f_pred(48, 1e-6);
  baselines::TwoPhaseSolver two_phase(simt::tesla_k40());
  baselines::HeuristicSolver heuristic(simt::tesla_k40());
  PredictiveSolver predictive(simt::tesla_k40());

  const SolveResult r_two = run_steps(two_phase, f_two, 4);
  const SolveResult r_heu = run_steps(heuristic, f_heu, 4);
  const SolveResult r_pred = run_steps(predictive, f_pred, 4);

  EXPECT_GT(r_pred.metrics.warp_execution_efficiency(),
            r_heu.metrics.warp_execution_efficiency());
  EXPECT_GT(r_heu.metrics.warp_execution_efficiency(),
            r_two.metrics.warp_execution_efficiency());
  EXPECT_LT(r_pred.fallback_items, r_two.fallback_items);
  // Data-locality ordering. The shared-sample sweep strips duplicate
  // (always-hit) loads from the kernel-heavy predictive profile while
  // seeded fallback roots strip cold (always-miss) loads from the
  // fallback-heavy two-phase profile, so the raw L1 rate is no longer
  // comparable across those two profiles; clustering's reuse claim shows
  // in L1 against the per-point heuristic and in shared-L2 reuse against
  // two-phase.
  EXPECT_GT(r_pred.metrics.l1_hit_rate(), r_heu.metrics.l1_hit_rate());
  EXPECT_GT(r_pred.metrics.l2_hit_rate(), r_two.metrics.l2_hit_rate());
  EXPECT_LT(r_pred.gpu_seconds, r_two.gpu_seconds);
}

TEST(PredictiveSolver, BecomesTrainedAfterBootstrap) {
  ProblemFixture fixture(16, 1e-6);
  PredictiveSolver solver(simt::tesla_k40());
  EXPECT_FALSE(solver.trained());
  solver.solve(fixture.problem);
  EXPECT_TRUE(solver.trained());
}

TEST(PredictiveSolver, ForecastApproximatesObserved) {
  ProblemFixture fixture(24, 1e-6);
  PredictiveSolver solver(simt::tesla_k40());
  SolveResult last;
  for (int k = 0; k < 3; ++k) {
    if (k) fixture.advance();
    last = solver.solve(fixture.problem);
  }
  fixture.advance();
  const PatternField forecast = solver.forecast(fixture.problem);
  // Stationary workload: forecast should be close to the last observation.
  std::vector<double> predicted(forecast.flat().begin(),
                                forecast.flat().end());
  std::vector<double> observed(last.observed.flat().begin(),
                               last.observed.flat().end());
  const double corr = util::correlation(predicted, observed);
  EXPECT_GT(corr, 0.9);
}

TEST(PredictiveSolver, ForecastCountsKdTreeNodesVisited) {
  // One forecast adds its queries' visited kd-tree nodes to the counter.
  // The window holds one step, so every query sits one step off the
  // training points; the bounding boxes must still prune almost all of
  // the tree.
  ProblemFixture fixture(32, 1e-6);
  PredictiveSolver solver(simt::tesla_k40());
  solver.solve(fixture.problem);
  fixture.advance();
  util::telemetry::MetricsRegistry registry;
  {
    const util::telemetry::TelemetryScope scope(&registry, nullptr);
    solver.forecast(fixture.problem);
  }
  const std::uint64_t points = fixture.problem.num_points();
  const std::uint64_t visited =
      registry.snapshot().counters.at("predictive.knn_nodes_visited");
  EXPECT_GE(visited, points);  // every query visits the root
  EXPECT_LT(visited, points * points / 10);
}

TEST(PredictiveSolver, FallbackShrinksAfterLearning) {
  ProblemFixture fixture(24, 1e-6);
  PredictiveSolver solver(simt::tesla_k40());
  const SolveResult bootstrap = solver.solve(fixture.problem);
  fixture.advance();
  SolveResult trained;
  for (int k = 0; k < 3; ++k) {
    trained = solver.solve(fixture.problem);
    fixture.advance();
  }
  EXPECT_LT(trained.fallback_items, bootstrap.fallback_items / 2);
}

TEST(PredictiveSolver, RidgePredictorAlsoWorks) {
  ProblemFixture fixture(16, 1e-6);
  PredictiveOptions options;
  options.predictor = ml::PredictorKind::kRidge;
  PredictiveSolver solver(simt::tesla_k40(), options);
  SolveResult r;
  for (int k = 0; k < 3; ++k) {
    if (k) fixture.advance();
    r = solver.solve(fixture.problem);
  }
  const double exact = fixture.exact(8, 8);
  EXPECT_NEAR(r.values.at(8, 8), exact, std::max(0.12 * std::abs(exact), 4e-4));
}

TEST(PredictiveSolver, AdaptiveTransformWorks) {
  ProblemFixture fixture(16, 1e-6);
  PredictiveOptions options;
  options.transform = PartitionTransform::kAdaptive;
  PredictiveSolver solver(simt::tesla_k40(), options);
  SolveResult r;
  for (int k = 0; k < 3; ++k) {
    if (k) fixture.advance();
    r = solver.solve(fixture.problem);
  }
  const double exact = fixture.exact(8, 8);
  EXPECT_NEAR(r.values.at(8, 8), exact, std::max(0.12 * std::abs(exact), 4e-4));
}

TEST(PredictiveSolver, TimingBreakdownPopulated) {
  ProblemFixture fixture(16, 1e-6);
  PredictiveSolver solver(simt::tesla_k40());
  solver.solve(fixture.problem);
  fixture.advance();
  const SolveResult r = solver.solve(fixture.problem);
  EXPECT_GT(r.gpu_seconds, 0.0);
  EXPECT_GT(r.clustering_seconds, 0.0);
  EXPECT_GE(r.train_seconds, 0.0);
  EXPECT_GT(r.forecast_seconds, 0.0);
  EXPECT_GE(r.overall_seconds(), r.gpu_seconds);
  EXPECT_GT(r.wall_seconds, 0.0);
}

}  // namespace
}  // namespace bd::core
