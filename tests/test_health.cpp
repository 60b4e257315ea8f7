/// Guarded-simulation tests: the health monitor, the degradation ladder,
/// and one end-to-end containment case per injected failure class
/// (poisoned moment grids, corrupted forecasts, truncated checkpoint
/// writes, thread-pool job exceptions). Every case asserts the run
/// completes with finite physics and the expected health.* telemetry.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>

#include "baselines/heuristic.hpp"
#include "baselines/two_phase.hpp"
#include "core/checkpoint.hpp"
#include "core/health.hpp"
#include "core/predictive.hpp"
#include "core/simulation.hpp"
#include "simt/device.hpp"
#include "test_helpers.hpp"
#include "util/check.hpp"
#include "util/faultinject.hpp"
#include "util/telemetry.hpp"

namespace bd {
namespace {

using bd::testing::run_steps;

// ---------------------------------------------------------------------------
// HealthMonitor / DegradationLadder units
// ---------------------------------------------------------------------------

TEST(HealthMonitor, CountsAndQuarantinesNonFinite) {
  std::vector<double> data{1.0, std::nan(""), 3.0,
                           std::numeric_limits<double>::infinity()};
  EXPECT_EQ(core::HealthMonitor::count_non_finite(data), 2u);
  EXPECT_EQ(core::HealthMonitor::quarantine_non_finite(data), 2u);
  EXPECT_EQ(core::HealthMonitor::count_non_finite(data), 0u);
  EXPECT_EQ(data[1], 0.0);
  EXPECT_EQ(data[3], 0.0);
}

TEST(HealthMonitor, MaeDriftAgainstEmaBaseline) {
  core::HealthThresholds thresholds;
  thresholds.mae_warmup = 2;
  thresholds.mae_drift_factor = 4.0;
  core::HealthMonitor monitor(thresholds);
  EXPECT_FALSE(monitor.observe_mae(1.0));  // warm-up
  EXPECT_FALSE(monitor.observe_mae(1.2));  // warm-up
  EXPECT_FALSE(monitor.observe_mae(1.1));  // within 4x of baseline
  EXPECT_TRUE(monitor.observe_mae(50.0));  // way past the limit
  // The violating sample must not be folded into the baseline: a normal
  // sample right after still passes.
  EXPECT_FALSE(monitor.observe_mae(1.0));
}

TEST(HealthMonitor, NonFiniteMaeIsAlwaysDrift) {
  core::HealthMonitor monitor;
  EXPECT_TRUE(monitor.observe_mae(std::nan("")));
  EXPECT_TRUE(monitor.observe_mae(-1.0));
}

TEST(DegradationLadder, DemotesAfterStreakAndPromotesBack) {
  core::DegradationLadder ladder(3, /*demote_after=*/2, /*promote_after=*/3);
  EXPECT_EQ(ladder.tier(), 0u);
  EXPECT_EQ(ladder.on_step(false), 0);  // streak 1 of 2
  EXPECT_EQ(ladder.on_step(false), 1);  // demote 0 -> 1
  EXPECT_EQ(ladder.tier(), 1u);
  EXPECT_EQ(ladder.on_step(false), 0);
  EXPECT_EQ(ladder.on_step(false), 1);  // demote 1 -> 2 (last rung)
  EXPECT_EQ(ladder.tier(), 2u);
  EXPECT_EQ(ladder.on_step(false), 0);  // pinned at the last rung
  EXPECT_EQ(ladder.tier(), 2u);
  EXPECT_EQ(ladder.on_step(true), 0);
  EXPECT_EQ(ladder.on_step(true), 0);
  EXPECT_EQ(ladder.on_step(true), -1);  // promote 2 -> 1
  EXPECT_EQ(ladder.tier(), 1u);
}

TEST(DegradationLadder, HealthyStepResetsDemoteStreak) {
  core::DegradationLadder ladder(2, /*demote_after=*/2, /*promote_after=*/2);
  EXPECT_EQ(ladder.on_step(false), 0);
  EXPECT_EQ(ladder.on_step(true), 0);   // breaks the unhealthy streak
  EXPECT_EQ(ladder.on_step(false), 0);  // streak restarts at 1
  EXPECT_EQ(ladder.tier(), 0u);
}

TEST(HealthReport, HealthyIgnoresRemediationCounters) {
  core::HealthReport report;
  EXPECT_TRUE(report.healthy());
  report.recomputed_points = 5;  // remediation alone is not a violation
  EXPECT_TRUE(report.healthy());
  report.nan_potentials = 1;
  EXPECT_FALSE(report.healthy());
}

// ---------------------------------------------------------------------------
// Fault-injection plan parsing / semantics
// ---------------------------------------------------------------------------

class FaultInjectTest : public ::testing::Test {
 protected:
  void TearDown() override { util::faultinject::clear(); }
};

TEST_F(FaultInjectTest, DisabledByDefaultAndAfterClear) {
  util::faultinject::clear();
  EXPECT_FALSE(util::faultinject::enabled());
  EXPECT_FALSE(util::faultinject::fire(
      util::faultinject::FaultClass::kGridNan, 1));
}

TEST_F(FaultInjectTest, EntriesFireOnceAtTheirStep) {
  util::faultinject::install("grid_nan@3:8");
  EXPECT_TRUE(util::faultinject::enabled());
  EXPECT_FALSE(util::faultinject::fire(
      util::faultinject::FaultClass::kGridNan, 2));
  const auto fired =
      util::faultinject::fire(util::faultinject::FaultClass::kGridNan, 3);
  ASSERT_TRUE(fired.has_value());
  EXPECT_EQ(fired->count, 8u);
  // One-shot: the same entry never fires again.
  EXPECT_FALSE(util::faultinject::fire(
      util::faultinject::FaultClass::kGridNan, 3));
  EXPECT_FALSE(util::faultinject::enabled());
}

TEST_F(FaultInjectTest, WildcardEntryFiresAtAnyStep) {
  util::faultinject::install("pool_throw");
  EXPECT_TRUE(util::faultinject::fire(
      util::faultinject::FaultClass::kPoolThrow, 17).has_value());
}

TEST_F(FaultInjectTest, MalformedSpecThrows) {
  EXPECT_THROW(util::faultinject::install("not_a_class"), bd::CheckError);
  EXPECT_THROW(util::faultinject::install("grid_nan@abc"), bd::CheckError);
  EXPECT_THROW(util::faultinject::install("grid_nan:0"), bd::CheckError);
}

// Expect install(spec) to throw and the error text to include every one of
// `needles` — the message must name the bad token, not just say "bad spec".
void expect_parse_error(const std::string& spec,
                        std::initializer_list<const char*> needles) {
  try {
    util::faultinject::install(spec);
    FAIL() << "spec '" << spec << "' was accepted";
  } catch (const bd::CheckError& e) {
    const std::string message = e.what();
    for (const char* needle : needles) {
      EXPECT_NE(message.find(needle), std::string::npos)
          << "error for spec '" << spec << "' does not name '" << needle
          << "': " << message;
    }
  }
}

TEST_F(FaultInjectTest, ParseErrorMatrixNamesTheBadToken) {
  // Unknown class — message must carry the offending token and the menu.
  expect_parse_error("gridnan", {"gridnan", "slow_step"});
  expect_parse_error("grid_nan;bogus@3", {"bogus"});
  // Malformed step.
  expect_parse_error("grid_nan@", {"step", "grid_nan@"});
  expect_parse_error("grid_nan@-2", {"step", "-2"});
  expect_parse_error("grid_nan@1x", {"step", "1x"});
  expect_parse_error("grid_nan@ 3", {"step"});
  // Malformed count.
  expect_parse_error("pool_throw:", {"count", "pool_throw:"});
  expect_parse_error("pool_throw:zero", {"count", "zero"});
  expect_parse_error("pool_throw:+4", {"count", "+4"});
  expect_parse_error("slow_step:0", {"count", "slow_step:0"});
  expect_parse_error("slow_step:4294967296", {"count", "u32"});
  // Empty entries are mangled specs, not no-ops.
  expect_parse_error(";", {"empty fault entry"});
  expect_parse_error("grid_nan;;pool_throw", {"empty fault entry"});
  expect_parse_error("grid_nan;", {"empty fault entry"});
}

TEST_F(FaultInjectTest, MalformedSpecLeavesPreviousPlanInstalled) {
  util::faultinject::install("grid_nan@3");
  EXPECT_THROW(util::faultinject::install("grid_nan;bogus"), bd::CheckError);
  // The good plan survives the failed install.
  EXPECT_TRUE(util::faultinject::enabled());
  EXPECT_TRUE(util::faultinject::fire(
      util::faultinject::FaultClass::kGridNan, 3).has_value());
}

TEST_F(FaultInjectTest, SlowStepClassParsesAndFires) {
  util::faultinject::install("slow_step@5:25");
  const auto fired =
      util::faultinject::fire(util::faultinject::FaultClass::kSlowStep, 5);
  ASSERT_TRUE(fired.has_value());
  EXPECT_EQ(fired->count, 25u);
}

// ---------------------------------------------------------------------------
// End-to-end containment, one case per failure class
// ---------------------------------------------------------------------------

core::SimConfig guarded_config() {
  core::SimConfig config;
  config.particles = 5000;
  config.nx = 16;
  config.ny = 16;
  config.tolerance = 1e-5;
  config.rigid = false;
  config.health_checks = true;
  config.health.demote_after = 1;
  config.health.promote_after = 2;
  return config;
}

std::unique_ptr<core::Simulation> guarded_sim(
    core::SimConfig config = guarded_config()) {
  auto sim = std::make_unique<core::Simulation>(
      config, std::make_unique<core::PredictiveSolver>(simt::tesla_k40()));
  sim->add_fallback_solver(
      std::make_unique<baselines::HeuristicSolver>(simt::tesla_k40()));
  sim->add_fallback_solver(
      std::make_unique<baselines::TwoPhaseSolver>(simt::tesla_k40()));
  sim->initialize();
  return sim;
}

void expect_finite_physics(const core::Simulation& sim,
                           const std::vector<core::StepStats>& stats) {
  for (const auto& s : stats) {
    for (double v : s.longitudinal.values.data()) {
      ASSERT_TRUE(std::isfinite(v)) << "step " << s.step;
    }
  }
  for (double v : sim.force_s().data()) ASSERT_TRUE(std::isfinite(v));
  for (double v : sim.particles().s()) ASSERT_TRUE(std::isfinite(v));
  for (double v : sim.particles().ps()) ASSERT_TRUE(std::isfinite(v));
}

std::uint64_t counter(const util::telemetry::MetricsSnapshot& snap,
                      const std::string& name) {
  const auto it = snap.counters.find(name);
  return it == snap.counters.end() ? 0 : it->second;
}

class GuardedSimTest : public ::testing::Test {
 protected:
  void SetUp() override { util::faultinject::clear(); }
  void TearDown() override { util::faultinject::clear(); }
};

TEST_F(GuardedSimTest, HealthReportAbsentWhenChecksOff) {
  core::SimConfig config = guarded_config();
  config.health_checks = false;
  auto sim = guarded_sim(config);
  const auto stats = run_steps(*sim, 1);
  EXPECT_FALSE(stats[0].health.has_value());
}

TEST_F(GuardedSimTest, ContainsGridNanInjection) {
  const auto before = util::telemetry::MetricsRegistry::global().snapshot();
  auto sim = guarded_sim();
  util::faultinject::install("grid_nan@2:8");
  const auto stats = run_steps(*sim, 4);

  ASSERT_TRUE(stats[1].health.has_value());
  EXPECT_GT(stats[1].health->nan_moments, 0u);
  EXPECT_GT(stats[1].health->quarantined_cells, 0u);
  expect_finite_physics(*sim, stats);
  // The history ring must hold the repaired (finite) moments.
  for (std::uint32_t iy = 0; iy < 16; ++iy) {
    for (std::uint32_t ix = 0; ix < 16; ++ix) {
      ASSERT_TRUE(std::isfinite(
          sim->history().value(2, beam::kChannelRho, ix, iy)));
    }
  }
  const auto after = util::telemetry::MetricsRegistry::global().snapshot();
  EXPECT_GT(counter(after, "health.quarantined_cells"),
            counter(before, "health.quarantined_cells"));
  EXPECT_GT(counter(after, "health.violations"),
            counter(before, "health.violations"));
  EXPECT_GT(counter(after, "faultinject.injections"),
            counter(before, "faultinject.injections"));
}

TEST_F(GuardedSimTest, ContainsForecastCorruptionAndWalksTheLadder) {
  const auto before = util::telemetry::MetricsRegistry::global().snapshot();
  auto sim = guarded_sim();
  // Step 1 bootstraps the predictor; step 3 is a predictive solve whose
  // forecast gets scrambled (NaNs + 1e18s). The sanitizer must contain it,
  // the step is flagged, and with demote_after=1 the ladder demotes; two
  // clean steps later it promotes back.
  util::faultinject::install("forecast@3");
  const auto stats = run_steps(*sim, 6);

  ASSERT_TRUE(stats[2].health.has_value());
  EXPECT_GT(stats[2].health->sanitized_forecasts, 0u);
  EXPECT_TRUE(stats[2].health->forecast_corrupt);
  EXPECT_TRUE(stats[2].health->demoted);
  EXPECT_EQ(stats[3].health->tier, 1u);  // heuristic tier took over
  expect_finite_physics(*sim, stats);

  const auto after = util::telemetry::MetricsRegistry::global().snapshot();
  EXPECT_GT(counter(after, "health.demotions"),
            counter(before, "health.demotions"));
  EXPECT_GT(counter(after, "health.promotions"),
            counter(before, "health.promotions"));
  EXPECT_GT(counter(after, "predictive.forecast_sanitized"),
            counter(before, "predictive.forecast_sanitized"));
  // Promoted all the way back by the end of the run.
  EXPECT_EQ(sim->active_tier(), 0u);
}

TEST_F(GuardedSimTest, ContainsPoolJobException) {
  const auto before = util::telemetry::MetricsRegistry::global().snapshot();
  auto sim = guarded_sim();
  // Fires inside the forecast parallel_for body at step 2 (the first
  // predictive solve); the pool rethrows on the caller, the guarded solve
  // catches, resets the poisoned solver and recomputes with the last rung.
  util::faultinject::install("pool_throw@2");
  const auto stats = run_steps(*sim, 3);

  ASSERT_TRUE(stats[1].health.has_value());
  EXPECT_TRUE(stats[1].health->solver_exception);
  EXPECT_GT(stats[1].longitudinal.kernel_intervals, 0u);  // recompute ran
  expect_finite_physics(*sim, stats);

  const auto after = util::telemetry::MetricsRegistry::global().snapshot();
  EXPECT_GT(counter(after, "health.solver_exceptions"),
            counter(before, "health.solver_exceptions"));
}

TEST_F(GuardedSimTest, PoolExceptionPropagatesWhenChecksOff) {
  core::SimConfig config = guarded_config();
  config.health_checks = false;
  auto sim = guarded_sim(config);
  util::faultinject::install("pool_throw@2");
  run_steps(*sim, 1);
  EXPECT_THROW(sim->step(), std::runtime_error);
}

TEST_F(GuardedSimTest, TruncatedCheckpointWriteKeepsPreviousSnapshot) {
  const std::string path =
      ::testing::TempDir() + "bd_health_truncate_test.ckpt";
  auto sim = guarded_sim();
  run_steps(*sim, 1);
  core::save_checkpoint(*sim, path);
  run_steps(*sim, 1);
  util::faultinject::install("checkpoint_truncate");
  EXPECT_THROW(core::save_checkpoint(*sim, path), bd::CheckError);
  util::faultinject::clear();

  // The step-1 snapshot survives the simulated mid-write crash, and the
  // run continues unharmed after the failed save.
  const auto stats = run_steps(*sim, 2);
  expect_finite_physics(*sim, stats);
  auto restored = guarded_sim();
  core::restore_checkpoint(*restored, path);
  EXPECT_EQ(restored->current_step(), 1);
  std::remove(path.c_str());
  std::remove((path + ".tmp").c_str());
}

TEST_F(GuardedSimTest, MonitorAndLadderStateSurviveCheckpoint) {
  const std::string path = ::testing::TempDir() + "bd_health_ckpt_state.ckpt";
  auto sim = guarded_sim();
  util::faultinject::install("forecast@3");
  run_steps(*sim, 3);  // demoted at step 3
  EXPECT_EQ(sim->active_tier(), 1u);
  core::save_checkpoint(*sim, path);

  auto restored = guarded_sim();
  core::restore_checkpoint(*restored, path);
  EXPECT_EQ(restored->active_tier(), 1u);  // ladder state came back
  const auto stats = run_steps(*restored, 2);  // promote_after=2 clean steps
  ASSERT_TRUE(stats[1].health.has_value());
  EXPECT_TRUE(stats[1].health->promoted);
  EXPECT_EQ(restored->active_tier(), 0u);
  std::remove(path.c_str());
  std::remove((path + ".tmp").c_str());
}

}  // namespace
}  // namespace bd
