/// Integration tests for the full four-step simulation driver.

#include <gtest/gtest.h>

#include <cmath>

#include "baselines/two_phase.hpp"
#include "beam/analytic.hpp"
#include "core/predictive.hpp"
#include "core/simulation.hpp"
#include "test_helpers.hpp"
#include "util/check.hpp"
#include "util/stats.hpp"

namespace bd::core {
namespace {

using bd::testing::run_steps;

SimConfig small_config() {
  SimConfig config;
  config.particles = 20000;
  config.nx = 32;
  config.ny = 32;
  config.tolerance = 1e-6;
  config.rigid = true;
  return config;
}

std::unique_ptr<RpSolver> predictive() {
  return std::make_unique<PredictiveSolver>(simt::tesla_k40());
}

TEST(Simulation, RequiresInitialize) {
  Simulation sim(small_config(), predictive());
  EXPECT_THROW(sim.step(), bd::CheckError);
}

TEST(Simulation, InitializeOnlyOnce) {
  Simulation sim(small_config(), predictive());
  sim.initialize();
  EXPECT_THROW(sim.initialize(), bd::CheckError);
}

TEST(Simulation, RequiresSolver) {
  EXPECT_THROW(Simulation(small_config(), nullptr), bd::CheckError);
}

TEST(SimConfigValidation, RejectsBadFieldsByName) {
  const auto expect_rejected = [](auto mutate, const std::string& field) {
    SimConfig config = small_config();
    mutate(config);
    try {
      Simulation sim(config, predictive());
      FAIL() << "expected rejection of bad " << field;
    } catch (const bd::CheckError& e) {
      EXPECT_NE(std::string(e.what()).find(field), std::string::npos)
          << "message should name '" << field << "': " << e.what();
    }
  };
  expect_rejected([](SimConfig& c) { c.particles = 0; }, "particles");
  expect_rejected([](SimConfig& c) { c.nx = 0; }, "nx");
  expect_rejected([](SimConfig& c) { c.ny = 0; }, "ny");
  expect_rejected([](SimConfig& c) { c.half_extent_x = 0.0; },
                  "half_extent_x");
  expect_rejected([](SimConfig& c) { c.sub_width = -1.0; }, "sub_width");
  expect_rejected([](SimConfig& c) { c.num_subregions = 0; },
                  "num_subregions");
  expect_rejected([](SimConfig& c) { c.tolerance = 0.0; }, "tolerance");
  expect_rejected([](SimConfig& c) { c.tolerance = -1e-6; }, "tolerance");
  expect_rejected([](SimConfig& c) { c.dt = 0.0; }, "dt");
  expect_rejected([](SimConfig& c) { c.health.max_sanitized_fraction = 0.0; },
                  "max_sanitized_fraction");
  expect_rejected([](SimConfig& c) { c.health.demote_after = 0; },
                  "demote_after");
}

TEST(SimConfigValidation, DefaultsAreValid) {
  SimConfig config;
  EXPECT_NO_THROW(config.validate());
}

TEST(Simulation, TransverseNeedsSecondSolver) {
  SimConfig config = small_config();
  config.compute_transverse = true;
  EXPECT_THROW(Simulation(config, predictive()), bd::CheckError);
}

TEST(Simulation, StepsAdvanceAndRecordStats) {
  Simulation sim(small_config(), predictive());
  sim.initialize();
  const auto stats = run_steps(sim, 3);
  ASSERT_EQ(stats.size(), 3u);
  EXPECT_EQ(stats[0].step, 1);
  EXPECT_EQ(stats[2].step, 3);
  EXPECT_EQ(sim.current_step(), 3);
  for (const auto& s : stats) {
    EXPECT_GT(s.longitudinal.kernel_intervals, 0u);
    EXPECT_GE(s.deposit_seconds, 0.0);
    EXPECT_LT(s.dropped_charge, 0.01);
  }
}

TEST(Simulation, RigidBunchDoesNotMove) {
  Simulation sim(small_config(), predictive());
  sim.initialize();
  const double s0 = sim.particles().s()[0];
  run_steps(sim, 2);
  EXPECT_DOUBLE_EQ(sim.particles().s()[0], s0);
}

TEST(Simulation, DynamicBunchEvolvesUnderSelfForce) {
  SimConfig config = small_config();
  config.rigid = false;
  Simulation sim(config, predictive());
  sim.initialize();
  const double s0 = sim.particles().s()[100];
  run_steps(sim, 3);
  EXPECT_NE(sim.particles().s()[100], s0);
  // Momenta picked up finite force kicks.
  double max_ps = 0.0;
  for (double v : sim.particles().ps()) max_ps = std::max(max_ps, std::abs(v));
  EXPECT_GT(max_ps, 0.0);
  EXPECT_LT(max_ps, 1.0);  // forces are small; no blow-up
}

TEST(Simulation, ForceGridMatchesAnalyticAtCenterline) {
  SimConfig config = small_config();
  config.particles = 200000;  // tame Monte-Carlo noise
  Simulation sim(config, predictive());
  sim.initialize();
  run_steps(sim, 2);
  const beam::Grid2D& force = sim.force_s();
  const beam::GridSpec& spec = force.spec();
  const std::uint32_t iy = spec.ny / 2;
  std::vector<double> computed, exact;
  for (std::uint32_t ix = 4; ix < spec.nx - 4; ++ix) {
    computed.push_back(force.at(ix, iy));
    exact.push_back(beam::analytic_force(spec.x_at(ix), spec.y_at(iy),
                                         config.longitudinal, config.beam,
                                         12.0, 1e-10));
  }
  EXPECT_GT(util::correlation(computed, exact), 0.995);
}

TEST(Simulation, TransverseSolveProducesAntisymmetricForce) {
  SimConfig config = small_config();
  config.particles = 100000;
  config.compute_transverse = true;
  Simulation sim(config, predictive(),
                 std::make_unique<PredictiveSolver>(simt::tesla_k40()));
  sim.initialize();
  run_steps(sim, 1);
  const beam::Grid2D& fy = sim.force_y();
  const beam::GridSpec& spec = fy.spec();
  // F_y above the axis and below the axis have opposite signs.
  const std::uint32_t ix = spec.nx / 2;
  const double above = fy.at(ix, 3 * spec.ny / 4);
  const double below = fy.at(ix, spec.ny / 4);
  EXPECT_LT(above * below, 0.0);
}

TEST(Simulation, MakeProblemReflectsConfig) {
  Simulation sim(small_config(), predictive());
  sim.initialize();
  const RpProblem problem = sim.make_problem(sim.config().longitudinal);
  EXPECT_EQ(problem.num_subregions, 12u);
  EXPECT_DOUBLE_EQ(problem.tolerance, 1e-6);
  EXPECT_EQ(problem.step, 0);
  EXPECT_EQ(problem.num_points(), 32u * 32u);
}

TEST(Simulation, DeterministicForSeed) {
  Simulation a(small_config(), predictive());
  Simulation b(small_config(), predictive());
  a.initialize();
  b.initialize();
  run_steps(a, 2);
  run_steps(b, 2);
  for (std::size_t i = 0; i < 50; ++i) {
    EXPECT_DOUBLE_EQ(a.particles().s()[i], b.particles().s()[i]);
  }
  EXPECT_DOUBLE_EQ(a.force_s().at(16, 16), b.force_s().at(16, 16));
}

TEST(Simulation, MonteCarloErrorShrinksWithParticles) {
  // The mechanism behind Fig. 3: force error vs the analytic reference
  // drops as N grows.
  double prev_mse = 1e300;
  for (std::size_t n : {2000, 32000}) {
    SimConfig config = small_config();
    config.particles = n;
    Simulation sim(config, std::make_unique<baselines::TwoPhaseSolver>(
                               simt::tesla_k40()));
    sim.initialize();
    run_steps(sim, 1);
    const beam::Grid2D& force = sim.force_s();
    const beam::GridSpec& spec = force.spec();
    double mse = 0.0;
    int count = 0;
    for (std::uint32_t iy = 8; iy < 24; ++iy) {
      for (std::uint32_t ix = 8; ix < 24; ++ix) {
        const double exact = beam::analytic_force(
            spec.x_at(ix), spec.y_at(iy), config.longitudinal, config.beam,
            12.0, 1e-10);
        const double d = force.at(ix, iy) - exact;
        mse += d * d;
        ++count;
      }
    }
    mse /= count;
    EXPECT_LT(mse, prev_mse);
    prev_mse = mse;
  }
}

}  // namespace
}  // namespace bd::core
