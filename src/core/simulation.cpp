#include "core/simulation.hpp"

#include <chrono>
#include <cmath>
#include <exception>
#include <limits>
#include <thread>

#include "beam/force.hpp"
#include "beam/push.hpp"
#include "core/solver_scratch.hpp"
#include "util/check.hpp"
#include "util/faultinject.hpp"
#include "util/log.hpp"
#include "util/telemetry.hpp"
#include "util/timer.hpp"

namespace bd::core {

namespace telemetry = util::telemetry;

void SimConfig::validate() const {
  BD_CHECK_MSG(particles > 0, "SimConfig.particles must be > 0");
  BD_CHECK_MSG(nx >= 2, "SimConfig.nx must be >= 2, got " << nx);
  BD_CHECK_MSG(ny >= 2, "SimConfig.ny must be >= 2, got " << ny);
  BD_CHECK_MSG(half_extent_x > 0.0,
               "SimConfig.half_extent_x must be > 0, got " << half_extent_x);
  BD_CHECK_MSG(half_extent_y > 0.0,
               "SimConfig.half_extent_y must be > 0, got " << half_extent_y);
  BD_CHECK_MSG(sub_width > 0.0,
               "SimConfig.sub_width must be > 0, got " << sub_width);
  BD_CHECK_MSG(num_subregions >= 1, "SimConfig.num_subregions must be >= 1");
  BD_CHECK_MSG(tolerance > 0.0,
               "SimConfig.tolerance must be > 0, got " << tolerance);
  BD_CHECK_MSG(dt > 0.0, "SimConfig.dt must be > 0, got " << dt);
  BD_CHECK_MSG(health.max_dropped_charge >= 0.0 &&
                   health.max_dropped_charge <= 1.0,
               "SimConfig.health.max_dropped_charge must be in [0, 1], got "
                   << health.max_dropped_charge);
  BD_CHECK_MSG(health.max_sanitized_fraction > 0.0 &&
                   health.max_sanitized_fraction <= 1.0,
               "SimConfig.health.max_sanitized_fraction must be in (0, 1], "
               "got " << health.max_sanitized_fraction);
  BD_CHECK_MSG(health.mae_drift_factor > 1.0,
               "SimConfig.health.mae_drift_factor must be > 1, got "
                   << health.mae_drift_factor);
  BD_CHECK_MSG(health.mae_ema > 0.0 && health.mae_ema <= 1.0,
               "SimConfig.health.mae_ema must be in (0, 1], got "
                   << health.mae_ema);
  BD_CHECK_MSG(health.demote_after >= 1,
               "SimConfig.health.demote_after must be >= 1");
  BD_CHECK_MSG(health.promote_after >= 1,
               "SimConfig.health.promote_after must be >= 1");
}

Simulation::Simulation(SimConfig config, std::unique_ptr<RpSolver> solver,
                       std::unique_ptr<RpSolver> transverse_solver)
    : config_((config.validate(), std::move(config))),
      solver_(std::move(solver)),
      transverse_solver_(std::move(transverse_solver)),
      scratch_(std::make_unique<SolverScratch>()),
      spec_(beam::make_centered_grid(config_.nx, config_.ny,
                                     config_.half_extent_x,
                                     config_.half_extent_y)),
      history_(spec_, config_.history_depth()),
      rho_(spec_),
      drho_ds_(spec_),
      force_s_grid_(spec_),
      force_y_grid_(spec_),
      rng_(config_.seed),
      health_monitor_(config_.health),
      ladder_(1, config_.health.demote_after, config_.health.promote_after) {
  BD_CHECK_MSG(solver_ != nullptr, "simulation needs a solver");
  BD_CHECK_MSG(!config_.compute_transverse || transverse_solver_ != nullptr,
               "transverse solve requested without a transverse solver");
}

Simulation::~Simulation() = default;

void Simulation::set_telemetry(util::telemetry::MetricsRegistry* metrics,
                               util::telemetry::TraceSession* trace) {
  metrics_ = metrics;
  trace_ = trace;
}

void Simulation::set_fault_harness(util::faultinject::FaultHarness* harness) {
  fault_harness_ = harness;
}

void Simulation::add_fallback_solver(std::unique_ptr<RpSolver> solver) {
  BD_CHECK_MSG(solver != nullptr, "fallback solver must not be null");
  fallback_solvers_.push_back(std::move(solver));
  ladder_ = DegradationLadder(
      1 + static_cast<std::uint32_t>(fallback_solvers_.size()),
      config_.health.demote_after, config_.health.promote_after);
}

RpSolver& Simulation::active_solver() {
  const std::uint32_t tier = ladder_.tier();
  return tier == 0 ? *solver_ : *fallback_solvers_[tier - 1];
}

RpProblem Simulation::make_problem(const beam::WakeModel& model) const {
  RpProblem problem;
  problem.history = &history_;
  problem.model = &model;
  problem.step = step_;
  problem.sub_width = config_.sub_width;
  problem.num_subregions = config_.num_subregions;
  problem.tolerance = config_.tolerance;
  problem.scratch = scratch_.get();
  return problem;
}

void Simulation::deposit_current(double& seconds, double& dropped) {
  util::WallTimer timer;
  rho_.fill(0.0);
  dropped = beam::deposit(particles_, rho_);
  beam::longitudinal_gradient(rho_, drho_ds_);
  seconds = timer.seconds();
}

void Simulation::initialize() {
  BD_CHECK_MSG(!initialized_, "initialize() called twice");
  const telemetry::TelemetryScope scope(metrics_, trace_);
  const util::faultinject::FaultScope fault_scope(fault_harness_);
  particles_ =
      beam::sample_gaussian_bunch(config_.particles, config_.beam, rng_);
  double seconds = 0.0, dropped = 0.0;
  deposit_current(seconds, dropped);
  step_ = 0;
  history_.fill_all(step_, rho_, drho_ds_);
  particle_force_s_.assign(particles_.size(), 0.0);
  particle_force_y_.assign(particles_.size(), 0.0);
  initialized_ = true;
}

void Simulation::check_moments(StepStats& stats) {
  if (!stats.health) return;
  HealthReport& report = *stats.health;
  report.nan_moments = HealthMonitor::count_non_finite(rho_.data()) +
                       HealthMonitor::count_non_finite(drho_ds_.data());
  if (report.nan_moments > 0) {
    // Quarantine the density and rebuild the gradient from the repaired
    // field so the two moments the solvers see stay consistent.
    report.quarantined_cells =
        HealthMonitor::quarantine_non_finite(rho_.data());
    beam::longitudinal_gradient(rho_, drho_ds_);
    report.quarantined_cells +=
        HealthMonitor::quarantine_non_finite(drho_ds_.data());
    telemetry::counter_add("health.quarantined_cells",
                           report.quarantined_cells);
  }
  // Beam loss: dropped charge is in deposited-density units; the total
  // deposited density is count * |weight| / cell area.
  const double cell = spec_.dx * spec_.dy;
  const double total = static_cast<double>(particles_.size()) *
                       std::abs(particles_.weight()) / cell;
  if (total > 0.0 &&
      stats.dropped_charge > config_.health.max_dropped_charge * total) {
    report.dropped_charge_exceeded = true;
  }
}

void Simulation::check_potentials(StepStats& stats, const RpProblem& problem) {
  if (!stats.health) return;
  HealthReport& report = *stats.health;
  auto values = stats.longitudinal.values.data();
  auto errors = stats.longitudinal.errors.data();
  report.nan_potentials = HealthMonitor::count_non_finite(values);
  if (report.nan_potentials > 0) {
    if (!fallback_solvers_.empty()) {
      // Quarantine-and-recompute: the last rung (stateless full adaptive)
      // re-solves the step and only the poisoned nodes are spliced in.
      const SolveResult repair = fallback_solvers_.back()->solve(problem);
      const auto rvalues = repair.values.data();
      const auto rerrors = repair.errors.data();
      for (std::size_t i = 0; i < values.size(); ++i) {
        if (!std::isfinite(values[i])) {
          values[i] = rvalues[i];
          errors[i] = rerrors[i];
          ++report.recomputed_points;
        }
      }
      telemetry::counter_add("health.recomputed_points",
                             report.recomputed_points);
    } else {
      // No repair solver installed: contain by zeroing so the forces stay
      // finite (a dropped contribution, not a poisoned one).
      HealthMonitor::quarantine_non_finite(values);
      HealthMonitor::quarantine_non_finite(errors);
    }
  }
  // Forecast hint-boundary violations (predictive tier only; other tiers
  // report zero sanitized values).
  report.sanitized_forecasts = stats.longitudinal.sanitized_forecasts;
  const double total_values = static_cast<double>(problem.num_points()) *
                              static_cast<double>(problem.num_subregions);
  if (total_values > 0.0 &&
      static_cast<double>(report.sanitized_forecasts) >
          config_.health.max_sanitized_fraction * total_values) {
    report.forecast_corrupt = true;
  }
  if (stats.longitudinal.forecast_mae > 0.0 &&
      health_monitor_.observe_mae(stats.longitudinal.forecast_mae)) {
    report.forecast_mae_drift = true;
  }
}

void Simulation::check_forces(StepStats& stats) {
  if (!stats.health) return;
  HealthReport& report = *stats.health;
  report.nan_forces =
      HealthMonitor::count_non_finite(particle_force_s_) +
      (config_.compute_transverse
           ? HealthMonitor::count_non_finite(particle_force_y_)
           : 0);
  if (report.nan_forces > 0) {
    HealthMonitor::quarantine_non_finite(particle_force_s_);
    HealthMonitor::quarantine_non_finite(particle_force_y_);
  }
}

void Simulation::update_ladder(StepStats& stats) {
  if (!stats.health) return;
  HealthReport& report = *stats.health;
  telemetry::counter_add("health.checks");
  if (!report.healthy()) telemetry::counter_add("health.violations");
  const std::uint32_t from = ladder_.tier();
  const int moved = ladder_.on_step(report.healthy());
  if (moved > 0) {
    report.demoted = true;
    telemetry::counter_add("health.demotions");
    // The tier we are leaving may carry poisoned learned state (training
    // window, reused partitions) — drop it, and restart the MAE baseline.
    (from == 0 ? *solver_ : *fallback_solvers_[from - 1]).reset();
    health_monitor_.reset();
    BD_LOG_WARN << "health: demoting solver tier " << from << " -> "
                << ladder_.tier() << " after sustained violations (step "
                << step_ << ")";
  } else if (moved < 0) {
    report.promoted = true;
    telemetry::counter_add("health.promotions");
    BD_LOG_INFO << "health: promoting solver tier " << from << " -> "
                << ladder_.tier() << " after clean streak (step " << step_
                << ")";
  }
  telemetry::gauge_set("health.tier", static_cast<double>(ladder_.tier()));
}

StepStats Simulation::step() {
  BD_CHECK_MSG(initialized_, "call initialize() first");
  const telemetry::TelemetryScope scope(metrics_, trace_);
  const util::faultinject::FaultScope fault_scope(fault_harness_);
  ++step_;
  StepStats stats;
  stats.step = step_;
  if (config_.health_checks) {
    stats.health.emplace();
    stats.health->tier = ladder_.tier();
  }

  telemetry::TraceSpan step_span("sim.step", "sim");
  step_span.arg("step", static_cast<std::int64_t>(step_));
  if (util::faultinject::enabled()) {
    // slow_step[@step][:count] — stall this step by `count` milliseconds.
    // Exercises the fleet quantum watchdog without depending on a real
    // pathological refinement loop.
    if (auto inj = util::faultinject::fire(
            util::faultinject::FaultClass::kSlowStep, step_)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(inj->count));
    }
  }
  util::WallTimer phase_timer;

  // (1) particle deposition.
  {
    telemetry::TraceSpan span("sim.deposit", "sim");
    deposit_current(stats.deposit_seconds, stats.dropped_charge);
    if (util::faultinject::enabled()) {
      if (auto inj = util::faultinject::fire(
              util::faultinject::FaultClass::kGridNan, step_)) {
        util::Rng fault_rng(inj->seed);
        auto cells = rho_.data();
        for (std::uint32_t i = 0; i < inj->count; ++i) {
          cells[fault_rng.uniform_index(cells.size())] =
              std::numeric_limits<double>::quiet_NaN();
        }
        beam::longitudinal_gradient(rho_, drho_ds_);
      }
    }
    check_moments(stats);
    history_.push_step(step_, rho_, drho_ds_);
    span.arg("particles", static_cast<std::uint64_t>(particles_.size()));
    span.arg("dropped_charge", stats.dropped_charge);
  }
  stats.phase_ms.deposit_ms = phase_timer.seconds() * 1e3;

  // (2) compute retarded potentials, on the ladder's active tier.
  phase_timer.reset();
  {
    telemetry::TraceSpan span("sim.solve", "sim");
    RpSolver& active = active_solver();
    span.arg("solver", active.name());
    span.arg("tier", static_cast<std::uint64_t>(ladder_.tier()));
    const RpProblem problem = make_problem(config_.longitudinal);
    try {
      stats.longitudinal = active.solve(problem);
    } catch (const std::exception& e) {
      if (!config_.health_checks) throw;
      // Contain: the throwing solver's learned state is suspect — reset
      // it, forget the MAE baseline, and recompute the step with the
      // safest rung (the stateless full-adaptive solver when installed).
      stats.health->solver_exception = true;
      telemetry::counter_add("health.solver_exceptions");
      active.reset();
      health_monitor_.reset();
      RpSolver& safest =
          fallback_solvers_.empty() ? active : *fallback_solvers_.back();
      BD_LOG_WARN << "health: solver '" << active.name() << "' threw at step "
                  << step_ << " (" << e.what() << "); recomputing with '"
                  << safest.name() << "'";
      stats.longitudinal = safest.solve(problem);
    }
    check_potentials(stats, problem);
    force_s_grid_ = stats.longitudinal.values;
    if (config_.compute_transverse) {
      const RpProblem tproblem = make_problem(config_.transverse);
      stats.transverse = transverse_solver_->solve(tproblem);
      force_y_grid_ = stats.transverse->values;
    }
    span.arg("fallback_items", stats.longitudinal.fallback_items);
    span.arg("kernel_intervals", stats.longitudinal.kernel_intervals);
  }
  stats.phase_ms.solve_ms = phase_timer.seconds() * 1e3;

  // (3) self-forces at the particles.
  phase_timer.reset();
  {
    telemetry::TraceSpan span("sim.gather", "sim");
    beam::gather_forces(force_s_grid_, particles_, particle_force_s_);
    if (config_.compute_transverse) {
      beam::gather_forces(force_y_grid_, particles_, particle_force_y_);
    }
    check_forces(stats);
  }
  stats.phase_ms.gather_ms = phase_timer.seconds() * 1e3;

  // (4) push (the rigid validation bunch does not evolve).
  phase_timer.reset();
  {
    telemetry::TraceSpan span("sim.push", "sim");
    span.arg("rigid", static_cast<std::uint64_t>(config_.rigid ? 1 : 0));
    if (!config_.rigid) {
      beam::leapfrog_push(particles_, particle_force_s_,
                          config_.compute_transverse
                              ? std::span<const double>(particle_force_y_)
                              : std::span<const double>(),
                          config_.dt);
    }
  }
  stats.phase_ms.push_ms = phase_timer.seconds() * 1e3;

  update_ladder(stats);

  // Surface the per-phase breakdown and solver quality metrics through the
  // current registry — this sim's own when set_telemetry was called, the
  // process-wide default otherwise (see docs/METRICS.md).
  telemetry::counter_add("sim.steps");
  telemetry::histogram_record("sim.deposit_ms", stats.phase_ms.deposit_ms);
  telemetry::histogram_record("sim.solve_ms", stats.phase_ms.solve_ms);
  telemetry::histogram_record("sim.gather_ms", stats.phase_ms.gather_ms);
  telemetry::histogram_record("sim.push_ms", stats.phase_ms.push_ms);
  telemetry::gauge_set("sim.last_fallback_items",
                       static_cast<double>(stats.longitudinal.fallback_items));
  telemetry::gauge_set("sim.last_forecast_mae",
                       stats.longitudinal.forecast_mae);
  return stats;
}

void Simulation::demote_tier() {
  if (fallback_solvers_.empty()) return;
  const telemetry::TelemetryScope scope(metrics_, trace_);
  const std::uint32_t from = ladder_.tier();
  if (!ladder_.force_demote()) return;
  telemetry::counter_add("health.demotions");
  // Mirror the in-step demotion: the abandoned tier's learned state is
  // suspect (it just overran or misbehaved) and the MAE baseline with it.
  (from == 0 ? *solver_ : *fallback_solvers_[from - 1]).reset();
  health_monitor_.reset();
  telemetry::gauge_set("health.tier", static_cast<double>(ladder_.tier()));
  BD_LOG_WARN << "health: supervisor demoting solver tier " << from << " -> "
              << ladder_.tier() << " (step " << step_ << ")";
}

}  // namespace bd::core
