#pragma once
/// \file simulation.hpp
/// The full four-step beam-dynamics simulation loop (paper §II-A, Fig. 1):
/// deposit → compute retarded potentials (pluggable rp-solver) →
/// gather self-forces → push. Owns the particle set, the moment-grid
/// history and the per-step statistics the benchmarks report.

#include <atomic>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "beam/bunch.hpp"
#include "beam/deposit.hpp"
#include "beam/history.hpp"
#include "beam/units.hpp"
#include "beam/wake.hpp"
#include "core/health.hpp"
#include "core/solver.hpp"
#include "util/faultinject.hpp"
#include "util/rng.hpp"
#include "util/telemetry.hpp"

namespace bd::core {

/// Full simulation configuration.
struct SimConfig {
  std::size_t particles = 100000;
  std::uint32_t nx = 64;
  std::uint32_t ny = 64;
  double half_extent_x = 6.0;  ///< grid spans ±6σ_s longitudinally
  double half_extent_y = 6.0;  ///< and ±6σ_y transversely (σ_y units of σ_s)
  double sub_width = 1.0;      ///< c·Δt (radial subregion width)
  std::uint32_t num_subregions = 12;  ///< κ
  double tolerance = 1e-6;     ///< τ (paper §V)
  double dt = 1.0;             ///< push step (= sub_width / c)
  bool rigid = false;          ///< validation mode: skip the push
  bool compute_transverse = false;  ///< also solve the transverse model
  std::uint64_t seed = 20170801;
  beam::BeamParams beam;
  beam::WakeModel longitudinal = beam::WakeModel::longitudinal();
  beam::WakeModel transverse = beam::WakeModel::transverse();

  /// Enable per-step numerical health monitoring and the degradation
  /// ladder (docs/ROBUSTNESS.md). Off by default — the guarded path costs
  /// a few grid scans per step.
  bool health_checks = false;
  HealthThresholds health;  ///< limits used when health_checks is on

  /// History depth required to interpolate every subregion in time.
  std::uint32_t history_depth() const { return num_subregions + 4; }

  /// Throws bd::CheckError naming the offending field if any value is
  /// unusable (zero grid dims, non-positive tolerance/dt, ...). Called by
  /// the Simulation constructor; exposed for config-loading tooling.
  void validate() const;
};

/// Wall-time breakdown of one step over the four simulation phases
/// (milliseconds of host time; the solve phase includes the transverse
/// solve when enabled). Mirrors the `sim.*` telemetry spans — see
/// docs/METRICS.md.
struct PhaseBreakdown {
  double deposit_ms = 0.0;  ///< PIC deposition + gradient + history push
  double solve_ms = 0.0;    ///< compute retarded potentials (rp-solver)
  double gather_ms = 0.0;   ///< force interpolation back to particles
  double push_ms = 0.0;     ///< leap-frog push (0 for rigid bunches)
};

/// Statistics of one simulation step.
struct StepStats {
  std::int64_t step = 0;
  double deposit_seconds = 0.0;
  double dropped_charge = 0.0;
  PhaseBreakdown phase_ms;  ///< where the step's host wall time went
  SolveResult longitudinal;
  std::optional<SolveResult> transverse;
  /// Health findings for this step; engaged only when
  /// SimConfig::health_checks is on.
  std::optional<HealthReport> health;
};

/// The simulation driver.
class Simulation {
 public:
  /// \param solver rp-solver for the longitudinal component (owned).
  /// \param transverse_solver optional solver for the transverse component
  ///        (must be a distinct instance — solvers carry per-model state).
  Simulation(SimConfig config, std::unique_ptr<RpSolver> solver,
             std::unique_ptr<RpSolver> transverse_solver = nullptr);
  ~Simulation();

  /// Sample the bunch, deposit it, and pre-fill the history ("the beam
  /// arrived in steady state"). Must be called once before step().
  void initialize();

  /// Run one full simulation step; returns its statistics.
  StepStats step();

  const beam::ParticleSet& particles() const { return particles_; }
  beam::ParticleSet& particles() { return particles_; }
  const beam::GridHistory& history() const { return history_; }
  const beam::Grid2D& force_s() const { return force_s_grid_; }
  const beam::Grid2D& force_y() const { return force_y_grid_; }
  const SimConfig& config() const { return config_; }
  std::int64_t current_step() const { return step_; }
  RpSolver& solver() { return *solver_; }

  /// Append one rung to the degradation ladder (docs/ROBUSTNESS.md).
  /// Tier 0 is the primary solver; each added solver is one tier simpler.
  /// The last added solver should be unconditionally safe (the stateless
  /// full-adaptive TwoPhaseSolver) — it also serves as the repair solver
  /// that recomputes quarantined potential nodes. Resets the ladder.
  void add_fallback_solver(std::unique_ptr<RpSolver> solver);

  /// Ladder tier the next step will use (0 = primary solver).
  std::uint32_t active_tier() const { return ladder_.tier(); }
  std::uint32_t num_tiers() const { return ladder_.num_tiers(); }

  /// The solver the next step will use, per the ladder tier.
  RpSolver& active_solver();

  /// The RpProblem for the current step and given model (for tooling).
  RpProblem make_problem(const beam::WakeModel& model) const;

  /// Route this simulation's telemetry to `metrics`/`trace` instead of the
  /// process-global instances (nullptr = keep using the ambient target).
  /// initialize()/step() and checkpoint save/restore install the
  /// pair as a TelemetryScope for their duration, and the thread pool
  /// propagates it to workers — so concurrent simulations never interleave
  /// metrics. Used by core/fleet; standalone sims need not call this.
  void set_telemetry(util::telemetry::MetricsRegistry* metrics,
                     util::telemetry::TraceSession* trace);

  /// Route this simulation's fault injection to `harness` (nullptr = the
  /// ambient/default harness). Same scoping rules as set_telemetry.
  void set_fault_harness(util::faultinject::FaultHarness* harness);

  /// Whether initialize() has run (directly or via checkpoint restore).
  bool initialized() const { return initialized_; }

  /// Cooperative stop token. request_stop() may be called from any thread
  /// (e.g. the fleet watchdog); the fleet's quantum loop checks it between
  /// steps and ends the quantum early. The token is NOT consulted by a
  /// single step() call — stops land on step boundaries only, keeping
  /// every completed step bit-identical to an uninterrupted run.
  void request_stop() { stop_requested_.store(true, std::memory_order_relaxed); }
  bool stop_requested() const {
    return stop_requested_.load(std::memory_order_relaxed);
  }
  void clear_stop() { stop_requested_.store(false, std::memory_order_relaxed); }

  /// Supervisor-driven demotion: push the ladder one rung down (toward
  /// simpler solvers) without waiting for an unhealthy streak. The
  /// abandoned tier's solver and the MAE baseline are reset, mirroring the
  /// in-step demotion path. No-op on the last rung or when no fallbacks
  /// are installed. Used by the fleet watchdog after a step-deadline trip.
  void demote_tier();

 private:
  friend void save_checkpoint(const Simulation& sim, const std::string& path);
  friend void restore_checkpoint(Simulation& sim, const std::string& path);

  void deposit_current(double& seconds, double& dropped);

  /// Scan/repair hooks of the guarded step (no-ops unless health_checks).
  void check_moments(StepStats& stats);
  void check_potentials(StepStats& stats, const RpProblem& problem);
  void check_forces(StepStats& stats);
  void update_ladder(StepStats& stats);

  SimConfig config_;
  std::unique_ptr<RpSolver> solver_;
  std::unique_ptr<RpSolver> transverse_solver_;
  /// Step-persistent solver scratch, shared by every solve of every
  /// attached solver (solves are sequential) through RpProblem::scratch.
  std::unique_ptr<SolverScratch> scratch_;
  std::vector<std::unique_ptr<RpSolver>> fallback_solvers_;
  beam::GridSpec spec_;
  beam::ParticleSet particles_;
  beam::GridHistory history_;
  beam::Grid2D rho_, drho_ds_;
  beam::Grid2D force_s_grid_, force_y_grid_;
  std::vector<double> particle_force_s_, particle_force_y_;
  util::Rng rng_;
  HealthMonitor health_monitor_;
  DegradationLadder ladder_;
  std::int64_t step_ = 0;
  bool initialized_ = false;
  std::atomic<bool> stop_requested_{false};
  /// Scoped telemetry/fault targets (see set_telemetry); nullptr = ambient.
  util::telemetry::MetricsRegistry* metrics_ = nullptr;
  util::telemetry::TraceSession* trace_ = nullptr;
  util::faultinject::FaultHarness* fault_harness_ = nullptr;
};

/// Checkpoint/restart (core/checkpoint.cpp). Declared here so they can be
/// friends; include core/checkpoint.hpp for the documented entry points.
void save_checkpoint(const Simulation& sim, const std::string& path);
void restore_checkpoint(Simulation& sim, const std::string& path);

}  // namespace bd::core
