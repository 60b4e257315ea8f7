#pragma once
/// \file health.hpp
/// Numerical health monitoring and the solver degradation ladder.
///
/// The paper treats the learned forecast as a performance hint: the
/// adaptive quadrature fallback guarantees the tolerance regardless of
/// prediction quality. This module extends that safety property to the
/// whole step loop. A HealthMonitor scans the data flowing between the
/// four phases (moments, potentials, forces) for non-finite values and
/// drift signals, and a DegradationLadder demotes the simulation to
/// progressively simpler solvers when violations persist — and promotes
/// it back once the run has been clean for a while.
///
/// Everything here is plain arithmetic on spans; the monitor holds no
/// references to simulation state and is trivially checkpointable.

#include <cstdint>
#include <span>

namespace bd::util {
class BinaryWriter;
class BinaryReader;
}  // namespace bd::util

namespace bd::core {

/// Tunable limits for the monitor. Defaults are deliberately loose — the
/// monitor is a tripwire for corruption, not a physics validator.
struct HealthThresholds {
  /// Fraction of total |charge| allowed to fall outside the grid before a
  /// step is flagged (beam escaping the domain, or deposit corruption).
  double max_dropped_charge = 0.05;

  /// Fraction of forecast values the sanitizer may rewrite before the
  /// forecast source is considered corrupt (a handful of clipped values is
  /// normal during warm-up; half the grid is not).
  double max_sanitized_fraction = 0.5;

  /// A step's forecast MAE must stay below `mae_drift_factor` times the
  /// running EMA baseline; above it the predictor is considered drifting.
  double mae_drift_factor = 8.0;

  /// EMA weight for the MAE baseline (higher = adapts faster).
  double mae_ema = 0.25;

  /// Number of MAE samples collected before drift checking engages.
  std::uint32_t mae_warmup = 4;

  /// Consecutive unhealthy steps before the ladder demotes one tier.
  std::uint32_t demote_after = 3;

  /// Consecutive healthy steps before the ladder promotes one tier.
  std::uint32_t promote_after = 16;
};

/// Per-step health findings, attached to StepStats when health checks are
/// enabled. Default-constructed state means "nothing wrong".
struct HealthReport {
  std::uint64_t nan_moments = 0;      ///< non-finite deposited moment nodes
  std::uint64_t nan_potentials = 0;   ///< non-finite solved potential nodes
  std::uint64_t nan_forces = 0;       ///< non-finite gathered force samples
  std::uint64_t quarantined_cells = 0;   ///< grid nodes zeroed before solve
  std::uint64_t recomputed_points = 0;   ///< nodes re-solved by repair solver
  std::uint64_t sanitized_forecasts = 0; ///< forecast values clipped to sane
  bool dropped_charge_exceeded = false;  ///< beam loss above threshold
  bool forecast_corrupt = false;         ///< sanitized fraction too high
  bool forecast_mae_drift = false;       ///< MAE blew past the EMA baseline
  bool solver_exception = false;         ///< active solver threw mid-step
  std::uint32_t tier = 0;                ///< ladder tier used for this step
  bool demoted = false;                  ///< ladder moved down after this step
  bool promoted = false;                 ///< ladder moved up after this step

  /// True when the step showed no violations (quarantine/recompute counts
  /// are remediation, not violations by themselves; they follow from
  /// nan_moments/nan_potentials which do count).
  bool healthy() const {
    return nan_moments == 0 && nan_potentials == 0 && nan_forces == 0 &&
           !dropped_charge_exceeded && !forecast_corrupt &&
           !forecast_mae_drift && !solver_exception;
  }
};

/// Scans phase outputs and tracks the forecast-MAE baseline.
class HealthMonitor {
 public:
  explicit HealthMonitor(HealthThresholds thresholds = {})
      : thresholds_(thresholds) {}

  /// Number of non-finite entries in `values` (no mutation).
  static std::uint64_t count_non_finite(std::span<const double> values);

  /// Zero every non-finite entry in `values`; returns how many were hit.
  static std::uint64_t quarantine_non_finite(std::span<double> values);

  /// Feed one step's forecast MAE. Returns true when the sample exceeds
  /// the drift threshold. Violating samples are NOT folded into the EMA
  /// baseline (one poisoned step must not normalize the next one).
  bool observe_mae(double mae);

  /// Forget the MAE baseline (after a predictor reset).
  void reset();

  void save(util::BinaryWriter& out) const;
  void load(util::BinaryReader& in);

 private:
  HealthThresholds thresholds_;
  double mae_baseline_ = 0.0;
  std::uint32_t mae_samples_ = 0;
};

/// Tier state machine: tier 0 is the primary (predictive) solver, higher
/// tiers are progressively simpler fallbacks; the last tier must always
/// succeed (full adaptive quadrature). Demotion is sticky within a streak:
/// the unhealthy counter resets on any healthy step and vice versa.
class DegradationLadder {
 public:
  DegradationLadder(std::uint32_t num_tiers, std::uint32_t demote_after,
                    std::uint32_t promote_after);

  std::uint32_t tier() const { return tier_; }
  std::uint32_t num_tiers() const { return num_tiers_; }

  /// Record one step's verdict. Returns +1 if the ladder demoted (moved to
  /// a higher-numbered, simpler tier), -1 if it promoted, 0 otherwise.
  int on_step(bool healthy);

  /// Back to tier 0 with clean streaks (independent runs).
  void reset();

  /// Supervisor-driven demotion: move one rung down immediately (no streak
  /// accounting) and reset both streaks. Returns true if a demotion
  /// happened, false when already on the last rung. Used by the fleet
  /// watchdog when a job overruns its step deadline.
  bool force_demote();

  void save(util::BinaryWriter& out) const;
  void load(util::BinaryReader& in);

 private:
  std::uint32_t num_tiers_;
  std::uint32_t demote_after_;
  std::uint32_t promote_after_;
  std::uint32_t tier_ = 0;
  std::uint32_t unhealthy_streak_ = 0;
  std::uint32_t healthy_streak_ = 0;
};

}  // namespace bd::core
