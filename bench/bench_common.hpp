#pragma once
/// Shared helpers for the table/figure benchmark binaries: solver
/// construction, warm-up-then-measure runs, metric averaging, and the
/// reader for the checked-in `--check-baseline` files.

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "baselines/heuristic.hpp"
#include "baselines/two_phase.hpp"
#include "core/predictive.hpp"
#include "core/simulation.hpp"
#include "simt/device.hpp"
#include "util/check.hpp"

namespace bd::bench {

/// Whole-file read; empty when the file cannot be opened.
inline std::string read_file(const std::string& path) {
  FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return {};
  std::string text;
  char buf[4096];
  std::size_t got = 0;
  while ((got = std::fread(buf, 1, sizeof buf, f)) > 0) {
    text.append(buf, got);
  }
  std::fclose(f);
  return text;
}

/// Fixed-schema scan of a baseline file: the integer following `"<key>":`
/// inside the object that starts at `anchor` (the search stops at the
/// first `}` after it), or anywhere in the file when `anchor` is empty.
/// Returns -1 when the anchor or the key is missing.
inline long long baseline_value(const std::string& text,
                                const std::string& anchor,
                                const std::string& key) {
  std::size_t at = anchor.empty() ? 0 : text.find(anchor);
  if (at == std::string::npos) return -1;
  const std::size_t end =
      anchor.empty() ? std::string::npos : text.find('}', at);
  const std::string needle = "\"" + key + "\":";
  at = text.find(needle, at);
  if (at == std::string::npos || at > end) return -1;
  return std::strtoll(text.c_str() + at + needle.size(), nullptr, 10);
}

/// Construct a solver by name ("two-phase" | "heuristic" | "predictive").
inline std::unique_ptr<core::RpSolver> make_solver(
    const std::string& kind, const simt::DeviceSpec& device,
    const core::PredictiveOptions& predictive_options = {}) {
  if (kind == "two-phase") {
    return std::make_unique<baselines::TwoPhaseSolver>(device);
  }
  if (kind == "heuristic") {
    return std::make_unique<baselines::HeuristicSolver>(device);
  }
  BD_CHECK_MSG(kind == "predictive", "unknown solver kind: " << kind);
  return std::make_unique<core::PredictiveSolver>(device,
                                                  predictive_options);
}

/// Aggregated measurement of the compute-retarded-potentials stage over
/// the measured steps of one simulation run.
struct SolverMeasurement {
  simt::KernelMetrics metrics;       ///< merged counters (all measured steps)
  double gpu_seconds = 0.0;          ///< summed modeled kernel seconds
  double clustering_seconds = 0.0;   ///< summed host clustering
  double train_seconds = 0.0;        ///< summed host training
  double forecast_seconds = 0.0;     ///< summed host forecasting
  double overall_seconds = 0.0;      ///< gpu + host overheads
  std::uint64_t kernel_intervals = 0;
  std::uint64_t fallback_items = 0;
  std::size_t steps = 0;

  void accumulate(const core::SolveResult& r) {
    metrics += r.metrics;
    gpu_seconds += r.gpu_seconds;
    clustering_seconds += r.clustering_seconds;
    train_seconds += r.train_seconds;
    forecast_seconds += r.forecast_seconds;
    overall_seconds += r.overall_seconds();
    kernel_intervals += r.kernel_intervals;
    fallback_items += r.fallback_items;
    ++steps;
  }
};

/// Run a simulation with the given solver: `warmup` steps are discarded
/// (bootstrap + learning transient), then `measure` steps are aggregated.
inline SolverMeasurement measure_solver(const std::string& kind,
                                        core::SimConfig config,
                                        std::size_t warmup,
                                        std::size_t measure,
                                        const core::PredictiveOptions&
                                            predictive_options = {}) {
  const simt::DeviceSpec device = simt::tesla_k40();
  core::Simulation sim(config,
                       make_solver(kind, device, predictive_options));
  sim.initialize();
  for (std::size_t k = 0; k < warmup; ++k) sim.step();
  SolverMeasurement result;
  for (std::size_t k = 0; k < measure; ++k) {
    const core::StepStats stats = sim.step();
    result.accumulate(stats.longitudinal);
  }
  return result;
}

/// Default benchmark simulation config.
///
/// rigid = true  — the validation workload (Fig. 2/3): stationary bunch,
///                 default wake strength.
/// rigid = false — the performance workload (Tables I/II, Fig. 4): the
///                 bunch evolves under its self-force, so access patterns
///                 drift between steps exactly as in the paper's
///                 production simulations; a stronger wake (amplitude 0.4)
///                 gives the adaptive quadrature the paper's workload
///                 intensity at τ = 1e-6, and dt = 0.5 keeps the evolution
///                 resolved.
inline core::SimConfig bench_config(std::uint32_t grid,
                                    std::size_t particles,
                                    double tolerance = 1e-6,
                                    bool rigid = true) {
  core::SimConfig config;
  config.nx = grid;
  config.ny = grid;
  config.particles = particles;
  config.tolerance = tolerance;
  config.rigid = rigid;
  if (!rigid) {
    config.longitudinal.amplitude = 0.4;
    config.transverse.amplitude = 0.4;
    config.dt = 0.5;
  }
  return config;
}

}  // namespace bd::bench
