#pragma once
/// Shared fixtures for solver-level tests: a small rp-problem over a
/// continuum-filled (noise-free) moment history, a bitwise KernelMetrics
/// comparison, a bitwise integrand-vs-reference comparison, a one-query
/// regressor prediction and an n-step simulation run.

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <span>
#include <vector>

#include "beam/analytic.hpp"
#include "beam/history.hpp"
#include "beam/units.hpp"
#include "beam/wake.hpp"
#include "core/problem.hpp"
#include "core/simulation.hpp"
#include "quad/integrand.hpp"
#include "simt/metrics.hpp"
#include "simt_oracle.hpp"

namespace bd::testing {

/// Runs `f.eval_batch` on u[0..n) and the reference integrand `ref` on the
/// same samples, each into its own LaneTrace, and checks that they agree
/// bit for bit: every value, the flop total, and the load, branch and loop
/// streams in order (site, address and width of every load).
inline void expect_batch_matches_reference(const quad::RadialIntegrand& f,
                                           const quad::RadialIntegrand& ref,
                                           const double* u, std::size_t n) {
  ASSERT_LE(n, quad::kBatchWidth);
  LaneTrace got_trace, ref_trace;
  double got[quad::kBatchWidth], want[quad::kBatchWidth];
  f.eval_batch(u, got, n, got_trace);
  ref.eval_batch(u, want, n, ref_trace);
  for (std::size_t k = 0; k < n; ++k) {
    // Bits, not values: NaN and signed zeros must match too.
    EXPECT_EQ(std::memcmp(&got[k], &want[k], sizeof(double)), 0)
        << "sample " << k << " (u = " << u[k] << "): " << got[k]
        << " vs reference " << want[k];
  }
  EXPECT_EQ(got_trace.flops(), ref_trace.flops());
  ASSERT_EQ(got_trace.loads().size(), ref_trace.loads().size());
  for (std::size_t i = 0; i < ref_trace.loads().size(); ++i) {
    const LoadEvent& a = ref_trace.loads()[i];
    const LoadEvent& b = got_trace.loads()[i];
    ASSERT_EQ(b.site, a.site) << "load " << i;
    ASSERT_EQ(b.addr, a.addr) << "load " << i;
    ASSERT_EQ(b.bytes, a.bytes) << "load " << i;
  }
  ASSERT_EQ(got_trace.branches().size(), ref_trace.branches().size());
  for (std::size_t i = 0; i < ref_trace.branches().size(); ++i) {
    ASSERT_EQ(got_trace.branches()[i].site, ref_trace.branches()[i].site)
        << "branch " << i;
    ASSERT_EQ(got_trace.branches()[i].taken, ref_trace.branches()[i].taken)
        << "branch " << i;
  }
  EXPECT_EQ(got_trace.loops().size(), ref_trace.loops().size());
}

/// One query's prediction from a fitted KNNRegressor or RidgeRegressor,
/// through the allocation-free predict_into the solvers call.
template <typename Model>
std::vector<double> predict(const Model& model,
                            std::span<const double> features) {
  std::vector<double> out(model.target_dim());
  model.predict_into(features, out);
  return out;
}

/// Runs `n` steps of `sim` and returns their statistics in step order.
inline std::vector<core::StepStats> run_steps(core::Simulation& sim,
                                              std::size_t n) {
  std::vector<core::StepStats> all;
  all.reserve(n);
  for (std::size_t i = 0; i < n; ++i) all.push_back(sim.step());
  return all;
}

/// Bit-for-bit comparison of every KernelMetrics field the paper reports.
inline void expect_identical(const simt::KernelMetrics& a,
                             const simt::KernelMetrics& b) {
  EXPECT_EQ(a.flops, b.flops);
  EXPECT_EQ(a.warp_instructions, b.warp_instructions);
  EXPECT_EQ(a.active_lane_slots, b.active_lane_slots);
  EXPECT_EQ(a.lane_slots, b.lane_slots);
  EXPECT_EQ(a.branch_events, b.branch_events);
  EXPECT_EQ(a.divergent_branches, b.divergent_branches);
  EXPECT_EQ(a.load_instructions, b.load_instructions);
  EXPECT_EQ(a.bytes_requested, b.bytes_requested);
  EXPECT_EQ(a.bytes_transferred, b.bytes_transferred);
  EXPECT_EQ(a.l1_transactions, b.l1_transactions);
  EXPECT_EQ(a.l1.hits, b.l1.hits);
  EXPECT_EQ(a.l1.misses, b.l1.misses);
  EXPECT_EQ(a.l2.hits, b.l2.hits);
  EXPECT_EQ(a.l2.misses, b.l2.misses);
  EXPECT_EQ(a.dram_bytes, b.dram_bytes);
  EXPECT_EQ(a.warp_size, b.warp_size);
  // Exact equality on purpose: the replay and time model must see the same
  // counters in the same order regardless of threading.
  EXPECT_EQ(a.modeled_seconds, b.modeled_seconds);
  EXPECT_EQ(a.warp_execution_efficiency(), b.warp_execution_efficiency());
  EXPECT_EQ(a.l1_hit_rate(), b.l1_hit_rate());
}

/// Owns everything an RpProblem points to.
struct ProblemFixture {
  beam::GridSpec spec;
  beam::BeamParams params;
  beam::WakeModel model;
  std::unique_ptr<beam::GridHistory> history;
  core::RpProblem problem;

  explicit ProblemFixture(std::uint32_t n = 32, double tolerance = 1e-6,
                          std::uint32_t subregions = 12)
      : spec(beam::make_centered_grid(n, n, 6.0, 6.0)),
        model(beam::WakeModel::longitudinal()) {
    history = std::make_unique<beam::GridHistory>(spec, subregions + 4);
    beam::Grid2D rho(spec), grad(spec);
    for (std::uint32_t iy = 0; iy < spec.ny; ++iy) {
      for (std::uint32_t ix = 0; ix < spec.nx; ++ix) {
        const double x = spec.x_at(ix);
        const double y = spec.y_at(iy);
        rho.at(ix, iy) = beam::gaussian_pdf(x, params.sigma_s) *
                         beam::gaussian_pdf(y, params.sigma_y);
        grad.at(ix, iy) = beam::gaussian_pdf_prime(x, params.sigma_s) *
                          beam::gaussian_pdf(y, params.sigma_y);
      }
    }
    history->fill_all(100, rho, grad);

    problem.history = history.get();
    problem.model = &model;
    problem.step = 100;
    problem.sub_width = 1.0;
    problem.num_subregions = subregions;
    problem.tolerance = tolerance;
  }

  /// Advance the (static) history by one step so stateful solvers can be
  /// stepped repeatedly.
  void advance() {
    beam::Grid2D rho(spec), grad(spec);
    for (std::uint32_t iy = 0; iy < spec.ny; ++iy) {
      for (std::uint32_t ix = 0; ix < spec.nx; ++ix) {
        const double x = spec.x_at(ix);
        const double y = spec.y_at(iy);
        rho.at(ix, iy) = beam::gaussian_pdf(x, params.sigma_s) *
                         beam::gaussian_pdf(y, params.sigma_y);
        grad.at(ix, iy) = beam::gaussian_pdf_prime(x, params.sigma_s) *
                          beam::gaussian_pdf(y, params.sigma_y);
      }
    }
    history->push_step(history->latest_step() + 1, rho, grad);
    problem.step = history->latest_step();
  }

  /// Analytic continuum force at grid node (ix, iy).
  double exact(std::uint32_t ix, std::uint32_t iy) const {
    return beam::analytic_force(spec.x_at(ix), spec.y_at(iy), model, params,
                                problem.r_max(), 1e-11);
  }
};

}  // namespace bd::testing
