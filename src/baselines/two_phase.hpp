#pragma once
/// \file two_phase.hpp
/// Two-Phase-RP kernel (paper ref [9]) — the first high-performance
/// parallel algorithm for this computation: a globally adaptive parallel
/// quadrature. Phase 1 evaluates a fixed first-level subdivision (one
/// Simpson interval per radial subregion) at every grid point, thread =
/// point in row-major order. Phase 2 processes all non-converged intervals
/// with per-thread adaptive quadrature — the divergent, irregular pass that
/// dominates its runtime. The solver keeps no cross-step state; every step
/// pays the full adaptive cost.

#include "core/solver.hpp"

namespace bd::baselines {

class TwoPhaseSolver final : public core::RpSolver {
 public:
  explicit TwoPhaseSolver(simt::DeviceSpec device)
      : device_(std::move(device)) {}

  core::SolveResult solve(const core::RpProblem& problem) override;
  const char* name() const override { return "two-phase-rp"; }
  void reset() override {}

 private:
  simt::DeviceSpec device_;
};

}  // namespace bd::baselines
