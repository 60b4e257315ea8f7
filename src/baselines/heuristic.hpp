#pragma once
/// \file heuristic.hpp
/// Heuristic-RP kernel (paper ref [10]) — previously the fastest known GPU
/// implementation, which the paper's Predictive-RP is measured against.
/// Two heuristics reduce the Two-Phase algorithm's irregularity:
///
///  1. *Partition reuse / data locality*: each grid point starts from the
///     exact partition it used at the previous time step (patterns between
///     steps are loosely similar), so most intervals pass immediately;
///     intervals that fail are refined by the adaptive fallback and the
///     refinement is folded into the stored partition.
///  2. *Workload balance*: points are bucketed by the coarse size of their
///     partition (log2) before being chunked into thread blocks, so lanes
///     of a warp execute similar trip counts; row-major order within a
///     bucket preserves spatial locality.
///
/// Unlike Predictive-RP there is no learned model and no coarsening
/// estimate: reuse is strictly per-point history, refinement-only — the
/// partition converges onto (a superset of) what adaptive quadrature
/// needed, which is exactly the behaviour of [10].

#include <vector>

#include "core/solver.hpp"
#include "quad/partition_set.hpp"

namespace bd::baselines {

class HeuristicSolver final : public core::RpSolver {
 public:
  explicit HeuristicSolver(simt::DeviceSpec device)
      : device_(std::move(device)) {}

  core::SolveResult solve(const core::RpProblem& problem) override;
  const char* name() const override { return "heuristic-rp"; }
  void reset() override { previous_partitions_.clear(); }

  /// Checkpoint the carried per-point partitions (heuristic 1's state).
  void save_state(util::BinaryWriter& out) const override;
  void load_state(util::BinaryReader& in) override;

 private:
  simt::DeviceSpec device_;
  /// Per-point partitions carried between steps (heuristic 1).
  quad::PartitionSet previous_partitions_;
};

}  // namespace bd::baselines
