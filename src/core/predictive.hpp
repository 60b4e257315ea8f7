#pragma once
/// \file predictive.hpp
/// Predictive-RP — the paper's contribution (Algorithm 1). Each step:
///
///   1. forecast every grid point's access pattern with the online
///      predictor g learned at the previous step (kNN regression by
///      default, ridge regression as the alternative);
///   2. COMPUTE-PARTITION: transform forecasts into quadrature partitions
///      (§III-C2, uniform or adaptive transform);
///   3. RP-CLUSTERING: k-means over tiles of the forecast patterns groups
///      points of similar access behaviour; every cluster becomes one
///      thread block (one warp per tile with the default 8×4 tiles), and
///      each warp's member partitions are merged (MERGE-LISTS) into one
///      shared partition — lockstep control flow inside the warp, data
///      reuse across the block;
///   4. COMPUTE-RP-INTEGRAL kernel over the shared partitions;
///   5. RP-ADAPTIVEQUADRATURE fallback on intervals that missed τ
///      (prediction is a performance hint, never a correctness dependency);
///   6. ONLINE-LEARNING: observed patterns retrain the predictor.
///
/// The first step has no trained predictor and bootstraps exactly like the
/// Two-Phase baseline (coarse partition + adaptive fallback), which also
/// provides the first training set.

#include <vector>

#include "core/access_pattern.hpp"
#include "core/clustering.hpp"
#include "core/forecast.hpp"
#include "core/solver.hpp"
#include "ml/online.hpp"
#include "quad/partition_set.hpp"

namespace bd::core {

/// Predictive-RP configuration.
struct PredictiveOptions {
  ml::PredictorKind predictor = ml::PredictorKind::kKnn;
  std::size_t knn_k = ml::kDefaultKnnK;  ///< neighbours per kNN query
  std::size_t training_window = 1;   ///< steps of history kept for training
  PartitionTransform transform = PartitionTransform::kUniform;
  /// m, the number of clusters (thread blocks). 0 sizes one cluster per
  /// SM's worth of resident threads: clamp(N / (resident_warps_per_sm ×
  /// warp_size), 4, 1024), i.e. N/512 on the K40. The paper's choice is
  /// m = max(N_X, N_Y).
  std::size_t clusters = 0;
  std::uint32_t tile_w = 8;   ///< tile width (points along s)
  std::uint32_t tile_h = 4;   ///< tile height (points along y)
};

class PredictiveSolver final : public RpSolver {
 public:
  PredictiveSolver(simt::DeviceSpec device, PredictiveOptions options = {});

  SolveResult solve(const RpProblem& problem) override;
  const char* name() const override { return "predictive-rp"; }
  void reset() override;

  /// Checkpoint the learned state: the online predictor's training window,
  /// the previous per-point partitions (adaptive transform), the EMA of
  /// observed patterns and the warm-start centroid cache. A restored
  /// solver replays bit-identically.
  void save_state(util::BinaryWriter& out) const override;
  void load_state(util::BinaryReader& in) override;

  /// Forecast access patterns for the given step using the current model
  /// (exposed for forecast-quality benchmarks). Requires a trained model.
  PatternField forecast(const RpProblem& problem) const;

  /// True once the online predictor has been trained at least once.
  bool trained() const { return predictor_ && predictor_->ready(); }

 private:
  SolveResult solve_bootstrap(const RpProblem& problem);
  SolveResult solve_predictive(const RpProblem& problem);
  void learn(const RpProblem& problem, const PatternField& observed,
             double& train_seconds);

  simt::DeviceSpec device_;
  PredictiveOptions options_;
  std::unique_ptr<ml::OnlinePredictor> predictor_;
  quad::PartitionSet previous_partitions_;  // adaptive transform
  PatternField smoothed_;  ///< EMA of observed patterns (training targets)
  /// Previous step's trained centroids — warm-start seeds for the next
  /// RP-CLUSTERING call (persisted in save_state/load_state so a restored
  /// solver clusters bit-identically).
  ClusteringCache cluster_cache_;
  std::uint64_t warm_start_hits_ = 0;  ///< steps that reused cached seeds
};

}  // namespace bd::core
