#pragma once
/// \file knn.hpp
/// k-nearest-neighbor regression (multi-output) — the paper's choice for
/// the online access-pattern predictor (§III-B1). Supports uniform and
/// inverse-distance weighting; neighbours come from a kd-tree.

#include <cstdint>
#include <span>
#include <vector>

#include "ml/dataset.hpp"
#include "ml/kdtree.hpp"
#include "ml/scaler.hpp"

namespace bd::ml {

/// kNN hyperparameters.
struct KnnConfig {
  std::size_t k = 4;
  bool distance_weighted = true;  ///< 1/d weights (uniform otherwise)
  bool standardize = true;        ///< scale features before distances
};

/// Multi-output kNN regressor.
class KNNRegressor {
 public:
  explicit KNNRegressor(KnnConfig config = {}) : config_(config) {}

  /// Fit from a dataset (copies the data; kNN is instance-based).
  void fit(const Dataset& data);

  /// Predict the target vector for one query point into a caller-provided
  /// buffer of target_dim() values (avoids allocation in loops).
  void predict_into(std::span<const double> features,
                    std::span<double> out) const;

  bool fitted() const { return !train_.empty(); }
  std::size_t target_dim() const { return train_.target_dim(); }
  const KnnConfig& config() const { return config_; }

 private:
  KnnConfig config_;
  Dataset train_;
  StandardScaler scaler_;
  KdTree tree_;
  std::vector<double> scaled_features_;  // scratch for fit
};

}  // namespace bd::ml
