#pragma once
/// \file knn.hpp
/// k-nearest-neighbor regression (multi-output) — the paper's choice for
/// the online access-pattern predictor (§III-B1). Features are
/// standardized, neighbours come from a kd-tree and are weighted by
/// inverse distance.

#include <cstdint>
#include <span>
#include <vector>

#include "ml/dataset.hpp"
#include "ml/kdtree.hpp"
#include "ml/scaler.hpp"

namespace bd::ml {

/// Neighbours per query unless a caller sets k.
inline constexpr std::size_t kDefaultKnnK = 4;

/// Multi-output kNN regressor.
class KNNRegressor {
 public:
  /// \param k neighbours per query.
  explicit KNNRegressor(std::size_t k = kDefaultKnnK) : k_(k) {}

  /// Fit from a dataset (copies the data; kNN is instance-based).
  void fit(const Dataset& data);

  /// Predict the target vector for one query point into a caller-provided
  /// buffer of target_dim() values. Reentrant; the scaled query and the
  /// neighbour list live in per-thread scratch, so a warm thread allocates
  /// nothing. Returns the number of kd-tree nodes the query visited.
  std::size_t predict_into(std::span<const double> features,
                           std::span<double> out) const;

  bool fitted() const { return !train_.empty(); }
  std::size_t target_dim() const { return train_.target_dim(); }
  std::size_t k() const { return k_; }

 private:
  std::size_t k_;
  Dataset train_;
  StandardScaler scaler_;
  KdTree tree_;
  std::vector<double> scaled_features_;  // scratch for fit
};

}  // namespace bd::ml
