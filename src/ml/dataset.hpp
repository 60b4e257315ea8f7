#pragma once
/// \file dataset.hpp
/// Supervised-learning dataset: paired feature and target matrices.
/// Features are grid-point coordinates (x, y[, t]); targets are the
/// per-subregion partition counts (the access pattern).

#include <cstdint>
#include <vector>

#include "ml/linalg.hpp"

namespace bd::ml {

/// Paired (X, Y) with X: n×d features and Y: n×m targets.
class Dataset {
 public:
  Dataset() = default;
  Dataset(std::size_t feature_dim, std::size_t target_dim)
      : feature_dim_(feature_dim), target_dim_(target_dim) {}

  /// Append one example. Feature/target sizes must match the dataset dims.
  void add(std::span<const double> features, std::span<const double> targets);

  /// Reserve capacity for n examples.
  void reserve(std::size_t n);

  std::size_t size() const { return features_.size() / std::max<std::size_t>(1, feature_dim_); }
  std::size_t feature_dim() const { return feature_dim_; }
  std::size_t target_dim() const { return target_dim_; }
  bool empty() const { return features_.empty(); }

  std::span<const double> features(std::size_t i) const {
    return std::span<const double>(features_.data() + i * feature_dim_,
                                   feature_dim_);
  }
  std::span<const double> targets(std::size_t i) const {
    return std::span<const double>(targets_.data() + i * target_dim_,
                                   target_dim_);
  }

  /// Materialize the target matrix (n×m).
  Matrix target_matrix() const;

  /// Remove all examples (dims preserved).
  void clear();

  /// Flat row-major storage, for serialization.
  const std::vector<double>& raw_features() const { return features_; }
  const std::vector<double>& raw_targets() const { return targets_; }

  /// Replace the contents wholesale (deserialization). Sizes must be
  /// consistent multiples of the dataset dims.
  void assign_raw(std::vector<double> features, std::vector<double> targets);

 private:
  std::size_t feature_dim_ = 0;
  std::size_t target_dim_ = 0;
  std::vector<double> features_;
  std::vector<double> targets_;
};

}  // namespace bd::ml
