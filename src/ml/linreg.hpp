#pragma once
/// \file linreg.hpp
/// Multi-output ridge (linear) regression via normal equations — the
/// alternative predictor the paper experimented with (§III-B1). Features
/// are standardized and expanded with degree-2 polynomial terms, which the
/// smooth spatial variation of the access patterns rewards.

#include <span>
#include <vector>

#include "ml/dataset.hpp"
#include "ml/linalg.hpp"
#include "ml/scaler.hpp"

namespace bd::ml {

/// Multi-output linear model Y ≈ Φ(X)·W, solved in closed form with L2
/// strength 1e-6. Φ(x) is the bias, the standardized features z and every
/// product z_i·z_j (i ≤ j).
class RidgeRegressor {
 public:
  /// Fit weights from the dataset.
  void fit(const Dataset& data);

  /// Predict the target vector for one query point into a caller-provided
  /// buffer of target_dim() values.
  void predict_into(std::span<const double> features,
                    std::span<double> out) const;

  bool fitted() const { return weights_.rows() > 0; }
  std::size_t target_dim() const { return weights_.cols(); }

 private:
  std::vector<double> expand(std::span<const double> features) const;

  StandardScaler scaler_;
  Matrix weights_;  // (expanded_dim x target_dim)
  std::size_t feature_dim_ = 0;
};

}  // namespace bd::ml
