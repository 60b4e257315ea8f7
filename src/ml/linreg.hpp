#pragma once
/// \file linreg.hpp
/// Multi-output ridge (linear) regression via normal equations — the
/// alternative predictor the paper experimented with (§III-B1). Optionally
/// expands features with degree-2 polynomial terms, which the smooth
/// spatial variation of the access patterns rewards.

#include <span>
#include <vector>

#include "ml/dataset.hpp"
#include "ml/linalg.hpp"
#include "ml/scaler.hpp"

namespace bd::ml {

/// Ridge regression hyperparameters.
struct LinRegConfig {
  double ridge = 1e-6;       ///< L2 regularization strength
  bool standardize = true;   ///< scale features first
  int poly_degree = 2;       ///< 1 = plain linear, 2 adds squares & products
};

/// Multi-output linear model Y ≈ Φ(X)·W, solved in closed form.
class RidgeRegressor {
 public:
  explicit RidgeRegressor(LinRegConfig config = {}) : config_(config) {}

  /// Fit weights from the dataset.
  void fit(const Dataset& data);

  /// Predict the target vector for one query point into a caller-provided
  /// buffer of target_dim() values.
  void predict_into(std::span<const double> features,
                    std::span<double> out) const;

  bool fitted() const { return weights_.rows() > 0; }
  std::size_t target_dim() const { return weights_.cols(); }
  const LinRegConfig& config() const { return config_; }

 private:
  std::vector<double> expand(std::span<const double> features) const;

  LinRegConfig config_;
  StandardScaler scaler_;
  Matrix weights_;  // (expanded_dim x target_dim)
  std::size_t feature_dim_ = 0;
};

}  // namespace bd::ml
