#include "ml/linreg.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace bd::ml {

namespace {
/// L2 regularization strength.
constexpr double kRidge = 1e-6;
}  // namespace

std::vector<double> RidgeRegressor::expand(
    std::span<const double> features) const {
  std::vector<double> f(features.begin(), features.end());
  scaler_.transform(f);
  std::vector<double> phi;
  phi.push_back(1.0);  // bias
  phi.insert(phi.end(), f.begin(), f.end());
  for (std::size_t i = 0; i < f.size(); ++i) {
    for (std::size_t j = i; j < f.size(); ++j) {
      phi.push_back(f[i] * f[j]);
    }
  }
  return phi;
}

void RidgeRegressor::fit(const Dataset& data) {
  BD_CHECK_MSG(!data.empty(), "ridge fit on empty dataset");
  feature_dim_ = data.feature_dim();
  scaler_.fit(data);

  // Build the design matrix Φ.
  const std::vector<double> probe = expand(data.features(0));
  const std::size_t expanded = probe.size();
  Matrix phi(data.size(), expanded);
  for (std::size_t i = 0; i < data.size(); ++i) {
    const std::vector<double> row = expand(data.features(i));
    std::copy(row.begin(), row.end(), phi.row(i).begin());
  }
  const Matrix y = data.target_matrix();
  const Matrix gram = Matrix::gram(phi);
  const Matrix rhs = Matrix::at_b(phi, y);
  weights_ = spd_solve(gram, rhs, kRidge);
}

void RidgeRegressor::predict_into(std::span<const double> features,
                                  std::span<double> out) const {
  BD_CHECK_MSG(fitted(), "predict before fit");
  BD_CHECK(features.size() == feature_dim_);
  BD_CHECK(out.size() == weights_.cols());
  const std::vector<double> phi = expand(features);
  BD_CHECK(phi.size() == weights_.rows());
  std::fill(out.begin(), out.end(), 0.0);
  for (std::size_t r = 0; r < phi.size(); ++r) {
    const double v = phi[r];
    if (v == 0.0) continue;
    for (std::size_t c = 0; c < out.size(); ++c) {
      out[c] += v * weights_(r, c);
    }
  }
}

}  // namespace bd::ml
