#include "ml/scaler.hpp"

#include <cmath>

#include "ml/dataset.hpp"
#include "util/check.hpp"

namespace bd::ml {

void StandardScaler::fit(const Dataset& data) {
  BD_CHECK_MSG(!data.empty(), "cannot fit scaler on an empty dataset");
  const std::size_t dim = data.feature_dim();
  means_.assign(dim, 0.0);
  stds_.assign(dim, 0.0);
  const auto n = static_cast<double>(data.size());
  for (std::size_t i = 0; i < data.size(); ++i) {
    const auto row = data.features(i);
    for (std::size_t c = 0; c < dim; ++c) means_[c] += row[c];
  }
  for (double& m : means_) m /= n;
  for (std::size_t i = 0; i < data.size(); ++i) {
    const auto row = data.features(i);
    for (std::size_t c = 0; c < dim; ++c) {
      const double d = row[c] - means_[c];
      stds_[c] += d * d;
    }
  }
  for (double& s : stds_) {
    s = std::sqrt(s / n);
    if (s < 1e-12) s = 1.0;  // constant column: leave unscaled
  }
}

void StandardScaler::transform(std::span<double> features) const {
  BD_CHECK_MSG(fitted(), "scaler not fitted");
  BD_CHECK(features.size() == means_.size());
  for (std::size_t c = 0; c < features.size(); ++c) {
    features[c] = (features[c] - means_[c]) / stds_[c];
  }
}

}  // namespace bd::ml
