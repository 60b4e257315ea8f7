#include "ml/knn.hpp"

#include <algorithm>
#include <cmath>

#include "util/check.hpp"

namespace bd::ml {

void KNNRegressor::fit(const Dataset& data) {
  BD_CHECK_MSG(!data.empty(), "kNN fit on empty dataset");
  train_ = data;
  scaler_.fit(train_);
  scaled_features_.clear();
  scaled_features_.reserve(train_.size() * train_.feature_dim());
  for (std::size_t i = 0; i < train_.size(); ++i) {
    auto row = train_.features(i);
    std::vector<double> f(row.begin(), row.end());
    scaler_.transform(f);
    scaled_features_.insert(scaled_features_.end(), f.begin(), f.end());
  }
  tree_.build(scaled_features_, train_.size(), train_.feature_dim());
}

std::size_t KNNRegressor::predict_into(std::span<const double> features,
                                       std::span<double> out) const {
  BD_CHECK_MSG(fitted(), "predict before fit");
  BD_CHECK(features.size() == train_.feature_dim());
  BD_CHECK(out.size() == train_.target_dim());

  thread_local std::vector<double> query;
  thread_local std::vector<Neighbor> neighbors;
  query.assign(features.begin(), features.end());
  scaler_.transform(query);
  const std::size_t visited = tree_.query(query, k_, neighbors);

  std::fill(out.begin(), out.end(), 0.0);
  double weight_sum = 0.0;
  for (const Neighbor& n : neighbors) {
    const double d = std::sqrt(n.squared_dist);
    if (d < 1e-12) {
      // Exact match: return its target directly.
      const auto target = train_.targets(n.index);
      std::copy(target.begin(), target.end(), out.begin());
      return visited;
    }
    const double w = 1.0 / d;
    const auto target = train_.targets(n.index);
    for (std::size_t c = 0; c < out.size(); ++c) out[c] += w * target[c];
    weight_sum += w;
  }
  BD_CHECK(weight_sum > 0.0);
  for (double& v : out) v /= weight_sum;
  return visited;
}

}  // namespace bd::ml
