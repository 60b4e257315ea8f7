#include "ml/dataset.hpp"

#include <algorithm>
#include <numeric>

#include "util/check.hpp"

namespace bd::ml {

void Dataset::add(std::span<const double> features,
                  std::span<const double> targets) {
  BD_CHECK_MSG(features.size() == feature_dim_,
               "feature size mismatch: " << features.size() << " vs "
                                         << feature_dim_);
  BD_CHECK_MSG(targets.size() == target_dim_,
               "target size mismatch: " << targets.size() << " vs "
                                        << target_dim_);
  features_.insert(features_.end(), features.begin(), features.end());
  targets_.insert(targets_.end(), targets.begin(), targets.end());
}

void Dataset::reserve(std::size_t n) {
  features_.reserve(n * feature_dim_);
  targets_.reserve(n * target_dim_);
}

Matrix Dataset::target_matrix() const {
  Matrix y(size(), target_dim_);
  std::copy(targets_.begin(), targets_.end(), y.data().begin());
  return y;
}

std::pair<Dataset, Dataset> Dataset::split(double test_fraction,
                                           util::Rng& rng) const {
  BD_CHECK(test_fraction >= 0.0 && test_fraction <= 1.0);
  std::vector<std::size_t> order(size());
  std::iota(order.begin(), order.end(), 0);
  // Fisher–Yates with our deterministic RNG.
  for (std::size_t i = order.size(); i > 1; --i) {
    const std::size_t j = rng.uniform_index(i);
    std::swap(order[i - 1], order[j]);
  }
  const auto test_count =
      static_cast<std::size_t>(test_fraction * static_cast<double>(size()));
  Dataset train(feature_dim_, target_dim_);
  Dataset test(feature_dim_, target_dim_);
  train.reserve(size() - test_count);
  test.reserve(test_count);
  for (std::size_t i = 0; i < order.size(); ++i) {
    Dataset& dst = (i < test_count) ? test : train;
    dst.add(features(order[i]), targets(order[i]));
  }
  return {std::move(train), std::move(test)};
}

void Dataset::clear() {
  features_.clear();
  targets_.clear();
}

void Dataset::assign_raw(std::vector<double> features,
                         std::vector<double> targets) {
  BD_CHECK(feature_dim_ > 0 && target_dim_ > 0);
  BD_CHECK_MSG(features.size() % feature_dim_ == 0,
               "raw feature size " << features.size()
                                   << " not a multiple of dim "
                                   << feature_dim_);
  BD_CHECK_MSG(targets.size() % target_dim_ == 0,
               "raw target size " << targets.size()
                                  << " not a multiple of dim " << target_dim_);
  BD_CHECK_MSG(features.size() / feature_dim_ == targets.size() / target_dim_,
               "raw feature/target row counts disagree");
  features_ = std::move(features);
  targets_ = std::move(targets);
}

}  // namespace bd::ml
