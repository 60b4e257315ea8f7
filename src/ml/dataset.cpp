#include "ml/dataset.hpp"

#include <algorithm>

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
