#pragma once
/// \file scaler.hpp
/// Feature standardization (zero mean, unit variance per column). kNN is
/// distance-based, so features on different scales (grid index vs time)
/// must be normalized before training.

#include <span>
#include <vector>

namespace bd::ml {

class Dataset;

/// Per-column standardizer: z = (x - mean) / std.
class StandardScaler {
 public:
  /// Fit means/stds from the dataset's features.
  void fit(const Dataset& data);

  /// Transform one feature vector in place.
  void transform(std::span<double> features) const;

  bool fitted() const { return !means_.empty(); }
  std::span<const double> means() const { return means_; }

 private:
  std::vector<double> means_;
  std::vector<double> stds_;
};

}  // namespace bd::ml
