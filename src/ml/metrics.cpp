#include "ml/metrics.hpp"

#include <cmath>

#include "util/check.hpp"
#include "util/stats.hpp"

namespace bd::ml {

double mae(std::span<const double> predicted, std::span<const double> truth) {
  BD_CHECK(predicted.size() == truth.size());
  if (predicted.empty()) return 0.0;
  double acc = 0.0;
  for (std::size_t i = 0; i < predicted.size(); ++i) {
    acc += std::abs(predicted[i] - truth[i]);
  }
  return acc / static_cast<double>(predicted.size());
}

double r2_score(std::span<const double> predicted,
                std::span<const double> truth) {
  BD_CHECK(predicted.size() == truth.size());
  BD_CHECK_MSG(!truth.empty(), "r2 of empty data");
  const double mu = util::mean(truth);
  double ss_res = 0.0, ss_tot = 0.0;
  for (std::size_t i = 0; i < truth.size(); ++i) {
    ss_res += (truth[i] - predicted[i]) * (truth[i] - predicted[i]);
    ss_tot += (truth[i] - mu) * (truth[i] - mu);
  }
  if (ss_tot <= 0.0) return ss_res <= 0.0 ? 1.0 : 0.0;
  return 1.0 - ss_res / ss_tot;
}

}  // namespace bd::ml
