/// Tests for kNN regression (the paper's access-pattern predictor).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "ml/knn.hpp"
#include "ml/linalg.hpp"
#include "util/check.hpp"
#include "test_helpers.hpp"
#include "util/rng.hpp"

namespace bd::ml {
namespace {

using bd::testing::predict;

Dataset linear_surface(std::size_t n, util::Rng& rng) {
  // y0 = 2x0 + x1, y1 = -x0 (multi-output).
  Dataset d(2, 2);
  for (std::size_t i = 0; i < n; ++i) {
    const double x0 = rng.uniform(-1, 1);
    const double x1 = rng.uniform(-1, 1);
    d.add(std::vector<double>{x0, x1},
          std::vector<double>{2 * x0 + x1, -x0});
  }
  return d;
}

TEST(Knn, ExactMatchReturnsStoredTarget) {
  Dataset d(1, 1);
  d.add(std::vector<double>{1.0}, std::vector<double>{10.0});
  d.add(std::vector<double>{2.0}, std::vector<double>{20.0});
  d.add(std::vector<double>{3.0}, std::vector<double>{30.0});
  KNNRegressor knn(2);
  knn.fit(d);
  EXPECT_DOUBLE_EQ(predict(knn, std::vector<double>{2.0})[0], 20.0);
}

TEST(Knn, DistanceWeightsFavorCloserNeighbor) {
  Dataset d(1, 1);
  d.add(std::vector<double>{0.0}, std::vector<double>{0.0});
  d.add(std::vector<double>{1.0}, std::vector<double>{10.0});
  KNNRegressor knn(2);
  knn.fit(d);
  // Scaled, the points sit at -1 and 1 and x = 0.25 at -0.5: weights 2 and
  // 2/3 -> prediction 10 * (2/3)/(8/3) = 2.5.
  EXPECT_NEAR(predict(knn, std::vector<double>{0.25})[0], 2.5, 1e-12);
}

/// A standardized copy of one feature vector.
std::vector<double> transformed(const StandardScaler& scaler,
                                std::span<const double> features) {
  std::vector<double> out(features.begin(), features.end());
  scaler.transform(out);
  return out;
}

/// Reference kNN prediction: a brute-force scan over standardized
/// features, k nearest by (squared distance, index), 1/d weights.
std::vector<double> brute_force_predict(const Dataset& d, std::size_t k,
                                        std::vector<double> query) {
  StandardScaler scaler;
  scaler.fit(d);
  scaler.transform(query);
  std::vector<Neighbor> neighbors;
  for (std::size_t i = 0; i < d.size(); ++i) {
    neighbors.push_back(
        Neighbor{i, squared_distance(transformed(scaler, d.features(i)),
                                     query)});
  }
  std::sort(neighbors.begin(), neighbors.end(),
            [](const Neighbor& a, const Neighbor& b) {
              if (a.squared_dist != b.squared_dist) {
                return a.squared_dist < b.squared_dist;
              }
              return a.index < b.index;
            });
  neighbors.resize(std::min(k, neighbors.size()));
  std::vector<double> out(d.target_dim(), 0.0);
  double weight_sum = 0.0;
  for (const Neighbor& n : neighbors) {
    const double dist = std::sqrt(n.squared_dist);
    const auto target = d.targets(n.index);
    if (dist < 1e-12) return {target.begin(), target.end()};
    const double w = 1.0 / dist;
    for (std::size_t c = 0; c < out.size(); ++c) out[c] += w * target[c];
    weight_sum += w;
  }
  for (double& v : out) v /= weight_sum;
  return out;
}

TEST(Knn, BruteAndKdTreeAgree) {
  util::Rng rng(17);
  const Dataset d = linear_surface(200, rng);
  constexpr std::size_t k = 5;
  KNNRegressor with_tree(k);
  with_tree.fit(d);
  for (int q = 0; q < 25; ++q) {
    const std::vector<double> query{rng.uniform(-1, 1), rng.uniform(-1, 1)};
    const auto a = predict(with_tree, query);
    const auto b = brute_force_predict(d, k, query);
    EXPECT_NEAR(a[0], b[0], 1e-10);
    EXPECT_NEAR(a[1], b[1], 1e-10);
  }
}

TEST(Knn, LearnsSmoothSurface) {
  util::Rng rng(23);
  const Dataset d = linear_surface(1000, rng);
  KNNRegressor knn(8);
  knn.fit(d);
  double worst = 0.0;
  for (int q = 0; q < 50; ++q) {
    const double x0 = rng.uniform(-0.8, 0.8);
    const double x1 = rng.uniform(-0.8, 0.8);
    const auto p = predict(knn, std::vector<double>{x0, x1});
    worst = std::max(worst, std::abs(p[0] - (2 * x0 + x1)));
    worst = std::max(worst, std::abs(p[1] + x0));
  }
  EXPECT_LT(worst, 0.25);  // kNN locally averages a Lipschitz surface
}

TEST(Knn, StandardizationMattersForSkewedScales) {
  // Feature 1 carries the signal but has tiny scale; feature 0 is noise
  // with huge scale. Unscaled distances would key on the noise and get
  // about half of the queries right.
  util::Rng rng(29);
  Dataset d(2, 1);
  for (int i = 0; i < 500; ++i) {
    const double signal = rng.uniform(-0.01, 0.01);
    const double noise = rng.uniform(-1000, 1000);
    d.add(std::vector<double>{noise, signal},
          std::vector<double>{signal > 0 ? 1.0 : -1.0});
  }
  KNNRegressor knn(5);
  knn.fit(d);
  int correct = 0;
  for (int q = 0; q < 100; ++q) {
    const double signal = rng.uniform(-0.01, 0.01);
    const std::vector<double> query{rng.uniform(-1000, 1000), signal};
    const double truth = signal > 0 ? 1.0 : -1.0;
    if (predict(knn, query)[0] * truth > 0) ++correct;
  }
  EXPECT_GT(correct, 90);
}

TEST(Knn, PredictBeforeFitThrows) {
  KNNRegressor knn;
  EXPECT_THROW(predict(knn, std::vector<double>{1.0}), bd::CheckError);
}

TEST(Knn, PredictIntoValidatesSizes) {
  Dataset d(1, 2);
  d.add(std::vector<double>{0.0}, std::vector<double>{1.0, 2.0});
  KNNRegressor knn(1);
  knn.fit(d);
  std::vector<double> wrong(1);
  EXPECT_THROW(knn.predict_into(std::vector<double>{0.0}, wrong),
               bd::CheckError);
}

}  // namespace
}  // namespace bd::ml
