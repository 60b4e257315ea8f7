/// Tests for k-means clustering (RP-CLUSTERING's engine).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>
#include <span>

#include "ml/kmeans.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"
#include "util/telemetry.hpp"

namespace bd::ml {
namespace {

/// Three well-separated 2-D blobs.
std::vector<double> three_blobs(std::size_t per_blob, util::Rng& rng) {
  const double centers[3][2] = {{0, 0}, {10, 0}, {0, 10}};
  std::vector<double> pts;
  for (int b = 0; b < 3; ++b) {
    for (std::size_t i = 0; i < per_blob; ++i) {
      pts.push_back(centers[b][0] + rng.normal(0.0, 0.5));
      pts.push_back(centers[b][1] + rng.normal(0.0, 0.5));
    }
  }
  return pts;
}

TEST(KMeans, RecoversSeparatedBlobs) {
  util::Rng rng(5);
  const std::vector<double> pts = three_blobs(50, rng);
  KMeansConfig config;
  config.clusters = 3;
  const KMeansResult result = kmeans(pts, 150, 2, config);
  // Each blob maps to one cluster: members of a blob share assignment.
  for (int b = 0; b < 3; ++b) {
    const std::uint32_t label = result.assignment[static_cast<std::size_t>(b) * 50];
    int agree = 0;
    for (int i = 0; i < 50; ++i) {
      if (result.assignment[static_cast<std::size_t>(b) * 50 +
                            static_cast<std::size_t>(i)] == label) {
        ++agree;
      }
    }
    EXPECT_GE(agree, 49) << "blob " << b;
  }
  // Distinct blobs get distinct labels.
  std::set<std::uint32_t> labels;
  for (int b = 0; b < 3; ++b) labels.insert(result.assignment[static_cast<std::size_t>(b) * 50]);
  EXPECT_EQ(labels.size(), 3u);
}

TEST(KMeans, InertiaDecreasesWithMoreClusters) {
  util::Rng rng(7);
  const std::vector<double> pts = three_blobs(40, rng);
  double prev = 1e300;
  for (std::size_t k : {1, 2, 3, 6}) {
    KMeansConfig config;
    config.clusters = k;
    const KMeansResult r = kmeans(pts, 120, 2, config);
    EXPECT_LE(r.inertia, prev * 1.0001) << "k=" << k;
    prev = r.inertia;
  }
}

TEST(KMeans, DeterministicForSeed) {
  util::Rng rng(9);
  const std::vector<double> pts = three_blobs(30, rng);
  KMeansConfig config;
  config.clusters = 4;
  const KMeansResult a = kmeans(pts, 90, 2, config);
  const KMeansResult b = kmeans(pts, 90, 2, config);
  EXPECT_EQ(a.assignment, b.assignment);
  EXPECT_EQ(a.inertia, b.inertia);
}

TEST(KMeans, SizesSumToCount) {
  util::Rng rng(13);
  const std::vector<double> pts = three_blobs(20, rng);
  KMeansConfig config;
  config.clusters = 5;
  const KMeansResult r = kmeans(pts, 60, 2, config);
  std::size_t total = 0;
  for (std::uint32_t s : r.sizes) total += s;
  EXPECT_EQ(total, 60u);
}

TEST(KMeans, KEqualsCountGivesSingletons) {
  const std::vector<double> pts{0.0, 0.0, 5.0, 5.0, 9.0, 1.0};
  KMeansConfig config;
  config.clusters = 3;
  const KMeansResult r = kmeans(pts, 3, 2, config);
  std::set<std::uint32_t> labels(r.assignment.begin(), r.assignment.end());
  EXPECT_EQ(labels.size(), 3u);
  EXPECT_NEAR(r.inertia, 0.0, 1e-12);
}

TEST(KMeans, ValidatesArguments) {
  const std::vector<double> pts{0.0, 1.0};
  KMeansConfig config;
  config.clusters = 3;
  EXPECT_THROW(kmeans(pts, 2, 1, config), bd::CheckError);  // k > count
  EXPECT_THROW(kmeans(pts, 3, 1, config), bd::CheckError);  // size mismatch
}

TEST(AssignBalanced, NearestWhenUnconstrained) {
  const std::vector<double> pts{0.0, 1.0, 9.0, 10.0};
  const std::vector<double> centroids{0.5, 9.5};
  const auto a = assign_balanced(pts, 4, 1, centroids, 2, 0);
  EXPECT_EQ(a, (std::vector<std::uint32_t>{0, 0, 1, 1}));
}

TEST(AssignBalanced, CapacityForcesSpill) {
  // All four points nearest centroid 0, but capacity 2 forces two of them
  // (the least-urgent) to centroid 1.
  const std::vector<double> pts{0.0, 0.1, 0.2, 0.3};
  const std::vector<double> centroids{0.0, 5.0};
  const auto a = assign_balanced(pts, 4, 1, centroids, 2, 2);
  int to_zero = 0;
  for (auto c : a) {
    if (c == 0) ++to_zero;
  }
  EXPECT_EQ(to_zero, 2);
}

TEST(AssignBalanced, ImpossibleCapacityThrows) {
  const std::vector<double> pts{0.0, 1.0, 2.0};
  const std::vector<double> centroids{0.0};
  EXPECT_THROW(assign_balanced(pts, 3, 1, centroids, 1, 2), bd::CheckError);
}

// ---------------------------------------------------------------------------
// Pruned Lloyd engine (triangle-inequality bounds)
// ---------------------------------------------------------------------------

/// Mixed data: blobs plus uniform background, the shape that exercises
/// both heavy pruning (stable interior points) and bound invalidation
/// (points near cluster boundaries).
std::vector<double> mixed_points(std::size_t n, std::size_t dim,
                                 util::Rng& rng) {
  std::vector<double> pts(n * dim);
  for (std::size_t i = 0; i < n; ++i) {
    const double offset = (i % 3) * 4.0;
    for (std::size_t d = 0; d < dim; ++d) {
      pts[i * dim + d] = (i % 7 == 0) ? rng.uniform() * 12.0
                                      : offset + rng.normal(0.0, 0.8);
    }
  }
  return pts;
}

/// Exact Lloyd, the oracle for the pruned engine. Each iteration is a
/// one-iteration kmeans_weighted run from the previous centroids, and a
/// run's first iteration scans every centroid for every point; the seeds
/// come from a zero-iteration run (k-means++ only). The stopping rule is
/// the engine's: relative inertia improvement below the tolerance.
KMeansResult exact_lloyd(std::span<const double> pts, std::size_t n,
                         std::size_t dim, const KMeansConfig& config) {
  KMeansConfig one = config;
  one.max_iterations = 0;
  KMeansResult result = kmeans(pts, n, dim, one);
  one.max_iterations = 1;
  double prev_inertia = std::numeric_limits<double>::max();
  for (std::size_t iter = 0; iter < config.max_iterations; ++iter) {
    const std::vector<double> centroids = result.centroids;
    result = kmeans_weighted(pts, n, dim, {}, centroids, one);
    result.iterations = iter + 1;
    if (prev_inertia < std::numeric_limits<double>::max() &&
        std::abs(prev_inertia - result.inertia) /
                std::max(1e-30, prev_inertia) <
            config.tolerance) {
      break;
    }
    prev_inertia = result.inertia;
  }
  return result;
}

TEST(KMeansPruned, BitwiseIdenticalToExact) {
  // The pruned engine must be indistinguishable from exact Lloyd — not
  // approximately: bit-for-bit, across seeds, dimensions and cluster
  // counts, including iteration counts (same convergence decisions).
  for (std::uint64_t seed : {1u, 7u, 42u, 1234u}) {
    for (std::size_t dim : {1u, 2u, 5u}) {
      for (std::size_t k : {1u, 3u, 8u}) {
        util::Rng rng(seed * 131 + dim);
        const std::size_t n = 300;
        const std::vector<double> pts = mixed_points(n, dim, rng);
        KMeansConfig config;
        config.clusters = k;
        config.seed = seed;
        config.max_iterations = 20;
        const KMeansResult a = exact_lloyd(pts, n, dim, config);
        const KMeansResult b = kmeans(pts, n, dim, config);
        const auto ctx = [&] {
          return ::testing::Message()
                 << "seed=" << seed << " dim=" << dim << " k=" << k;
        };
        EXPECT_EQ(a.assignment, b.assignment) << ctx();
        EXPECT_EQ(a.centroids, b.centroids) << ctx();
        EXPECT_EQ(a.sizes, b.sizes) << ctx();
        EXPECT_EQ(a.inertia, b.inertia) << ctx();
        EXPECT_EQ(a.iterations, b.iterations) << ctx();
      }
    }
  }
}

TEST(KMeansPruned, ActuallyPrunesAndCountsDistances) {
  util::Rng rng(3);
  const std::size_t n = 600;
  const std::vector<double> pts = mixed_points(n, 2, rng);
  util::telemetry::MetricsRegistry local;
  std::uint64_t pruned_d = 0;
  std::uint64_t full_d = 0;
  {
    util::telemetry::TelemetryScope scope(&local, nullptr);
    KMeansConfig config;
    config.clusters = 6;
    config.max_iterations = 25;
    kmeans(pts, n, 2, config);
    const auto snap = local.snapshot();
    pruned_d = snap.counters.at("kmeans.pruned_distances");
    full_d = snap.counters.at("kmeans.full_distances");
  }
  // Separated blobs converge with most interior points pruned after the
  // first pass; both counters must be live.
  EXPECT_GT(pruned_d, 0u);
  EXPECT_GT(full_d, 0u);
}

// ---------------------------------------------------------------------------
// Weighted k-means
// ---------------------------------------------------------------------------

TEST(KMeansWeighted, WeightsPullTheCentroid) {
  // One cluster, two points: the centroid is the weighted mean.
  const std::vector<double> pts{0.0, 10.0};
  const std::vector<double> weights{1.0, 9.0};
  const std::vector<double> init{5.0};
  KMeansConfig config;
  config.clusters = 1;
  const KMeansResult r = kmeans_weighted(pts, 2, 1, weights, init, config);
  EXPECT_DOUBLE_EQ(r.centroids[0], 9.0);
}

TEST(KMeansWeighted, UniformWeightsMatchUnweighted) {
  util::Rng rng(17);
  const std::size_t n = 120;
  const std::vector<double> pts = mixed_points(n, 2, rng);
  const std::vector<double> init{0.0, 0.0, 4.0, 4.0, 8.0, 8.0};
  KMeansConfig config;
  config.clusters = 3;
  const KMeansResult plain = kmeans_weighted(pts, n, 2, {}, init, config);
  const std::vector<double> weights(n, 3.0);
  const KMeansResult scaled = kmeans_weighted(pts, n, 2, weights, init, config);
  // Constant weights cancel out of the centroid update; the objective is
  // scaled by the constant.
  EXPECT_EQ(plain.assignment, scaled.assignment);
  for (std::size_t i = 0; i < plain.centroids.size(); ++i) {
    EXPECT_NEAR(plain.centroids[i], scaled.centroids[i], 1e-9) << i;
  }
  EXPECT_NEAR(scaled.inertia, 3.0 * plain.inertia,
              1e-9 * (1.0 + plain.inertia));
}

TEST(KMeansWeighted, WarmStartSkipsSeeding) {
  // Warm-started runs must not consume RNG draws: two different seeds with
  // the same initial centroids produce identical results.
  util::Rng rng(23);
  const std::size_t n = 90;
  const std::vector<double> pts = mixed_points(n, 2, rng);
  const std::vector<double> init{0.0, 0.0, 4.0, 4.0};
  KMeansConfig a;
  a.clusters = 2;
  a.seed = 1;
  KMeansConfig b = a;
  b.seed = 999;
  const KMeansResult ra = kmeans_weighted(pts, n, 2, {}, init, a);
  const KMeansResult rb = kmeans_weighted(pts, n, 2, {}, init, b);
  EXPECT_EQ(ra.assignment, rb.assignment);
  EXPECT_EQ(ra.centroids, rb.centroids);
  EXPECT_EQ(ra.inertia, rb.inertia);
}

TEST(KMeansWeighted, ValidatesArguments) {
  const std::vector<double> pts{0.0, 1.0, 2.0, 3.0};
  KMeansConfig config;
  config.clusters = 2;
  // Wrong weight count.
  EXPECT_THROW(kmeans_weighted(pts, 4, 1, std::vector<double>{1.0}, {},
                               config),
               bd::CheckError);
  // Non-positive weight.
  EXPECT_THROW(kmeans_weighted(pts, 4, 1,
                               std::vector<double>{1.0, 1.0, 0.0, 1.0}, {},
                               config),
               bd::CheckError);
  // Wrong warm-start shape.
  EXPECT_THROW(kmeans_weighted(pts, 4, 1, {}, std::vector<double>{1.0},
                               config),
               bd::CheckError);
}

TEST(KMeans, EmptyClusterReseedPicksDistinctPoints) {
  // Seed three centroids far from every point: all points go to centroid
  // 0, clusters 1-3 come up empty and must re-seed from three *distinct*
  // farthest points (the old code could hand two empties the same point).
  std::vector<double> pts;
  for (int i = 0; i < 8; ++i) pts.push_back(static_cast<double>(i));
  const std::vector<double> init{3.5, 1000.0, 2000.0, 3000.0};
  KMeansConfig config;
  config.clusters = 4;
  config.max_iterations = 1;
  const KMeansResult r = kmeans_weighted(pts, 8, 1, {}, init, config);
  const std::set<double> reseeded{r.centroids[1], r.centroids[2],
                                  r.centroids[3]};
  EXPECT_EQ(reseeded.size(), 3u);
  for (const double c : reseeded) {
    EXPECT_NE(std::find(pts.begin(), pts.end(), c), pts.end()) << c;
  }
}

}  // namespace
}  // namespace bd::ml
