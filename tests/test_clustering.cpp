/// Tests for RP-CLUSTERING (per-point = 1×1 tiles, warp tiles) and the
/// chunked and ordered mappings.

#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "core/clustering.hpp"
#include "ml/coreset.hpp"
#include "util/check.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace bd::core {
namespace {

/// Pattern field with two distinct pattern populations split by x.
PatternField bimodal_patterns(std::size_t nx, std::size_t ny) {
  PatternField field(nx * ny, 2);
  for (std::size_t iy = 0; iy < ny; ++iy) {
    for (std::size_t ix = 0; ix < nx; ++ix) {
      auto p = field.at(iy * nx + ix);
      if (ix < nx / 2) {
        p[0] = 2.0;
        p[1] = 1.0;
      } else {
        p[0] = 16.0;
        p[1] = 8.0;
      }
    }
  }
  return field;
}

/// Per-point k-means: 1×1 tiles, no coordinate features.
RpClusteringOptions per_point_options(std::size_t clusters) {
  RpClusteringOptions options;
  options.clusters = clusters;
  options.tile_w = 1;
  options.tile_h = 1;
  options.spatial_weight = 0.0;
  return options;
}

std::size_t total_members(const ClusterAssignment& a) {
  std::size_t total = 0;
  for (const auto& m : a.members) total += m.size();
  return total;
}

TEST(RpClustering, EveryPointAssignedOnce) {
  const PatternField patterns = bimodal_patterns(8, 8);
  const ClusterAssignment a = rp_clustering(
      patterns, beam::make_centered_grid(8, 8, 1.0, 1.0), per_point_options(4));
  EXPECT_EQ(total_members(a), 64u);
  std::set<std::uint32_t> seen;
  for (const auto& m : a.members) seen.insert(m.begin(), m.end());
  EXPECT_EQ(seen.size(), 64u);
}

TEST(RpClustering, BalancedCapsClusterSize) {
  const PatternField patterns = bimodal_patterns(8, 8);
  const ClusterAssignment a = rp_clustering(
      patterns, beam::make_centered_grid(8, 8, 1.0, 1.0), per_point_options(4));
  EXPECT_LE(a.max_cluster_size, 16u);
}

TEST(RpClustering, SeparatesDistinctPatternPopulations) {
  const PatternField patterns = bimodal_patterns(8, 8);
  const ClusterAssignment a = rp_clustering(
      patterns, beam::make_centered_grid(8, 8, 1.0, 1.0), per_point_options(2));
  // Points 0..3 of a row (left half) should share a cluster distinct from
  // points 4..7 (right half).
  for (const auto& members : a.members) {
    bool has_left = false, has_right = false;
    for (std::uint32_t p : members) {
      if (p % 8 < 4) has_left = true;
      else has_right = true;
    }
    EXPECT_FALSE(has_left && has_right);
  }
}

TEST(RpClustering, MembersAscendWithinCluster) {
  const PatternField patterns = bimodal_patterns(8, 8);
  const ClusterAssignment a = rp_clustering(
      patterns, beam::make_centered_grid(8, 8, 1.0, 1.0), per_point_options(4));
  for (const auto& m : a.members) {
    for (std::size_t i = 1; i < m.size(); ++i) EXPECT_GT(m[i], m[i - 1]);
  }
}

TEST(RpClusteringTiled, WarpsAreSpatialTiles) {
  const beam::GridSpec spec = beam::make_centered_grid(16, 16, 1.0, 1.0);
  PatternField patterns(spec.nodes(), 2);
  RpClusteringOptions options;
  options.clusters = 8;
  options.tile_w = 8;
  options.tile_h = 4;
  const ClusterAssignment a = rp_clustering(patterns, spec, options);
  EXPECT_EQ(total_members(a), 256u);
  // Each run of 32 consecutive members is one 8×4 spatial tile.
  for (const auto& members : a.members) {
    ASSERT_EQ(members.size() % 32, 0u);
    for (std::size_t w = 0; w + 32 <= members.size(); w += 32) {
      std::uint32_t min_x = 16, max_x = 0, min_y = 16, max_y = 0;
      for (std::size_t i = 0; i < 32; ++i) {
        const std::uint32_t p = members[w + i];
        const std::uint32_t ix = p % 16, iy = p / 16;
        min_x = std::min(min_x, ix);
        max_x = std::max(max_x, ix);
        min_y = std::min(min_y, iy);
        max_y = std::max(max_y, iy);
      }
      EXPECT_LE(max_x - min_x, 7u);
      EXPECT_LE(max_y - min_y, 3u);
    }
  }
}

TEST(RpClusteringTiled, GroupsTilesByPatternSimilarity) {
  const beam::GridSpec spec = beam::make_centered_grid(16, 16, 1.0, 1.0);
  PatternField patterns(spec.nodes(), 1);
  // Left half tiles cheap, right half expensive.
  for (std::uint32_t iy = 0; iy < 16; ++iy) {
    for (std::uint32_t ix = 0; ix < 16; ++ix) {
      patterns.at(iy * 16 + ix)[0] = ix < 8 ? 1.0 : 32.0;
    }
  }
  RpClusteringOptions options;
  options.clusters = 2;
  options.tile_w = 8;
  options.tile_h = 4;
  options.spatial_weight = 0.0;  // isolate the pattern-similarity grouping
  const ClusterAssignment a = rp_clustering(patterns, spec, options);
  for (const auto& members : a.members) {
    if (members.empty()) continue;
    const bool left = (members[0] % 16) < 8;
    for (std::uint32_t p : members) EXPECT_EQ((p % 16) < 8, left);
  }
}

TEST(RpClusteringTiled, RaggedGridsHandled) {
  const beam::GridSpec spec = beam::make_centered_grid(10, 6, 1.0, 1.0);
  PatternField patterns(spec.nodes(), 1);
  RpClusteringOptions options;
  options.clusters = 3;
  options.tile_w = 8;
  options.tile_h = 4;
  const ClusterAssignment a = rp_clustering(patterns, spec, options);
  EXPECT_EQ(total_members(a), 60u);
}

TEST(ChunkClustering, RowMajorChunks) {
  const ClusterAssignment a = chunk_clustering(10, 4);
  ASSERT_EQ(a.members.size(), 3u);
  EXPECT_EQ(a.members[0], (std::vector<std::uint32_t>{0, 1, 2, 3}));
  EXPECT_EQ(a.members[2], (std::vector<std::uint32_t>{8, 9}));
  EXPECT_EQ(a.max_cluster_size, 4u);
}

TEST(OrderedClustering, FollowsPermutation) {
  const std::vector<std::uint32_t> order{5, 3, 1, 0, 2, 4};
  const ClusterAssignment a = ordered_clustering(order, 3);
  ASSERT_EQ(a.members.size(), 2u);
  EXPECT_EQ(a.members[0], (std::vector<std::uint32_t>{5, 3, 1}));
  EXPECT_EQ(a.members[1], (std::vector<std::uint32_t>{0, 2, 4}));
}

TEST(Clustering, ValidatesArguments) {
  EXPECT_THROW(chunk_clustering(0, 4), bd::CheckError);
  EXPECT_THROW(chunk_clustering(4, 0), bd::CheckError);
  EXPECT_THROW(ordered_clustering({}, 3), bd::CheckError);
  PatternField empty;
  EXPECT_THROW(rp_clustering(empty, beam::make_centered_grid(8, 8, 1.0, 1.0),
                             per_point_options(8)),
               bd::CheckError);
}

// ---------------------------------------------------------------------------
// D² coresets
// ---------------------------------------------------------------------------

/// Synthetic feature matrix: smooth gradient plus a hot corner (the few
/// high-variance rows a D² sampler must concentrate on).
std::vector<double> gradient_features(std::size_t n, std::size_t dim) {
  std::vector<double> features(n * dim);
  for (std::size_t i = 0; i < n; ++i) {
    const double base = static_cast<double>(i) / static_cast<double>(n);
    for (std::size_t d = 0; d < dim; ++d) {
      features[i * dim + d] = base + (i > n - n / 16 ? 50.0 : 0.0);
    }
  }
  return features;
}

TEST(Coreset, SmallInputsPassThrough) {
  const std::vector<double> features = gradient_features(100, 3);
  ml::CoresetConfig config;
  config.target_size = 256;
  const ml::Coreset c = ml::d2_coreset(features, 100, 3, config);
  EXPECT_EQ(c.size(), 100u);
  for (std::size_t i = 0; i < 100; ++i) {
    EXPECT_EQ(c.indices[i], i);
    EXPECT_EQ(c.weights[i], 1.0);
  }
}

TEST(Coreset, WeightsEstimateTheFullSetScale) {
  const std::size_t n = 8192;
  const std::vector<double> features = gradient_features(n, 4);
  ml::CoresetConfig config;
  config.target_size = 512;
  const ml::Coreset c = ml::d2_coreset(features, n, 4, config);
  EXPECT_LE(c.size(), 512u);
  EXPECT_GE(c.size(), 32u);
  // Indices are distinct and ascending; weights are positive and sum to
  // roughly n (the unbiased-estimate property the weighted objective
  // relies on).
  double total = 0.0;
  for (std::size_t i = 0; i < c.size(); ++i) {
    if (i > 0) {
      EXPECT_GT(c.indices[i], c.indices[i - 1]);
    }
    EXPECT_GT(c.weights[i], 0.0);
    total += c.weights[i];
  }
  EXPECT_GT(total, 0.5 * static_cast<double>(n));
  EXPECT_LT(total, 2.0 * static_cast<double>(n));
}

TEST(Coreset, MinSizeTopsUpDistinctIndices) {
  const std::size_t n = 4096;
  const std::vector<double> features = gradient_features(n, 2);
  ml::CoresetConfig config;
  config.target_size = 8;  // few draws, heavy duplication expected
  config.min_size = 16;
  const ml::Coreset c = ml::d2_coreset(features, n, 2, config);
  EXPECT_GE(c.size(), 16u);
  std::set<std::uint32_t> distinct(c.indices.begin(), c.indices.end());
  EXPECT_EQ(distinct.size(), c.size());
}

TEST(Coreset, DeterministicAcrossThreadCounts) {
  const std::size_t n = 10000;
  const std::vector<double> features = gradient_features(n, 5);
  ml::CoresetConfig config;
  config.target_size = 300;

  util::ThreadPool::set_global_threads(1);
  const ml::Coreset serial = ml::d2_coreset(features, n, 5, config);
  util::ThreadPool::set_global_threads(8);
  const ml::Coreset parallel = ml::d2_coreset(features, n, 5, config);
  util::ThreadPool::set_global_threads(0);

  EXPECT_EQ(serial.indices, parallel.indices);
  EXPECT_EQ(serial.weights, parallel.weights);  // bitwise
}

// ---------------------------------------------------------------------------
// Coreset-accelerated / warm-started clustering
// ---------------------------------------------------------------------------

/// Pattern field with a smooth radial cost structure plus noise — large
/// enough that the accelerated path actually subsamples.
PatternField radial_patterns(std::size_t nx, std::size_t ny,
                             std::uint64_t seed, double drift = 0.0) {
  util::Rng rng(seed);
  PatternField field(nx * ny, 3);
  for (std::size_t iy = 0; iy < ny; ++iy) {
    for (std::size_t ix = 0; ix < nx; ++ix) {
      const double cx = static_cast<double>(ix) / static_cast<double>(nx) -
                        0.5 + drift;
      const double cy =
          static_cast<double>(iy) / static_cast<double>(ny) - 0.5;
      const double r = std::sqrt(cx * cx + cy * cy);
      auto p = field.at(iy * nx + ix);
      p[0] = 4.0 + 28.0 * std::exp(-8.0 * r * r) + rng.uniform();
      p[1] = 2.0 + 10.0 * r + rng.uniform();
      p[2] = 1.0 + p[0] * 0.25;
    }
  }
  return field;
}

TEST(ClusteringAccel, InertiaWithinBoundOfFullTraining) {
  // The coreset path trains on ~512 weighted samples instead of the full
  // point set; the full-set inertia of its final assignment must stay
  // within a modest factor of the full-set reference's.
  const PatternField patterns = radial_patterns(96, 96, 11);
  const beam::GridSpec spec = beam::make_centered_grid(96, 96, 1.0, 1.0);
  RpClusteringOptions reference = per_point_options(16);
  reference.accel.coreset_size = 0;  // full-set Lloyd reference
  const ClusterAssignment base = rp_clustering(patterns, spec, reference);
  EXPECT_EQ(base.coreset_size, 96u * 96u);

  RpClusteringOptions accel = reference;
  accel.accel.coreset_size = 512;
  const ClusterAssignment fast = rp_clustering(patterns, spec, accel);
  EXPECT_GT(fast.coreset_size, 0u);
  EXPECT_LE(fast.coreset_size, 512u);
  EXPECT_GT(base.inertia, 0.0);
  EXPECT_LE(fast.inertia, base.inertia * 1.25)
      << "coreset-trained clustering lost too much quality";
}

TEST(ClusteringAccel, WarmStartReusesCachedCentroids) {
  const beam::GridSpec spec = beam::make_centered_grid(64, 64, 1.0, 1.0);
  ClusteringCache cache;
  RpClusteringOptions options;
  options.clusters = 8;
  options.accel.coreset_size = 256;
  options.accel.cache = &cache;

  const PatternField step0 = radial_patterns(64, 64, 21);
  const ClusterAssignment first = rp_clustering(step0, spec, options);
  EXPECT_FALSE(first.warm_started);  // cold cache
  EXPECT_TRUE(cache.valid());

  // Slightly drifted patterns: the cached centroids are good seeds.
  const PatternField step1 = radial_patterns(64, 64, 21, 0.01);
  const ClusterAssignment second = rp_clustering(step1, spec, options);
  EXPECT_TRUE(second.warm_started);

  // A cache of the wrong shape is ignored, not misused.
  cache.dim = cache.dim + 1;
  const ClusterAssignment third = rp_clustering(step1, spec, options);
  EXPECT_FALSE(third.warm_started);
}

TEST(ClusteringAccel, DeterministicAcrossThreadCounts) {
  const PatternField patterns = radial_patterns(64, 64, 31);
  const beam::GridSpec spec = beam::make_centered_grid(64, 64, 1.0, 1.0);
  RpClusteringOptions options = per_point_options(8);
  options.accel.coreset_size = 256;

  util::ThreadPool::set_global_threads(1);
  const ClusterAssignment serial = rp_clustering(patterns, spec, options);
  util::ThreadPool::set_global_threads(8);
  const ClusterAssignment parallel = rp_clustering(patterns, spec, options);
  util::ThreadPool::set_global_threads(0);

  EXPECT_EQ(serial.members, parallel.members);
  EXPECT_EQ(serial.inertia, parallel.inertia);  // bitwise
  EXPECT_EQ(serial.kmeans_iterations, parallel.kmeans_iterations);
}

}  // namespace
}  // namespace bd::core
