#include "core/clustering.hpp"

#include <algorithm>
#include <cmath>
#include <span>

#include "ml/coreset.hpp"
#include "ml/kmeans.hpp"
#include "ml/linalg.hpp"
#include "util/check.hpp"
#include "util/parallel.hpp"

namespace bd::core {

namespace {

/// Fixed grain for the inertia reduction (thread-count-independent chunk
/// boundaries, partials reduced serially in chunk order).
constexpr std::size_t kInertiaChunk = 2048;

/// Full-set inertia of a fixed assignment: Σ‖x_i − c_{a(i)}‖². Coreset
/// training optimizes a weighted estimate of it, so ClusterAssignment
/// reports this figure of merit rather than the training surrogate.
/// Deterministic at any thread count.
double assignment_inertia(std::span<const double> features, std::size_t n,
                          std::size_t dim, std::span<const double> centroids,
                          std::span<const std::uint32_t> assignment) {
  const std::size_t chunks = (n + kInertiaChunk - 1) / kInertiaChunk;
  std::vector<double> partial(chunks, 0.0);
  util::parallel_for_chunked(0, n, kInertiaChunk,
                             [&](std::size_t lo, std::size_t hi) {
    double acc = 0.0;
    for (std::size_t i = lo; i < hi; ++i) {
      acc += ml::squared_distance(
          features.subspan(i * dim, dim),
          centroids.subspan(assignment[i] * dim, dim));
    }
    partial[lo / kInertiaChunk] = acc;
  });
  double total = 0.0;
  for (double p : partial) total += p;
  return total;
}

/// A warm start whose training inertia exceeds the cached inertia by this
/// factor re-seeds with k-means++ (the patterns drifted too far for the
/// old centroids to be useful seeds).
constexpr double kWarmInertiaGrowth = 1.5;

/// Centroids trained on a D² coreset of the features, warm-started from
/// accel.cache when its shape fits.
struct TrainedCentroids {
  ml::KMeansResult result;
  std::size_t coreset_size = 0;
  bool warm_started = false;
};

TrainedCentroids train_centroids(std::span<const double> features,
                                 std::size_t n, std::size_t dim,
                                 std::size_t k, std::uint64_t seed,
                                 const ClusteringAccel& accel) {
  TrainedCentroids out;
  ml::KMeansConfig config;
  config.clusters = k;
  config.seed = seed;
  config.max_iterations = 15;
  ml::CoresetConfig coreset_config;
  coreset_config.target_size = accel.coreset_size;
  coreset_config.min_size = k;
  coreset_config.seed = seed ^ 0x9E3779B97F4A7C15ull;
  const ml::Coreset coreset = ml::d2_coreset(features, n, dim, coreset_config);
  const std::vector<double> rows =
      ml::gather_rows(features, dim, coreset.indices);
  out.coreset_size = coreset.size();

  ClusteringCache* cache = accel.cache;
  const bool can_warm = cache != nullptr && cache->valid() &&
                        cache->dim == dim &&
                        cache->centroids.size() == k * dim;
  if (can_warm) {
    out.result = ml::kmeans_weighted(rows, coreset.size(), dim,
                                     coreset.weights, cache->centroids,
                                     config);
    out.warm_started = true;
    if (out.result.inertia > cache->inertia * kWarmInertiaGrowth) {
      out.result = ml::kmeans_weighted(rows, coreset.size(), dim,
                                       coreset.weights, {}, config);
      out.warm_started = false;
    }
  } else {
    out.result = ml::kmeans_weighted(rows, coreset.size(), dim,
                                     coreset.weights, {}, config);
  }
  if (cache != nullptr) {
    cache->centroids = out.result.centroids;
    cache->dim = dim;
    cache->inertia = out.result.inertia;
  }
  return out;
}

/// Row-major tiling of the grid into tile_w × tile_h tiles (ragged at the
/// high edges).
struct Tiling {
  const beam::GridSpec& grid;
  std::uint32_t tile_w;
  std::uint32_t tile_h;
  std::uint32_t tiles_x = (grid.nx + tile_w - 1) / tile_w;
  std::uint32_t tiles_y = (grid.ny + tile_h - 1) / tile_h;

  std::size_t count() const {
    return static_cast<std::size_t>(tiles_x) * tiles_y;
  }

  /// Call fn(point) for every grid point of tile t, row-major.
  template <typename Fn>
  void for_each_point(std::size_t t, Fn&& fn) const {
    const auto tx = static_cast<std::uint32_t>(t % tiles_x);
    const auto ty = static_cast<std::uint32_t>(t / tiles_x);
    const std::uint32_t x_end = std::min(grid.nx, (tx + 1) * tile_w);
    const std::uint32_t y_end = std::min(grid.ny, (ty + 1) * tile_h);
    for (std::uint32_t iy = ty * tile_h; iy < y_end; ++iy) {
      for (std::uint32_t ix = tx * tile_w; ix < x_end; ++ix) {
        fn(iy * grid.nx + ix);
      }
    }
  }
};

/// Build the tile feature matrix: mean pattern ⊕ (spatial_weight > 0)
/// the two weighted tile-center coordinates.
std::vector<double> build_features(const PatternField& patterns,
                                   const Tiling& tiling,
                                   double spatial_weight, std::size_t& dim) {
  const std::size_t num_tiles = tiling.count();
  const std::size_t pdim = patterns.subregions();
  const bool with_coords = spatial_weight > 0.0;
  dim = pdim + (with_coords ? 2 : 0);

  std::vector<double> features(num_tiles * dim, 0.0);
  for (std::size_t t = 0; t < num_tiles; ++t) {
    double* mean = features.data() + t * dim;
    std::size_t points = 0;
    tiling.for_each_point(t, [&](std::uint32_t point) {
      const auto p = patterns.at(point);
      for (std::size_t d = 0; d < pdim; ++d) mean[d] += p[d];
      ++points;
    });
    for (std::size_t d = 0; d < pdim; ++d) {
      mean[d] /= static_cast<double>(points);
    }
  }
  if (!with_coords) return features;

  // Total pattern variance over tiles (for scaling the coordinates).
  std::vector<double> means(pdim, 0.0);
  for (std::size_t t = 0; t < num_tiles; ++t) {
    for (std::size_t d = 0; d < pdim; ++d) means[d] += features[t * dim + d];
  }
  for (double& m : means) m /= static_cast<double>(num_tiles);
  double total_var = 0.0;
  for (std::size_t t = 0; t < num_tiles; ++t) {
    for (std::size_t d = 0; d < pdim; ++d) {
      const double dv = features[t * dim + d] - means[d];
      total_var += dv * dv;
    }
  }
  total_var /= static_cast<double>(num_tiles);
  if (total_var <= 0.0) total_var = 1.0;
  // Unit-variance tile coordinates, scaled so the two coordinate
  // features carry spatial_weight² × the total pattern variance.
  const std::uint32_t tiles_x = tiling.tiles_x;
  const std::uint32_t tiles_y = tiling.tiles_y;
  const double scale = spatial_weight * std::sqrt(0.5 * total_var);
  const double sx = std::max(1.0, (tiles_x - 1) / std::sqrt(12.0));
  const double sy = std::max(1.0, (tiles_y - 1) / std::sqrt(12.0));
  for (std::size_t t = 0; t < num_tiles; ++t) {
    const double tx = static_cast<double>(t % tiles_x);
    const double ty = static_cast<double>(t / tiles_x);
    features[t * dim + pdim] = (tx - 0.5 * (tiles_x - 1)) / sx * scale;
    features[t * dim + pdim + 1] = (ty - 0.5 * (tiles_y - 1)) / sy * scale;
  }
  return features;
}

}  // namespace

ClusterAssignment rp_clustering(const PatternField& patterns,
                                const beam::GridSpec& grid,
                                const RpClusteringOptions& options) {
  BD_CHECK(!patterns.empty());
  BD_CHECK(patterns.points() == grid.nodes());
  BD_CHECK(options.tile_w >= 1 && options.tile_h >= 1);
  const Tiling tiling{grid, options.tile_w, options.tile_h};
  const std::size_t num_tiles = tiling.count();
  const std::size_t k = std::min(options.clusters, num_tiles);
  BD_CHECK(k >= 1);

  std::size_t dim = 0;
  const std::vector<double> features =
      build_features(patterns, tiling, options.spatial_weight, dim);

  // Train centroids on the tiles, then balance-assign all tiles.
  const TrainedCentroids trained = train_centroids(
      features, num_tiles, dim, k, options.seed, options.accel);
  const std::vector<std::uint32_t> assignment =
      ml::assign_balanced(features, num_tiles, dim, trained.result.centroids,
                          k, (num_tiles + k - 1) / k);

  ClusterAssignment result;
  result.members.resize(k);
  result.inertia = assignment_inertia(features, num_tiles, dim,
                                      trained.result.centroids, assignment);
  result.kmeans_iterations = trained.result.iterations;
  result.coreset_size = trained.coreset_size;
  result.warm_started = trained.warm_started;
  for (std::size_t t = 0; t < num_tiles; ++t) {
    auto& members = result.members[assignment[t]];
    tiling.for_each_point(t, [&](std::uint32_t p) { members.push_back(p); });
  }
  for (const auto& m : result.members) {
    result.max_cluster_size = std::max(result.max_cluster_size, m.size());
  }
  return result;
}

ClusterAssignment chunk_clustering(std::size_t points, std::size_t chunk) {
  BD_CHECK(points > 0 && chunk > 0);
  ClusterAssignment assignment;
  const std::size_t blocks = (points + chunk - 1) / chunk;
  assignment.members.resize(blocks);
  for (std::size_t b = 0; b < blocks; ++b) {
    const std::size_t lo = b * chunk;
    const std::size_t hi = std::min(points, lo + chunk);
    auto& m = assignment.members[b];
    m.reserve(hi - lo);
    for (std::size_t p = lo; p < hi; ++p) {
      m.push_back(static_cast<std::uint32_t>(p));
    }
    assignment.max_cluster_size = std::max(assignment.max_cluster_size,
                                           m.size());
  }
  return assignment;
}

ClusterAssignment ordered_clustering(
    const std::vector<std::uint32_t>& ordering, std::size_t chunk) {
  BD_CHECK(!ordering.empty() && chunk > 0);
  ClusterAssignment assignment;
  const std::size_t blocks = (ordering.size() + chunk - 1) / chunk;
  assignment.members.resize(blocks);
  for (std::size_t b = 0; b < blocks; ++b) {
    const std::size_t lo = b * chunk;
    const std::size_t hi = std::min(ordering.size(), lo + chunk);
    auto& m = assignment.members[b];
    m.assign(ordering.begin() + static_cast<std::ptrdiff_t>(lo),
             ordering.begin() + static_cast<std::ptrdiff_t>(hi));
    assignment.max_cluster_size = std::max(assignment.max_cluster_size,
                                           m.size());
  }
  return assignment;
}

}  // namespace bd::core
