#include "core/clustering.hpp"

#include <algorithm>
#include <cmath>

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

/// Centroid training shared by rp_clustering and rp_clustering_tiled.
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
    if (out.result.inertia > cache->inertia * accel.warm_inertia_growth) {
      // The patterns drifted too far for the cached centroids to be
      // useful seeds — fall back to k-means++ on the same coreset.
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

/// Build the (pattern ⊕ weighted coordinates) feature matrix.
std::vector<double> build_features(const PatternField& patterns,
                                   std::span<const double> xs,
                                   std::span<const double> ys,
                                   double spatial_weight, std::size_t& dim) {
  const std::size_t n = patterns.points();
  const std::size_t pdim = patterns.subregions();
  const bool with_coords =
      spatial_weight > 0.0 && xs.size() == n && ys.size() == n;
  dim = pdim + (with_coords ? 2 : 0);

  std::vector<double> features(n * dim);
  for (std::size_t i = 0; i < n; ++i) {
    const auto p = patterns.at(i);
    std::copy(p.begin(), p.end(), features.begin() + static_cast<std::ptrdiff_t>(i * dim));
  }
  if (!with_coords) return features;

  // Total pattern variance (summed over dimensions).
  std::vector<double> means(pdim, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    const auto p = patterns.at(i);
    for (std::size_t d = 0; d < pdim; ++d) means[d] += p[d];
  }
  for (double& m : means) m /= static_cast<double>(n);
  double total_var = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const auto p = patterns.at(i);
    for (std::size_t d = 0; d < pdim; ++d) {
      total_var += (p[d] - means[d]) * (p[d] - means[d]);
    }
  }
  total_var /= static_cast<double>(n);
  if (total_var <= 0.0) total_var = 1.0;

  // Each coordinate feature gets spatial_weight² × half the pattern
  // variance, after normalizing the coordinate to unit variance.
  auto coord_stats = [&](std::span<const double> v, double& mean,
                         double& std) {
    mean = 0.0;
    for (double x : v) mean += x;
    mean /= static_cast<double>(n);
    std = 0.0;
    for (double x : v) std += (x - mean) * (x - mean);
    std = std::sqrt(std / static_cast<double>(n));
    if (std < 1e-12) std = 1.0;
  };
  double mx, sx, my, sy;
  coord_stats(xs, mx, sx);
  coord_stats(ys, my, sy);
  const double scale = spatial_weight * std::sqrt(0.5 * total_var);
  for (std::size_t i = 0; i < n; ++i) {
    features[i * dim + pdim] = (xs[i] - mx) / sx * scale;
    features[i * dim + pdim + 1] = (ys[i] - my) / sy * scale;
  }
  return features;
}

}  // namespace

ClusterAssignment rp_clustering(const PatternField& patterns,
                                std::span<const double> xs,
                                std::span<const double> ys,
                                const RpClusteringOptions& options) {
  BD_CHECK(!patterns.empty());
  const std::size_t n = patterns.points();
  const std::size_t k = options.clusters;
  BD_CHECK(k >= 1 && k <= n);

  std::size_t dim = 0;
  const std::vector<double> features =
      build_features(patterns, xs, ys, options.spatial_weight, dim);

  const TrainedCentroids trained =
      train_centroids(features, n, dim, k, options.seed, options.accel);

  // Balance-assign the full point set to the trained centroids.
  const std::size_t capacity =
      options.balanced ? (n + k - 1) / k : 0;
  const std::vector<std::uint32_t> assignment = ml::assign_balanced(
      features, n, dim, trained.result.centroids, k, capacity);

  ClusterAssignment result;
  result.members.resize(k);
  result.inertia = assignment_inertia(features, n, dim,
                                      trained.result.centroids, assignment);
  result.kmeans_iterations = trained.result.iterations;
  result.coreset_size = trained.coreset_size;
  result.warm_started = trained.warm_started;
  for (std::size_t i = 0; i < n; ++i) {
    result.members[assignment[i]].push_back(static_cast<std::uint32_t>(i));
  }
  for (const auto& m : result.members) {
    result.max_cluster_size = std::max(result.max_cluster_size, m.size());
  }
  return result;
}

ClusterAssignment rp_clustering_tiled(const PatternField& patterns,
                                      const beam::GridSpec& spec,
                                      const TiledClusteringOptions& options) {
  BD_CHECK(!patterns.empty());
  BD_CHECK(patterns.points() == spec.nodes());
  BD_CHECK(options.tile_w >= 1 && options.tile_h >= 1);
  const std::size_t pdim = patterns.subregions();

  // Build tiles and their mean patterns.
  const std::uint32_t tiles_x = (spec.nx + options.tile_w - 1) / options.tile_w;
  const std::uint32_t tiles_y = (spec.ny + options.tile_h - 1) / options.tile_h;
  const std::size_t num_tiles = static_cast<std::size_t>(tiles_x) * tiles_y;
  const bool with_coords = options.spatial_weight > 0.0;
  const std::size_t fdim = pdim + (with_coords ? 2 : 0);
  std::vector<std::vector<std::uint32_t>> tile_points(num_tiles);
  std::vector<double> tile_features(num_tiles * fdim, 0.0);
  for (std::uint32_t iy = 0; iy < spec.ny; ++iy) {
    for (std::uint32_t ix = 0; ix < spec.nx; ++ix) {
      const std::size_t tile =
          static_cast<std::size_t>(iy / options.tile_h) * tiles_x +
          ix / options.tile_w;
      const std::uint32_t point = iy * spec.nx + ix;
      tile_points[tile].push_back(point);
      const auto p = patterns.at(point);
      for (std::size_t d = 0; d < pdim; ++d) {
        tile_features[tile * fdim + d] += p[d];
      }
    }
  }
  for (std::size_t t = 0; t < num_tiles; ++t) {
    const auto n = static_cast<double>(tile_points[t].size());
    for (std::size_t d = 0; d < pdim; ++d) tile_features[t * fdim + d] /= n;
  }
  if (with_coords) {
    // Total pattern variance over tiles (for scaling the coordinates).
    std::vector<double> means(pdim, 0.0);
    for (std::size_t t = 0; t < num_tiles; ++t) {
      for (std::size_t d = 0; d < pdim; ++d) {
        means[d] += tile_features[t * fdim + d];
      }
    }
    for (double& m2 : means) m2 /= static_cast<double>(num_tiles);
    double total_var = 0.0;
    for (std::size_t t = 0; t < num_tiles; ++t) {
      for (std::size_t d = 0; d < pdim; ++d) {
        const double dv = tile_features[t * fdim + d] - means[d];
        total_var += dv * dv;
      }
    }
    total_var /= static_cast<double>(num_tiles);
    if (total_var <= 0.0) total_var = 1.0;
    // Unit-variance tile coordinates, scaled so the two coordinate
    // features carry spatial_weight² × the total pattern variance.
    const double scale =
        options.spatial_weight * std::sqrt(0.5 * total_var);
    const double sx = std::max(1.0, (tiles_x - 1) / std::sqrt(12.0));
    const double sy = std::max(1.0, (tiles_y - 1) / std::sqrt(12.0));
    for (std::size_t t = 0; t < num_tiles; ++t) {
      const double tx = static_cast<double>(t % tiles_x);
      const double ty = static_cast<double>(t / tiles_x);
      tile_features[t * fdim + pdim] =
          (tx - 0.5 * (tiles_x - 1)) / sx * scale;
      tile_features[t * fdim + pdim + 1] =
          (ty - 0.5 * (tiles_y - 1)) / sy * scale;
    }
  }

  const std::size_t k = std::min(options.clusters, num_tiles);
  BD_CHECK(k >= 1);
  const std::size_t capacity =
      std::min(options.max_tiles_per_cluster, (num_tiles + k - 1) / k);
  BD_CHECK_MSG(capacity * k >= num_tiles,
               "tile capacity insufficient: increase clusters");

  // Train centroids on the tiles, then balance-assign all tiles.
  const TrainedCentroids trained = train_centroids(
      tile_features, num_tiles, fdim, k, options.seed, options.accel);
  const std::vector<std::uint32_t> tile_assignment = ml::assign_balanced(
      tile_features, num_tiles, fdim, trained.result.centroids, k, capacity);

  ClusterAssignment result;
  result.members.resize(k);
  result.inertia =
      assignment_inertia(tile_features, num_tiles, fdim,
                         trained.result.centroids, tile_assignment);
  result.kmeans_iterations = trained.result.iterations;
  result.coreset_size = trained.coreset_size;
  result.warm_started = trained.warm_started;
  for (std::size_t t = 0; t < num_tiles; ++t) {
    auto& members = result.members[tile_assignment[t]];
    members.insert(members.end(), tile_points[t].begin(),
                   tile_points[t].end());
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
