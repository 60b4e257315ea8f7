#pragma once
/// \file clustering.hpp
/// RP-CLUSTERING (paper Algorithm 1, line 6): partition the grid points
/// into m clusters by access-pattern similarity with k-means, so points
/// mapped to the same thread block share control flow and reuse data.
///
/// The grid is cut into tile_w × tile_h tiles, row-major. A tile's feature
/// is its mean pattern, plus (spatial_weight > 0) its weighted center
/// coordinates; k-means clusters the tiles and each cluster becomes one
/// thread block. The default 8×4 tile is one warp, so every warp is a
/// spatially-compact tile: access patterns vary smoothly in space, a
/// tile's points share a near-identical pattern, and lane addresses stay
/// adjacent (coalescing and L1 reuse). 1×1 tiles are the paper's
/// per-point k-means.
///
/// Two engineering refinements over a literal k-means call:
///  * centroids are trained on a weighted D² coreset (Lloyd is O(n·k·d)
///    per iteration; see ClusteringAccel) and the full tile set is then
///    assigned in one capacity-constrained pass of ⌈tiles/m⌉ tiles per
///    cluster, so clusters are always balanced;
///  * the tile coordinates make clusters of equal access pattern prefer
///    spatially-compact shapes, which turns pattern similarity into L1
///    sharing between co-resident warps.

#include <cstdint>
#include <vector>

#include "beam/grid.hpp"
#include "core/access_pattern.hpp"

namespace bd::core {

/// Result of RP-CLUSTERING: per-cluster member lists (grid point indices).
struct ClusterAssignment {
  std::vector<std::vector<std::uint32_t>> members;
  std::size_t max_cluster_size = 0;
  /// Full-set inertia under the final (balanced) assignment — comparable
  /// across coreset sizes, including the full set.
  double inertia = 0.0;
  std::size_t kmeans_iterations = 0;
  std::size_t coreset_size = 0;  ///< training points used
  bool warm_started = false;     ///< centroids seeded from the cache
};

/// Cross-step centroid cache for warm-started clustering. Owned by the
/// caller (PredictiveSolver persists it through save_state/load_state so
/// checkpoint resume stays bit-identical); training updates it in place.
struct ClusteringCache {
  std::vector<double> centroids;  ///< clusters × dim, row-major
  std::size_t dim = 0;
  double inertia = 0.0;  ///< training (coreset-weighted) inertia at save
  bool valid() const { return !centroids.empty() && dim > 0; }
  void clear() {
    centroids.clear();
    dim = 0;
    inertia = 0.0;
  }
};

/// Centroid training of RP-CLUSTERING: Lloyd runs with triangle-inequality
/// pruning on a D² importance-sampled weighted coreset, and (when a cache
/// is supplied) the previous step's centroids seed the next step —
/// skipping k-means++ entirely while patterns drift slowly. A warm start
/// whose inertia grows more than 1.5× over the cached inertia re-seeds
/// with k-means++ on the same coreset.
struct ClusteringAccel {
  /// D² coreset draws used for Lloyd training (0 = keep the full set).
  std::size_t coreset_size = 512;
  /// Optional cross-step centroid cache (nullptr = cold every call).
  ClusteringCache* cache = nullptr;
};

/// Options for rp_clustering.
struct RpClusteringOptions {
  std::size_t clusters = 8;   ///< m — thread blocks (at most one per tile)
  std::uint32_t tile_w = 8;   ///< tile width  (points along s)
  std::uint32_t tile_h = 4;   ///< tile height (points along y)
  std::uint64_t seed = 42;
  /// Weight of the tile-center coordinates in the features (0 disables
  /// them; 1 makes coordinate variance equal to total pattern variance).
  double spatial_weight = 1.0;
  ClusteringAccel accel;  ///< coreset/pruned/warm-start training accel
};

/// Cluster the tiles of `grid` by mean access pattern (plus optional
/// weighted tile coordinates). Members of a cluster are listed tile by
/// tile in ascending tile order, row-major within a tile.
ClusterAssignment rp_clustering(const PatternField& patterns,
                                const beam::GridSpec& grid,
                                const RpClusteringOptions& options);

/// Trivial clustering used by bootstrap steps and baselines: consecutive
/// row-major chunks of `chunk` points.
ClusterAssignment chunk_clustering(std::size_t points, std::size_t chunk);

/// Clustering from an explicit point ordering: consecutive chunks of the
/// permutation (the Heuristic-RP mapping).
ClusterAssignment ordered_clustering(
    const std::vector<std::uint32_t>& ordering, std::size_t chunk);

}  // namespace bd::core
