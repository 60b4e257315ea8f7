#pragma once
/// \file clustering.hpp
/// RP-CLUSTERING (paper Algorithm 1, line 6): partition the grid points
/// into m clusters by access-pattern similarity with k-means, so points
/// mapped to the same thread block maximize data reuse and share control
/// flow. The paper chooses m = max(N_X, N_Y), giving clusters of
/// approximately min(N_X, N_Y) points; we additionally enforce balance so
/// every cluster fits one thread block exactly.
///
/// Two engineering refinements over a literal k-means call:
///  * centroids are trained on a weighted D² coreset (Lloyd is O(n·k·d)
///    per iteration; see ClusteringAccel) and the full point set is then
///    balance-assigned in one capacity-constrained pass;
///  * grid coordinates can be appended as weighted features, so clusters
///    of equal access pattern prefer spatially-compact shapes — the
///    property that turns pattern similarity into actual coalesced loads
///    when members map to consecutive lanes.

#include <cstdint>
#include <span>
#include <vector>

#include "beam/grid.hpp"
#include "core/access_pattern.hpp"

namespace bd::core {

/// Result of RP-CLUSTERING: per-cluster member lists (grid point indices,
/// ascending — i.e. row-major within each cluster).
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
/// skipping k-means++ entirely while patterns drift slowly.
struct ClusteringAccel {
  /// D² coreset draws used for Lloyd training (0 = keep the full set).
  std::size_t coreset_size = 512;
  /// Warm-started training whose inertia exceeds the cached inertia by
  /// this factor re-seeds with k-means++ on the same coreset (the
  /// patterns drifted too far for the old centroids to be useful seeds).
  double warm_inertia_growth = 1.5;
  /// Optional cross-step centroid cache (nullptr = cold every call).
  ClusteringCache* cache = nullptr;
};

/// Options for rp_clustering.
struct RpClusteringOptions {
  std::size_t clusters = 8;
  bool balanced = true;           ///< cap clusters at ceil(points/clusters)
  std::uint64_t seed = 42;
  /// Relative weight of the spatial features (0 disables them; 1 makes
  /// coordinate variance comparable to total pattern variance).
  double spatial_weight = 0.75;
  ClusteringAccel accel;  ///< coreset/pruned/warm-start training accel
};

/// Cluster grid points by access pattern (plus optional weighted
/// coordinates). `xs`/`ys` must be empty or hold one coordinate per point.
ClusterAssignment rp_clustering(const PatternField& patterns,
                                std::span<const double> xs,
                                std::span<const double> ys,
                                const RpClusteringOptions& options);

/// Tile-granular RP-CLUSTERING — the production mapping used by
/// Predictive-RP. The grid is cut into warp-shaped tiles (tile_w × tile_h
/// = warp_size points); access patterns vary smoothly in space, so a
/// tile's points share a near-identical pattern. k-means then clusters
/// *tiles* by their mean pattern; a thread block is a cluster of tiles,
/// each warp is one spatially-compact tile. This keeps the per-block
/// merged partition tight (pattern-similar members) *and* makes lane
/// addresses adjacent (coalescing + L1 reuse) — the two wins the paper's
/// computation-to-thread mapping targets.
struct TiledClusteringOptions {
  std::size_t clusters = 8;        ///< m — thread blocks
  std::uint32_t tile_w = 8;        ///< tile width  (points along s)
  std::uint32_t tile_h = 4;        ///< tile height (points along y)
  std::uint64_t seed = 42;
  std::size_t max_tiles_per_cluster = 32;  ///< 32 warps = 1024 threads
  /// Weight of the tile-center coordinates in the clustering features.
  /// Spatially-adjacent tiles share stencil rows (the inner window spans
  /// several cells), so compact clusters turn pattern similarity into
  /// actual L1 sharing between co-resident warps.
  double spatial_weight = 1.0;
  ClusteringAccel accel;  ///< coreset/pruned/warm-start training accel
};
ClusterAssignment rp_clustering_tiled(const PatternField& patterns,
                                      const beam::GridSpec& spec,
                                      const TiledClusteringOptions& options);

/// Trivial clustering used by bootstrap steps and baselines: consecutive
/// row-major chunks of `chunk` points.
ClusterAssignment chunk_clustering(std::size_t points, std::size_t chunk);

/// Clustering from an explicit point ordering: consecutive chunks of the
/// permutation (the Heuristic-RP mapping).
ClusterAssignment ordered_clustering(
    const std::vector<std::uint32_t>& ordering, std::size_t chunk);

}  // namespace bd::core
