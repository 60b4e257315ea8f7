#pragma once
/// \file kmeans.hpp
/// k-means clustering (k-means++ initialization, Lloyd iterations) — the
/// paper's RP-CLUSTERING groups grid points by access-pattern similarity.
/// The paper notes k-means "prefers clusters of approximately similar size";
/// assign_balanced enforces a hard per-cluster capacity so clusters map
/// cleanly onto fixed-size thread blocks.
///
/// Lloyd iterations are Hamerly-pruned: each point keeps upper/lower
/// distance bounds, updated by per-iteration centroid drift, and skips
/// the k-centroid scan whenever the bounds prove its nearest centroid
/// cannot have changed. Bounds are rounded conservatively outward, so the
/// result is bit-identical to exact Lloyd, which scans every centroid for
/// every point — assignments, centroids, inertia and iteration counts
/// (tests/test_kmeans.cpp holds the exact oracle and locks this in across
/// seeds and dims). Pruning only skips arithmetic whose outcome is
/// already decided.
///
/// `kmeans_weighted` additionally accepts per-point weights (so a D²
/// coreset optimizes the same objective as the full set — see
/// ml/coreset.hpp) and warm-start centroids (skipping k-means++, the
/// cross-step accelerator used by RP-CLUSTERING).

#include <cstdint>
#include <span>
#include <vector>

#include "util/rng.hpp"

namespace bd::ml {

/// k-means hyperparameters.
struct KMeansConfig {
  std::size_t clusters = 8;
  std::size_t max_iterations = 25;
  double tolerance = 1e-6;       ///< relative inertia improvement to stop
  std::uint64_t seed = 1234;
};

/// Clustering result.
struct KMeansResult {
  std::vector<std::uint32_t> assignment;  ///< point -> cluster
  std::vector<double> centroids;          ///< clusters x dim, row-major
  std::vector<std::uint32_t> sizes;       ///< points per cluster
  double inertia = 0.0;                   ///< (weighted) sum of squared dists
  std::size_t iterations = 0;
};

/// Cluster `count` points of dimension `dim` (row-major in `points`).
/// Deterministic for a fixed seed. Empty clusters are re-seeded from the
/// farthest points (distinct per empty cluster). Requires
/// count >= clusters >= 1.
KMeansResult kmeans(std::span<const double> points, std::size_t count,
                    std::size_t dim, const KMeansConfig& config);

/// Weighted k-means with optional warm-start seeds. `weights` (empty =
/// unit weights, else one positive weight per point) scale each point's
/// contribution to the objective and the centroid update, so a weighted
/// coreset optimizes the full-set objective. `initial_centroids` (empty =
/// k-means++ seeding, else clusters × dim row-major) start Lloyd from the
/// given centroids without spending any RNG draws — the warm-start path.
KMeansResult kmeans_weighted(std::span<const double> points,
                             std::size_t count, std::size_t dim,
                             std::span<const double> weights,
                             std::span<const double> initial_centroids,
                             const KMeansConfig& config);

/// Capacity-constrained assignment of points to fixed centroids: points
/// are processed in order of decreasing urgency (gap between their best
/// and second-best centroid) and go to the nearest centroid with room.
/// Used to balance clusters trained on a subsample across the full point
/// set. Capacity 0 means unconstrained nearest-centroid assignment.
std::vector<std::uint32_t> assign_balanced(std::span<const double> points,
                                           std::size_t count, std::size_t dim,
                                           std::span<const double> centroids,
                                           std::size_t k,
                                           std::size_t capacity);

}  // namespace bd::ml
