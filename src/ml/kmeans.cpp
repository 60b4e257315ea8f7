#include "ml/kmeans.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <numeric>

#include "ml/linalg.hpp"
#include "util/check.hpp"
#include "util/parallel.hpp"
#include "util/telemetry.hpp"

namespace bd::ml {

namespace {

/// Fixed parallel grain for the Lloyd assignment pass: chunk boundaries
/// must not depend on the thread count (determinism), and the per-chunk
/// prune counters are flushed once per chunk.
constexpr std::size_t kGrain = 1024;

/// Multiplicative guards that round the Hamerly bounds conservatively
/// outward. sqrt() is correctly rounded, which can still land *below* the
/// true root; a 1e-12 relative margin dwarfs that half-ulp so a strict
/// upper < lower comparison never claims a prune a full scan would
/// contradict.
constexpr double kUpperGuard = 1.0 + 1e-12;
constexpr double kLowerGuard = 1.0 - 1e-12;

std::span<const double> point_at(std::span<const double> points,
                                 std::size_t dim, std::size_t i) {
  return points.subspan(i * dim, dim);
}

/// k-means++ seeding: first centroid uniform, then proportional to
/// (weight ×) D². The per-point D² refresh runs on the thread pool
/// (disjoint writes), the prefix sum is accumulated serially in point
/// order, and the weighted pick is a binary search on that prefix — so
/// the seeding is bit-identical at any thread count and costs O(log n)
/// per draw instead of a linear scan.
std::vector<double> kmeanspp_init(std::span<const double> points,
                                  std::size_t count, std::size_t dim,
                                  std::size_t k,
                                  std::span<const double> weights,
                                  util::Rng& rng) {
  const bool has_weights = !weights.empty();
  std::vector<double> centroids;
  centroids.reserve(k * dim);
  std::vector<double> d2(count, std::numeric_limits<double>::max());
  std::vector<double> prefix(count);

  std::size_t first = rng.uniform_index(count);
  auto p0 = point_at(points, dim, first);
  centroids.insert(centroids.end(), p0.begin(), p0.end());

  for (std::size_t c = 1; c < k; ++c) {
    auto last = std::span<const double>(centroids).subspan((c - 1) * dim, dim);
    util::parallel_for(0, count, [&](std::size_t i) {
      const double d = squared_distance(point_at(points, dim, i), last);
      d2[i] = std::min(d2[i], d);
    });
    double run = 0.0;
    for (std::size_t i = 0; i < count; ++i) {
      run += has_weights ? weights[i] * d2[i] : d2[i];
      prefix[i] = run;
    }
    std::size_t chosen = 0;
    if (run <= 0.0) {
      chosen = rng.uniform_index(count);
    } else {
      const double target = rng.uniform() * run;
      chosen = static_cast<std::size_t>(
          std::lower_bound(prefix.begin(), prefix.end(), target) -
          prefix.begin());
      if (chosen >= count) chosen = count - 1;
    }
    auto pc = point_at(points, dim, chosen);
    centroids.insert(centroids.end(), pc.begin(), pc.end());
  }
  return centroids;
}

/// Lloyd update step: centroids move to the (weighted) mean of their
/// members, summed in point order.
/// Empty clusters re-seed from the farthest points — ascending cluster
/// order, reusing the assignment pass's best distances, one *distinct*
/// point per empty cluster (first-max tie-break).
void update_centroids(std::span<const double> points, std::size_t count,
                      std::size_t dim, std::size_t k,
                      std::span<const double> weights,
                      std::span<const double> best_d, KMeansResult& result) {
  const bool has_weights = !weights.empty();
  std::vector<double> sums(k * dim, 0.0);
  std::vector<double> wsum(has_weights ? k : 0, 0.0);
  for (std::size_t i = 0; i < count; ++i) {
    auto p = point_at(points, dim, i);
    const std::uint32_t c = result.assignment[i];
    if (has_weights) {
      const double w = weights[i];
      for (std::size_t d = 0; d < dim; ++d) sums[c * dim + d] += w * p[d];
      wsum[c] += w;
    } else {
      for (std::size_t d = 0; d < dim; ++d) sums[c * dim + d] += p[d];
    }
  }
  std::vector<char> taken;
  for (std::size_t c = 0; c < k; ++c) {
    if (result.sizes[c] == 0) {
      if (taken.empty()) taken.assign(count, 0);
      std::size_t far = 0;
      double far_d = -1.0;
      for (std::size_t i = 0; i < count; ++i) {
        if (taken[i]) continue;
        if (best_d[i] > far_d) {
          far_d = best_d[i];
          far = i;
        }
      }
      taken[far] = 1;
      auto p = point_at(points, dim, far);
      std::copy(p.begin(), p.end(),
                result.centroids.begin() +
                    static_cast<std::ptrdiff_t>(c * dim));
      continue;
    }
    const double denom =
        has_weights ? wsum[c] : static_cast<double>(result.sizes[c]);
    for (std::size_t d = 0; d < dim; ++d) {
      result.centroids[c * dim + d] = sums[c * dim + d] / denom;
    }
  }
}

/// Hamerly-pruned Lloyd iterations. Per point it keeps an upper bound on
/// the distance to its assigned centroid and a lower bound on the
/// distance to every *other* centroid; after each centroid move the
/// bounds widen by the per-centroid drift (upper) and the max drift
/// (lower). When upper < lower strictly, the assigned centroid is
/// provably the unique nearest, so the k-centroid scan is skipped — only
/// the exact d² to the assigned centroid is recomputed (the same
/// expression a full scan feeds into the inertia sum, so inertia,
/// centroids, iteration count and assignment all stay bit-identical to
/// exact Lloyd; tests/test_kmeans.cpp holds that oracle). The first
/// iteration scans every centroid for every point.
void lloyd(std::span<const double> points, std::size_t count,
           std::size_t dim, std::span<const double> weights,
           const KMeansConfig& config, KMeansResult& result) {
  const std::size_t k = config.clusters;
  const bool has_weights = !weights.empty();

  std::vector<double> upper(count, std::numeric_limits<double>::max());
  std::vector<double> lower(count, 0.0);  // forces a full first pass
  std::vector<double> best_d(count);
  std::vector<double> old_centroids(k * dim);
  std::vector<double> drift(k);
  std::atomic<std::uint64_t> full_count{0};
  std::atomic<std::uint64_t> pruned_count{0};

  double prev_inertia = std::numeric_limits<double>::max();
  for (std::size_t iter = 0; iter < config.max_iterations; ++iter) {
    result.iterations = iter + 1;
    std::fill(result.sizes.begin(), result.sizes.end(), 0u);
    result.inertia = 0.0;

    util::parallel_for_chunked(0, count, kGrain, [&](std::size_t lo,
                                                     std::size_t hi) {
      std::uint64_t local_full = 0;
      std::uint64_t local_pruned = 0;
      for (std::size_t i = lo; i < hi; ++i) {
        auto p = point_at(points, dim, i);
        if (upper[i] < lower[i]) {
          const std::uint32_t c = result.assignment[i];
          const double best = squared_distance(
              p,
              std::span<const double>(result.centroids).subspan(c * dim, dim));
          best_d[i] = best;
          upper[i] = std::sqrt(best) * kUpperGuard;
          local_full += 1;
          local_pruned += k - 1;
          continue;
        }
        double best = std::numeric_limits<double>::max();
        double second = std::numeric_limits<double>::max();
        std::uint32_t best_c = 0;
        for (std::size_t c = 0; c < k; ++c) {
          auto centroid =
              std::span<const double>(result.centroids).subspan(c * dim, dim);
          const double d = squared_distance(p, centroid);
          if (d < best) {
            second = best;
            best = d;
            best_c = static_cast<std::uint32_t>(c);
          } else if (d < second) {
            second = d;
          }
        }
        result.assignment[i] = best_c;
        best_d[i] = best;
        upper[i] = std::sqrt(best) * kUpperGuard;
        lower[i] = second < std::numeric_limits<double>::max()
                       ? std::sqrt(second) * kLowerGuard
                       : std::numeric_limits<double>::max();
        local_full += k;
      }
      if (local_full != 0) {
        full_count.fetch_add(local_full, std::memory_order_relaxed);
      }
      if (local_pruned != 0) {
        pruned_count.fetch_add(local_pruned, std::memory_order_relaxed);
      }
    });
    for (std::size_t i = 0; i < count; ++i) {
      ++result.sizes[result.assignment[i]];
      result.inertia += has_weights ? weights[i] * best_d[i] : best_d[i];
    }

    std::copy(result.centroids.begin(), result.centroids.end(),
              old_centroids.begin());
    update_centroids(points, count, dim, k, weights, best_d, result);

    double max_drift = 0.0;
    for (std::size_t c = 0; c < k; ++c) {
      drift[c] = std::sqrt(squared_distance(
          std::span<const double>(old_centroids).subspan(c * dim, dim),
          std::span<const double>(result.centroids).subspan(c * dim, dim)));
      max_drift = std::max(max_drift, drift[c]);
    }
    util::parallel_for_chunked(0, count, kGrain,
                               [&](std::size_t lo, std::size_t hi) {
      for (std::size_t i = lo; i < hi; ++i) {
        upper[i] = (upper[i] + drift[result.assignment[i]]) * kUpperGuard;
        lower[i] = std::max(0.0, lower[i] - max_drift) * kLowerGuard;
      }
    });

    if (prev_inertia < std::numeric_limits<double>::max()) {
      const double rel =
          std::abs(prev_inertia - result.inertia) /
          std::max(1e-30, prev_inertia);
      if (rel < config.tolerance) break;
    }
    prev_inertia = result.inertia;
  }

  util::telemetry::counter_add("kmeans.full_distances",
                               full_count.load(std::memory_order_relaxed));
  util::telemetry::counter_add("kmeans.pruned_distances",
                               pruned_count.load(std::memory_order_relaxed));
}

}  // namespace

KMeansResult kmeans(std::span<const double> points, std::size_t count,
                    std::size_t dim, const KMeansConfig& config) {
  return kmeans_weighted(points, count, dim, {}, {}, config);
}

KMeansResult kmeans_weighted(std::span<const double> points,
                             std::size_t count, std::size_t dim,
                             std::span<const double> weights,
                             std::span<const double> initial_centroids,
                             const KMeansConfig& config) {
  BD_CHECK(dim > 0);
  BD_CHECK_MSG(points.size() == count * dim, "points size mismatch");
  const std::size_t k = config.clusters;
  BD_CHECK_MSG(k >= 1 && k <= count, "clusters must be in [1, count]");
  BD_CHECK_MSG(weights.empty() || weights.size() == count,
               "weights must be empty or one per point");
  for (const double w : weights) {
    BD_CHECK_MSG(w > 0.0, "weights must be positive");
  }
  BD_CHECK_MSG(initial_centroids.empty() ||
                   initial_centroids.size() == k * dim,
               "initial centroids must be empty or clusters x dim");

  KMeansResult result;
  if (!initial_centroids.empty()) {
    result.centroids.assign(initial_centroids.begin(),
                            initial_centroids.end());
  } else {
    util::Rng rng(config.seed);
    result.centroids = kmeanspp_init(points, count, dim, k, weights, rng);
  }
  result.assignment.assign(count, 0);
  result.sizes.assign(k, 0);

  lloyd(points, count, dim, weights, config, result);
  return result;
}

std::vector<std::uint32_t> assign_balanced(std::span<const double> points,
                                           std::size_t count, std::size_t dim,
                                           std::span<const double> centroids,
                                           std::size_t k,
                                           std::size_t capacity) {
  BD_CHECK(dim > 0 && points.size() == count * dim);
  BD_CHECK(k >= 1 && centroids.size() == k * dim);
  if (capacity == 0) capacity = count;
  BD_CHECK_MSG(capacity * k >= count, "capacity too small to place all points");

  std::vector<std::uint32_t> assignment(count, 0);
  std::vector<double> urgency(count);
  std::vector<std::size_t> order(count);
  std::iota(order.begin(), order.end(), 0);
  util::parallel_for(0, count, [&](std::size_t i) {
    double best = std::numeric_limits<double>::max();
    double second = std::numeric_limits<double>::max();
    for (std::size_t c = 0; c < k; ++c) {
      const double d = squared_distance(point_at(points, dim, i),
                                        centroids.subspan(c * dim, dim));
      if (d < best) {
        second = best;
        best = d;
      } else if (d < second) {
        second = d;
      }
    }
    urgency[i] = second - best;
  });
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return urgency[a] > urgency[b];
                   });
  std::vector<std::size_t> load(k, 0);
  for (std::size_t oi : order) {
    auto p = point_at(points, dim, oi);
    double best = std::numeric_limits<double>::max();
    std::uint32_t best_c = 0;
    for (std::size_t c = 0; c < k; ++c) {
      if (load[c] >= capacity) continue;
      const double d = squared_distance(p, centroids.subspan(c * dim, dim));
      if (d < best) {
        best = d;
        best_c = static_cast<std::uint32_t>(c);
      }
    }
    assignment[oi] = best_c;
    ++load[best_c];
  }
  return assignment;
}

}  // namespace bd::ml
