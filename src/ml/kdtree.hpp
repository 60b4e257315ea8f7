#pragma once
/// \file kdtree.hpp
/// kd-tree for exact k-nearest-neighbor queries in low dimension (the
/// predictor's feature space is 2–3 dimensional grid coordinates).

#include <cstdint>
#include <span>
#include <vector>

namespace bd::ml {

/// One neighbor result.
struct Neighbor {
  std::size_t index;      ///< index into the point set the tree was built on
  double squared_dist;
};

/// Static kd-tree built once over a point set; supports k-NN queries. Each
/// node keeps the bounding box of its subtree, and a query skips a subtree
/// whose box is strictly farther than its current k-th neighbour — as
/// scikit-learn's KDTree does — so a feature on which every point agrees
/// (the predictor's step, over a one-step window) does not defeat pruning.
class KdTree {
 public:
  KdTree() = default;

  /// Build from `count` points of dimension `dim` stored row-major in
  /// `points`. The data is copied.
  void build(std::span<const double> points, std::size_t count,
             std::size_t dim);

  /// The k nearest neighbors of `query` (ties broken by index order) into
  /// `out`, sorted by ascending distance; k is clamped to the point count.
  /// `out` is overwritten and its capacity reused, so a warm caller
  /// allocates nothing. Returns the number of nodes the search visited.
  std::size_t query(std::span<const double> query, std::size_t k,
                    std::vector<Neighbor>& out) const;

  std::size_t size() const { return count_; }
  bool empty() const { return count_ == 0; }

 private:
  struct Node {
    std::int32_t left = -1;
    std::int32_t right = -1;
    std::uint32_t axis = 0;
    std::uint32_t point = 0;  ///< index into points_
    double split = 0.0;
  };

  std::int32_t build_recursive(std::span<std::uint32_t> indices, int depth);
  void search(std::int32_t node, std::span<const double> q, std::size_t k,
              std::vector<Neighbor>& heap, std::size_t& visited) const;
  /// Squared distance from `q` to node's bounding box, no greater than
  /// squared_distance from `q` to any point inside it.
  double box_distance(std::int32_t node, std::span<const double> q) const;

  std::span<const double> point(std::uint32_t i) const {
    return std::span<const double>(points_.data() + i * dim_, dim_);
  }

  std::size_t count_ = 0;
  std::size_t dim_ = 0;
  std::vector<double> points_;
  std::vector<Node> nodes_;
  /// Per node, its subtree's per-axis minima then maxima (2 * dim_ values).
  std::vector<double> boxes_;
  std::int32_t root_ = -1;
};

}  // namespace bd::ml
