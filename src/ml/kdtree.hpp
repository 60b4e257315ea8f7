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

/// Static kd-tree built once over a point set; supports k-NN queries.
class KdTree {
 public:
  KdTree() = default;

  /// Build from `count` points of dimension `dim` stored row-major in
  /// `points`. The data is copied.
  void build(std::span<const double> points, std::size_t count,
             std::size_t dim);

  /// The k nearest neighbors of `query` (ties broken by index order),
  /// sorted by ascending distance. k is clamped to the point count.
  std::vector<Neighbor> query(std::span<const double> query,
                              std::size_t k) const;

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
              std::vector<Neighbor>& heap) const;

  std::span<const double> point(std::uint32_t i) const {
    return std::span<const double>(points_.data() + i * dim_, dim_);
  }

  std::size_t count_ = 0;
  std::size_t dim_ = 0;
  std::vector<double> points_;
  std::vector<Node> nodes_;
  std::int32_t root_ = -1;
};

}  // namespace bd::ml
