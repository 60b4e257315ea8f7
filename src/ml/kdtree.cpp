#include "ml/kdtree.hpp"

#include <algorithm>
#include <numeric>

#include "ml/linalg.hpp"
#include "util/check.hpp"

namespace bd::ml {

void KdTree::build(std::span<const double> points, std::size_t count,
                   std::size_t dim) {
  BD_CHECK(dim > 0);
  BD_CHECK_MSG(points.size() == count * dim, "points size mismatch");
  count_ = count;
  dim_ = dim;
  points_.assign(points.begin(), points.end());
  nodes_.clear();
  nodes_.reserve(count);
  boxes_.resize(2 * dim * count);  // one node per point; all rewritten
  root_ = -1;
  if (count == 0) return;
  std::vector<std::uint32_t> indices(count);
  std::iota(indices.begin(), indices.end(), 0u);
  root_ = build_recursive(indices, 0);
}

std::int32_t KdTree::build_recursive(std::span<std::uint32_t> indices,
                                     int depth) {
  if (indices.empty()) return -1;
  const auto axis = static_cast<std::uint32_t>(depth % static_cast<int>(dim_));
  const std::size_t mid = indices.size() / 2;
  std::nth_element(indices.begin(), indices.begin() + mid, indices.end(),
                   [&](std::uint32_t a, std::uint32_t b) {
                     const double va = point(a)[axis];
                     const double vb = point(b)[axis];
                     return va < vb || (va == vb && a < b);
                   });
  const std::uint32_t median = indices[mid];
  Node node;
  node.axis = axis;
  node.point = median;
  node.split = point(median)[axis];
  const auto self = static_cast<std::int32_t>(nodes_.size());
  nodes_.push_back(node);
  const std::int32_t left = build_recursive(indices.subspan(0, mid), depth + 1);
  const std::int32_t right =
      build_recursive(indices.subspan(mid + 1), depth + 1);
  nodes_[static_cast<std::size_t>(self)].left = left;
  nodes_[static_cast<std::size_t>(self)].right = right;
  // The subtree's box: the node's point grown by its children's boxes.
  double* box = boxes_.data() + 2 * dim_ * static_cast<std::size_t>(self);
  for (std::size_t d = 0; d < dim_; ++d) {
    box[d] = box[dim_ + d] = point(median)[d];
  }
  for (const std::int32_t child : {left, right}) {
    if (child < 0) continue;
    const double* inner =
        boxes_.data() + 2 * dim_ * static_cast<std::size_t>(child);
    for (std::size_t d = 0; d < dim_; ++d) {
      box[d] = std::min(box[d], inner[d]);
      box[dim_ + d] = std::max(box[dim_ + d], inner[dim_ + d]);
    }
  }
  return self;
}

namespace {
// Max-heap ordering on squared distance; ties broken toward larger index so
// smaller indices are kept.
bool heap_less(const Neighbor& a, const Neighbor& b) {
  if (a.squared_dist != b.squared_dist) {
    return a.squared_dist < b.squared_dist;
  }
  return a.index < b.index;
}
}  // namespace

double KdTree::box_distance(std::int32_t node,
                            std::span<const double> q) const {
  const double* lo = boxes_.data() + 2 * dim_ * static_cast<std::size_t>(node);
  const double* hi = lo + dim_;
  // The box's nearest point, with squared_distance's operations in its
  // order: rounding is monotone, so no point in the box comes out closer.
  double acc = 0.0;
  for (std::size_t i = 0; i < dim_; ++i) {
    const double d = std::clamp(q[i], lo[i], hi[i]) - q[i];
    acc += d * d;
  }
  return acc;
}

void KdTree::search(std::int32_t node_id, std::span<const double> q,
                    std::size_t k, std::vector<Neighbor>& heap,
                    std::size_t& visited) const {
  ++visited;
  const Node& node = nodes_[static_cast<std::size_t>(node_id)];
  const double d2 = squared_distance(point(node.point), q);
  const Neighbor candidate{node.point, d2};
  if (heap.size() < k) {
    heap.push_back(candidate);
    std::push_heap(heap.begin(), heap.end(), heap_less);
  } else if (heap_less(candidate, heap.front())) {
    std::pop_heap(heap.begin(), heap.end(), heap_less);
    heap.back() = candidate;
    std::push_heap(heap.begin(), heap.end(), heap_less);
  }

  // Near side first, so the k-th distance shrinks before the far box is
  // tested. A box at exactly that distance may hold a tie with a smaller
  // index, so only a strictly farther one is skipped.
  const bool left_first = q[node.axis] <= node.split;
  for (const std::int32_t child : {left_first ? node.left : node.right,
                                   left_first ? node.right : node.left}) {
    if (child >= 0 && (heap.size() < k || box_distance(child, q) <=
                                              heap.front().squared_dist)) {
      search(child, q, k, heap, visited);
    }
  }
}

std::size_t KdTree::query(std::span<const double> query, std::size_t k,
                          std::vector<Neighbor>& out) const {
  BD_CHECK_MSG(!empty(), "query on an empty kd-tree");
  BD_CHECK(query.size() == dim_);
  k = std::min(k, count_);
  BD_CHECK_MSG(k > 0, "k must be positive");
  out.clear();
  std::size_t visited = 0;
  search(root_, query, k, out, visited);
  std::sort_heap(out.begin(), out.end(), heap_less);
  return visited;
}

}  // namespace bd::ml
