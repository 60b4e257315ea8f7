/// Tests for the kd-tree, including brute-force cross-validation.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "ml/kdtree.hpp"
#include "ml/linalg.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace bd::ml {
namespace {

std::vector<Neighbor> brute_force(const std::vector<double>& points,
                                  std::size_t count, std::size_t dim,
                                  std::span<const double> query,
                                  std::size_t k) {
  std::vector<Neighbor> all;
  for (std::size_t i = 0; i < count; ++i) {
    all.push_back(Neighbor{
        i, squared_distance(
               std::span<const double>(points.data() + i * dim, dim), query)});
  }
  std::sort(all.begin(), all.end(), [](const Neighbor& a, const Neighbor& b) {
    if (a.squared_dist != b.squared_dist) {
      return a.squared_dist < b.squared_dist;
    }
    return a.index < b.index;
  });
  all.resize(std::min(k, all.size()));
  return all;
}

std::vector<Neighbor> nearest(const KdTree& tree,
                              std::span<const double> query, std::size_t k) {
  std::vector<Neighbor> out;
  tree.query(query, k, out);
  return out;
}

TEST(KdTree, SinglePoint) {
  const std::vector<double> pts{1.0, 2.0};
  KdTree tree;
  tree.build(pts, 1, 2);
  const auto nn = nearest(tree, std::vector<double>{0.0, 0.0}, 1);
  ASSERT_EQ(nn.size(), 1u);
  EXPECT_EQ(nn[0].index, 0u);
  EXPECT_DOUBLE_EQ(nn[0].squared_dist, 5.0);
}

TEST(KdTree, ExactNearestOnGrid) {
  std::vector<double> pts;
  for (int y = 0; y < 5; ++y) {
    for (int x = 0; x < 5; ++x) {
      pts.push_back(x);
      pts.push_back(y);
    }
  }
  KdTree tree;
  tree.build(pts, 25, 2);
  const auto nn = nearest(tree, std::vector<double>{2.2, 3.1}, 1);
  EXPECT_EQ(nn[0].index, 17u);  // (2,3)
}

TEST(KdTree, KClampedToCount) {
  const std::vector<double> pts{0.0, 1.0, 2.0};
  KdTree tree;
  tree.build(pts, 3, 1);
  const auto nn = nearest(tree, std::vector<double>{0.5}, 10);
  EXPECT_EQ(nn.size(), 3u);
}

TEST(KdTree, ResultsSortedAscending) {
  util::Rng rng(3);
  std::vector<double> pts(200);
  for (double& v : pts) v = rng.uniform(-1, 1);
  KdTree tree;
  tree.build(pts, 100, 2);
  const auto nn = nearest(tree, std::vector<double>{0.0, 0.0}, 10);
  for (std::size_t i = 1; i < nn.size(); ++i) {
    EXPECT_GE(nn[i].squared_dist, nn[i - 1].squared_dist);
  }
}

TEST(KdTree, EmptyQueryThrows) {
  KdTree tree;
  EXPECT_THROW(nearest(tree, std::vector<double>{0.0}, 1), bd::CheckError);
}

TEST(KdTree, BuildValidatesSizes) {
  KdTree tree;
  EXPECT_THROW(tree.build(std::vector<double>{1.0, 2.0, 3.0}, 2, 2),
               bd::CheckError);
}

TEST(KdTree, DuplicatePointsAllFound) {
  const std::vector<double> pts{1.0, 1.0, 1.0, 2.0};
  KdTree tree;
  tree.build(pts, 4, 1);
  const auto nn = nearest(tree, std::vector<double>{1.0}, 3);
  ASSERT_EQ(nn.size(), 3u);
  EXPECT_DOUBLE_EQ(nn[0].squared_dist, 0.0);
  EXPECT_DOUBLE_EQ(nn[1].squared_dist, 0.0);
  EXPECT_DOUBLE_EQ(nn[2].squared_dist, 0.0);
}

// Property: kd-tree matches brute force on random point sets.
class KdTreeRandom : public ::testing::TestWithParam<std::tuple<int, int, int>> {
};

TEST_P(KdTreeRandom, MatchesBruteForce) {
  const auto [count, dim, k] = GetParam();
  util::Rng rng(1000 + count * 7 + dim);
  std::vector<double> pts(static_cast<std::size_t>(count) * dim);
  for (double& v : pts) v = rng.uniform(-10, 10);
  KdTree tree;
  tree.build(pts, static_cast<std::size_t>(count), static_cast<std::size_t>(dim));
  for (int q = 0; q < 20; ++q) {
    std::vector<double> query(static_cast<std::size_t>(dim));
    for (double& v : query) v = rng.uniform(-12, 12);
    const auto fast = nearest(tree, query, static_cast<std::size_t>(k));
    const auto slow = brute_force(pts, static_cast<std::size_t>(count),
                                  static_cast<std::size_t>(dim), query,
                                  static_cast<std::size_t>(k));
    ASSERT_EQ(fast.size(), slow.size());
    for (std::size_t i = 0; i < fast.size(); ++i) {
      EXPECT_NEAR(fast[i].squared_dist, slow[i].squared_dist, 1e-12)
          << "query " << q << " neighbor " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Random, KdTreeRandom,
    ::testing::Values(std::make_tuple(50, 2, 1), std::make_tuple(50, 2, 5),
                      std::make_tuple(200, 3, 4), std::make_tuple(500, 2, 8),
                      std::make_tuple(100, 5, 3)));

TEST(KdTree, MatchesBruteForceWithTiesAndConstantFeature) {
  // Lattice points with duplicates put many neighbours at exactly equal
  // distances, and a constant last feature puts every query off the
  // points' plane, as the forecast's step feature does. Box pruning must
  // keep each tie, so neighbours, their order and their distances are
  // the brute-force oracle's, bit for bit.
  for (std::uint64_t seed : {5u, 6u, 7u}) {
    util::Rng rng(seed);
    const std::size_t count = 300;
    std::vector<double> pts;
    for (std::size_t i = 0; i < count; ++i) {
      pts.push_back(static_cast<double>(rng.uniform_index(9)));
      pts.push_back(static_cast<double>(rng.uniform_index(9)) * 0.5);
      pts.push_back(3.0);
    }
    KdTree tree;
    tree.build(pts, count, 3);
    for (int q = 0; q < 40; ++q) {
      const std::vector<double> query{
          static_cast<double>(rng.uniform_index(19)) * 0.5 - 0.5,
          static_cast<double>(rng.uniform_index(10)) * 0.5,
          q % 2 == 0 ? 4.0 : 3.0};
      for (std::size_t k : {1u, 4u, 9u, 33u}) {
        const auto fast = nearest(tree, query, k);
        const auto slow = brute_force(pts, count, 3, query, k);
        ASSERT_EQ(fast.size(), slow.size());
        for (std::size_t i = 0; i < fast.size(); ++i) {
          EXPECT_EQ(fast[i].index, slow[i].index)
              << "seed " << seed << " query " << q << " k " << k << " rank "
              << i;
          EXPECT_EQ(fast[i].squared_dist, slow[i].squared_dist);
        }
      }
    }
  }
}

TEST(KdTree, BoxPruningSkipsMostNodesOffThePlane) {
  // The forecast's shape: a 64x64 grid whose third feature is constant,
  // queried one unit off that plane. Every candidate distance includes
  // that unit, so a split-axis test alone almost never prunes; the
  // bounding boxes must.
  constexpr std::size_t kSide = 64;
  std::vector<double> pts;
  for (std::size_t y = 0; y < kSide; ++y) {
    for (std::size_t x = 0; x < kSide; ++x) {
      pts.push_back(static_cast<double>(x) / kSide * 3.4 - 1.7);
      pts.push_back(static_cast<double>(y) / kSide * 3.4 - 1.7);
      pts.push_back(0.0);
    }
  }
  const std::size_t count = kSide * kSide;
  KdTree tree;
  tree.build(pts, count, 3);
  std::vector<Neighbor> out;
  std::size_t visited = 0;
  for (std::size_t p = 0; p < count; p += 7) {
    const std::vector<double> query{pts[3 * p], pts[3 * p + 1], 1.0};
    visited += tree.query(query, 4, out);
    ASSERT_EQ(out.size(), 4u);
    EXPECT_EQ(out[0].index, p);
  }
  const std::size_t queries = (count + 6) / 7;
  EXPECT_LT(visited, queries * count / 40)
      << "mean nodes visited per query: " << visited / queries;
}

}  // namespace
}  // namespace bd::ml
