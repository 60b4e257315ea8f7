/// Tests for the moment-grid history ring buffer.

#include <gtest/gtest.h>

#include "beam/deposit.hpp"
#include "beam/history.hpp"
#include "util/check.hpp"

namespace bd::beam {
namespace {

GridSpec small_spec() { return make_centered_grid(8, 8, 1.0, 1.0); }

std::pair<Grid2D, Grid2D> constant_grids(const GridSpec& spec, double value) {
  Grid2D rho(spec), grad(spec);
  rho.fill(value);
  grad.fill(-value);
  return {std::move(rho), std::move(grad)};
}

TEST(History, PushAndRetrieve) {
  GridHistory history(small_spec(), 4);
  auto [rho, grad] = constant_grids(small_spec(), 1.0);
  history.fill_all(0, rho, grad);
  for (std::int64_t step = 1; step <= 3; ++step) {
    auto [r, g] = constant_grids(small_spec(), static_cast<double>(step));
    history.push_step(step, r, g);
  }
  EXPECT_EQ(history.latest_step(), 3);
  EXPECT_DOUBLE_EQ(history.value(3, kChannelRho, 2, 2), 3.0);
  EXPECT_DOUBLE_EQ(history.value(2, kChannelRho, 0, 0), 2.0);
  EXPECT_DOUBLE_EQ(history.value(1, kChannelDrhoDs, 5, 5), -1.0);
  EXPECT_DOUBLE_EQ(history.value(0, kChannelRho, 0, 0), 1.0);
}

TEST(History, EvictsOldestBeyondDepth) {
  GridHistory history(small_spec(), 3);
  auto [rho, grad] = constant_grids(small_spec(), 0.0);
  history.fill_all(0, rho, grad);
  for (std::int64_t step = 1; step <= 4; ++step) {
    auto [r, g] = constant_grids(small_spec(), static_cast<double>(step));
    history.push_step(step, r, g);
  }
  EXPECT_TRUE(history.has_step(4));
  EXPECT_TRUE(history.has_step(2));
  EXPECT_FALSE(history.has_step(1));
  EXPECT_THROW(history.value(1, kChannelRho, 0, 0), bd::CheckError);
}

TEST(History, RejectsNonConsecutivePush) {
  GridHistory history(small_spec(), 4);
  auto [rho, grad] = constant_grids(small_spec(), 1.0);
  history.fill_all(0, rho, grad);
  EXPECT_THROW(history.push_step(2, rho, grad), bd::CheckError);
  EXPECT_THROW(history.push_step(0, rho, grad), bd::CheckError);
}

TEST(History, RejectsWrongSpec) {
  GridHistory history(small_spec(), 2);
  Grid2D wrong(make_centered_grid(4, 4, 1.0, 1.0));
  EXPECT_THROW(history.push_step(0, wrong, wrong), bd::CheckError);
}

TEST(History, FillAllPopulatesWholeDepth) {
  GridHistory history(small_spec(), 5);
  auto [rho, grad] = constant_grids(small_spec(), 7.0);
  history.fill_all(10, rho, grad);
  for (std::int64_t step = 6; step <= 10; ++step) {
    EXPECT_TRUE(history.has_step(step));
    EXPECT_DOUBLE_EQ(history.value(step, kChannelRho, 3, 3), 7.0);
  }
  EXPECT_FALSE(history.has_step(5));
}

TEST(History, RowPtrMatchesValues) {
  GridHistory history(small_spec(), 2);
  Grid2D rho(small_spec()), grad(small_spec());
  rho.at(3, 4) = 42.0;
  history.fill_all(0, rho, grad);
  const double* row = history.row_ptr(0, kChannelRho, 2, 4);
  EXPECT_DOUBLE_EQ(row[1], 42.0);
  EXPECT_EQ(history.plane(0, kChannelRho) + 4 * 8 + 2, row);
}

TEST(History, SlotsShareOneContiguousBuffer) {
  // The SIMT cache model needs stable, distinct addresses per (step,
  // channel) plane inside one allocation.
  GridHistory history(small_spec(), 3);
  auto [rho, grad] = constant_grids(small_spec(), 1.0);
  history.fill_all(2, rho, grad);
  const double* lo = history.plane(0, kChannelRho);
  const double* hi = lo;
  for (std::int64_t step = 0; step <= 2; ++step) {
    for (auto channel : {kChannelRho, kChannelDrhoDs}) {
      const double* p = history.plane(step, channel);
      lo = std::min(lo, p);
      hi = std::max(hi, p);
    }
  }
  const std::size_t plane = small_spec().nodes();
  EXPECT_EQ(static_cast<std::size_t>(hi - lo), plane * (3 * 2 - 1));
}

TEST(History, DepthOneStillWorks) {
  GridHistory history(small_spec(), 1);
  auto [rho, grad] = constant_grids(small_spec(), 2.0);
  history.fill_all(0, rho, grad);
  history.push_step(1, rho, grad);
  EXPECT_TRUE(history.has_step(1));
  EXPECT_FALSE(history.has_step(0));
}

}  // namespace
}  // namespace bd::beam
