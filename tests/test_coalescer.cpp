/// Tests for the warp memory coalescing rule (simt/coalescer.hpp), through
/// the per-instruction coalescer of the analyzer oracle.

#include <gtest/gtest.h>

#include "simt_oracle.hpp"
#include "util/check.hpp"

namespace bd::simt {
namespace {

using bd::testing::oracle::coalesce;
using bd::testing::oracle::CoalesceResult;
using bd::testing::oracle::LaneAccess;

TEST(Coalescer, ContiguousLanesOneTransaction) {
  std::vector<LaneAccess> accesses;
  for (int i = 0; i < 16; ++i) {
    accesses.push_back({static_cast<std::uint64_t>(i) * 8, 8});
  }
  const CoalesceResult r = coalesce(accesses, 128);
  EXPECT_EQ(r.line_addrs.size(), 1u);
  EXPECT_EQ(r.bytes_requested, 128u);
  EXPECT_EQ(r.bytes_transferred, 128u);
}

TEST(Coalescer, FullWarpContiguousDoublesTwoLines) {
  std::vector<LaneAccess> accesses;
  for (int i = 0; i < 32; ++i) {
    accesses.push_back({static_cast<std::uint64_t>(i) * 8, 8});
  }
  const CoalesceResult r = coalesce(accesses, 128);
  EXPECT_EQ(r.line_addrs.size(), 2u);
  EXPECT_EQ(r.bytes_requested, 256u);
  EXPECT_EQ(r.bytes_transferred, 256u);
}

TEST(Coalescer, SameAddressAllLanesBroadcast) {
  std::vector<LaneAccess> accesses(32, LaneAccess{1000, 8});
  const CoalesceResult r = coalesce(accesses, 128);
  EXPECT_EQ(r.line_addrs.size(), 1u);
  EXPECT_EQ(r.bytes_requested, 256u);
  EXPECT_EQ(r.bytes_transferred, 128u);
  // This is the >100% gld_efficiency case of the paper's Table I.
  EXPECT_GT(static_cast<double>(r.bytes_requested) /
                static_cast<double>(r.bytes_transferred),
            1.0);
}

TEST(Coalescer, ScatteredLanesOneLineEach) {
  std::vector<LaneAccess> accesses;
  for (int i = 0; i < 32; ++i) {
    accesses.push_back({static_cast<std::uint64_t>(i) * 4096, 8});
  }
  const CoalesceResult r = coalesce(accesses, 128);
  EXPECT_EQ(r.line_addrs.size(), 32u);
  EXPECT_EQ(r.bytes_transferred, 32u * 128u);
}

TEST(Coalescer, StraddlingAccessTouchesTwoLines) {
  const std::vector<LaneAccess> accesses{{120, 16}};
  const CoalesceResult r = coalesce(accesses, 128);
  EXPECT_EQ(r.line_addrs.size(), 2u);
  EXPECT_EQ(r.line_addrs[0], 0u);
  EXPECT_EQ(r.line_addrs[1], 128u);
}

TEST(Coalescer, DuplicateLinesDeduplicated) {
  const std::vector<LaneAccess> accesses{{0, 8}, {8, 8}, {16, 8}, {700, 8}};
  const CoalesceResult r = coalesce(accesses, 128);
  EXPECT_EQ(r.line_addrs.size(), 2u);
}

TEST(Coalescer, EmptyAccessList) {
  const CoalesceResult r = coalesce({}, 128);
  EXPECT_TRUE(r.line_addrs.empty());
  EXPECT_EQ(r.bytes_requested, 0u);
  EXPECT_EQ(r.bytes_transferred, 0u);
}

TEST(Coalescer, ZeroByteAccessIgnored) {
  const CoalesceResult r = coalesce({{64, 0}}, 128);
  EXPECT_TRUE(r.line_addrs.empty());
}

TEST(Coalescer, RejectsNonPow2Line) {
  EXPECT_THROW(coalesce({{0, 8}}, 100), CheckError);
}

class CoalescerStrideSweep : public ::testing::TestWithParam<int> {};

TEST_P(CoalescerStrideSweep, TransactionsGrowWithStride) {
  const int stride = GetParam();
  std::vector<LaneAccess> accesses;
  for (int i = 0; i < 32; ++i) {
    accesses.push_back({static_cast<std::uint64_t>(i * stride) * 8, 8});
  }
  const CoalesceResult r = coalesce(accesses, 128);
  // 32 lanes × stride doubles span ceil(32*stride*8/128) lines when dense.
  const std::size_t expected =
      std::min<std::size_t>(32, (32u * stride * 8 + 127) / 128);
  EXPECT_EQ(r.line_addrs.size(), expected);
}

INSTANTIATE_TEST_SUITE_P(Strides, CoalescerStrideSweep,
                         ::testing::Values(1, 2, 4, 8, 16));

}  // namespace
}  // namespace bd::simt
