/// Tests for the warp analyzer: divergence reconstruction and memory
/// replay from per-lane traces.

#include <gtest/gtest.h>

#include "simt/warp.hpp"
#include "test_helpers.hpp"
#include "util/check.hpp"

namespace bd::simt {
namespace {

using bd::testing::analyze_warp;

constexpr std::uint32_t kLoad = site_id("test/load");
constexpr std::uint32_t kLoop = site_id("test/loop");
constexpr std::uint32_t kBranch = site_id("test/branch");

struct WarpHarness {
  DeviceSpec spec = test_device();
  SetAssocCache l1{spec.l1_bytes, spec.l1_line_bytes, spec.l1_ways};
  SetAssocCache l2{spec.l2_bytes, spec.l2_line_bytes, spec.l2_ways};
  KernelMetrics metrics;

  void analyze(const std::vector<LaneTrace>& traces) {
    std::vector<const LaneTrace*> ptrs;
    for (const auto& t : traces) ptrs.push_back(&t);
    analyze_warp(ptrs, spec, l1, l2, metrics);
  }
};

TEST(Warp, UniformLoadsFullyActive) {
  WarpHarness h;
  std::vector<LaneTrace> lanes(32);
  for (std::size_t i = 0; i < 32; ++i) {
    lanes[i].load(kLoad, reinterpret_cast<void*>(0x1000 + 8 * i), 8);
  }
  h.analyze(lanes);
  EXPECT_EQ(h.metrics.load_instructions, 1u);
  EXPECT_EQ(h.metrics.active_lane_slots, 32u);
  EXPECT_EQ(h.metrics.lane_slots, 32u);
  EXPECT_DOUBLE_EQ(h.metrics.warp_execution_efficiency(), 1.0);
  // 32 × 8B contiguous starting at 0x1000 (128-aligned) = 2 lines.
  EXPECT_EQ(h.metrics.l1_transactions, 2u);
  EXPECT_EQ(h.metrics.bytes_requested, 256u);
}

TEST(Warp, PartialLoadGroupCountsInactiveLanes) {
  WarpHarness h;
  std::vector<LaneTrace> lanes(32);
  for (std::size_t i = 0; i < 8; ++i) {
    lanes[i].load(kLoad, reinterpret_cast<void*>(0x1000), 8);
  }
  h.analyze(lanes);
  EXPECT_EQ(h.metrics.active_lane_slots, 8u);
  EXPECT_EQ(h.metrics.lane_slots, 32u);
  EXPECT_DOUBLE_EQ(h.metrics.warp_execution_efficiency(), 0.25);
}

TEST(Warp, LoopDivergenceFromTripSpread) {
  WarpHarness h;
  std::vector<LaneTrace> lanes(4);
  lanes[0].loop_trip(kLoop, 10);
  lanes[1].loop_trip(kLoop, 10);
  lanes[2].loop_trip(kLoop, 5);
  lanes[3].loop_trip(kLoop, 1);
  h.analyze(lanes);
  // Warp runs 10 iterations; active lane-iterations = 26 of 10*32 slots.
  EXPECT_EQ(h.metrics.warp_instructions, 10u);
  EXPECT_EQ(h.metrics.active_lane_slots, 26u);
  EXPECT_EQ(h.metrics.lane_slots, 320u);
}

TEST(Warp, UniformLoopIsFullyEfficientWhenWarpFull) {
  WarpHarness h;
  std::vector<LaneTrace> lanes(32);
  for (auto& lane : lanes) lane.loop_trip(kLoop, 7);
  h.analyze(lanes);
  EXPECT_DOUBLE_EQ(h.metrics.warp_execution_efficiency(), 1.0);
}

TEST(Warp, DivergentBranchDetected) {
  WarpHarness h;
  std::vector<LaneTrace> lanes(4);
  lanes[0].branch(kBranch, true);
  lanes[1].branch(kBranch, true);
  lanes[2].branch(kBranch, false);
  lanes[3].branch(kBranch, true);
  h.analyze(lanes);
  EXPECT_EQ(h.metrics.branch_events, 1u);
  EXPECT_EQ(h.metrics.divergent_branches, 1u);
}

TEST(Warp, UniformBranchNotDivergent) {
  WarpHarness h;
  std::vector<LaneTrace> lanes(4);
  for (auto& lane : lanes) lane.branch(kBranch, true);
  h.analyze(lanes);
  EXPECT_EQ(h.metrics.branch_events, 1u);
  EXPECT_EQ(h.metrics.divergent_branches, 0u);
}

TEST(Warp, OccurrencesAtSameSiteAreSeparateInstructions) {
  WarpHarness h;
  std::vector<LaneTrace> lanes(2);
  lanes[0].load(kLoad, reinterpret_cast<void*>(0x0), 8);
  lanes[0].load(kLoad, reinterpret_cast<void*>(0x100), 8);
  lanes[1].load(kLoad, reinterpret_cast<void*>(0x8), 8);
  // Lane 1 has only one occurrence — the second group has 1 active lane.
  h.analyze(lanes);
  EXPECT_EQ(h.metrics.load_instructions, 2u);
  EXPECT_EQ(h.metrics.active_lane_slots, 3u);
}

TEST(Warp, FlopsSummedAcrossLanes) {
  WarpHarness h;
  std::vector<LaneTrace> lanes(3);
  lanes[0].count_flops(10);
  lanes[1].count_flops(20);
  lanes[2].count_flops(30);
  h.analyze(lanes);
  EXPECT_EQ(h.metrics.flops, 60u);
}

TEST(Warp, L1MissGeneratesL2SectorTraffic) {
  WarpHarness h;
  std::vector<LaneTrace> lanes(1);
  lanes[0].load(kLoad, reinterpret_cast<void*>(0x0), 8);
  h.analyze(lanes);
  // one 128B L1 miss = 4 × 32B L2 sector accesses, all missing to DRAM.
  EXPECT_EQ(h.metrics.l1.misses, 1u);
  EXPECT_EQ(h.metrics.l2.accesses(), 4u);
  EXPECT_EQ(h.metrics.dram_bytes, 128u);
}

TEST(Warp, RepeatedLoadHitsL1) {
  WarpHarness h;
  std::vector<LaneTrace> lanes(1);
  lanes[0].load(kLoad, reinterpret_cast<void*>(0x0), 8);
  lanes[0].load(kLoad, reinterpret_cast<void*>(0x8), 8);
  h.analyze(lanes);
  EXPECT_EQ(h.metrics.l1.hits, 1u);
  EXPECT_EQ(h.metrics.l1.misses, 1u);
  EXPECT_EQ(h.metrics.dram_bytes, 128u);
}

TEST(Warp, EmptyWarpRejected) {
  WarpHarness h;
  std::vector<const LaneTrace*> none;
  EXPECT_THROW(
      analyze_warp(none, h.spec, h.l1, h.l2, h.metrics), CheckError);
}

TEST(Warp, TraceResetClearsEvents) {
  LaneTrace trace;
  trace.load(kLoad, nullptr, 8);
  trace.loop_trip(kLoop, 3);
  trace.branch(kBranch, true);
  trace.count_flops(5);
  trace.reset();
  EXPECT_TRUE(trace.loads().empty());
  EXPECT_TRUE(trace.loops().empty());
  EXPECT_TRUE(trace.branches().empty());
  EXPECT_EQ(trace.flops(), 0u);
}

}  // namespace
}  // namespace bd::simt
