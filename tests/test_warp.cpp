/// Tests for the warp analyzer: divergence reconstruction and memory
/// replay from per-lane event streams.

#include <gtest/gtest.h>

#include <algorithm>

#include "simt/warp.hpp"
#include "simt_oracle.hpp"
#include "test_helpers.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace bd::simt {
namespace {

using bd::testing::analyze_warp;
using bd::testing::LaneTrace;
namespace oracle = bd::testing::oracle;

constexpr std::uint32_t kLoad = site_id("test/load");
constexpr std::uint32_t kLoop = site_id("test/loop");
constexpr std::uint32_t kBranch = site_id("test/branch");

struct WarpHarness {
  DeviceSpec spec = test_device();
  SetAssocCache l1{spec.l1_bytes, spec.l1_line_bytes, spec.l1_ways};
  SetAssocCache l2{spec.l2_bytes, spec.l2_line_bytes, spec.l2_ways};
  KernelMetrics metrics;

  void analyze(const std::vector<LaneTrace>& lanes) {
    analyze_warp(lanes, spec, l1, l2, metrics);
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
  const DeviceSpec spec = test_device();
  WarpRecorder recorder(spec);
  KernelMetrics metrics;
  EXPECT_THROW(recorder.finish(metrics), CheckError);
  for (std::uint32_t lane = 0; lane < spec.warp_size; ++lane) {
    recorder.begin_lane();
  }
  EXPECT_THROW(recorder.begin_lane(), CheckError);
}

/// A random warp of 1-32 lanes covering the analyzer's grouping cases:
/// three load, two loop and two branch sites plus one site id used by both
/// a load and a branch; every lane picks its own site sequence, so lanes
/// visit sites in different orders and reach different occurrences; loads
/// are coalesced, broadcast, scattered, zero-byte, line-straddling or many
/// lines wide. Each lane reports its events to its own trace and to
/// `recorder`, in a random interleaving of the event kinds.
std::vector<LaneTrace> random_warp(util::Rng& rng, WarpRecorder& recorder) {
  constexpr std::uint32_t kLoadSites[] = {
      site_id("oracle/load-a"), site_id("oracle/load-b"),
      site_id("oracle/load-c"), site_id("oracle/shared")};
  constexpr std::uint32_t kLoopSites[] = {site_id("oracle/loop-a"),
                                          site_id("oracle/loop-b")};
  constexpr std::uint32_t kBranchSites[] = {
      site_id("oracle/branch-a"), site_id("oracle/branch-b"),
      site_id("oracle/shared")};
  constexpr std::uint32_t kWidths[] = {0, 4, 8, 24, 200};

  std::vector<LaneTrace> lanes(1 + rng.uniform_index(32));
  for (std::size_t lane = 0; lane < lanes.size(); ++lane) {
    recorder.begin_lane();
    LaneProbe* const probes[] = {&lanes[lane], &recorder};
    // Events left per kind: loads, loops, branches, flops.
    std::uint64_t left[] = {rng.uniform_index(40), rng.uniform_index(6),
                            rng.uniform_index(8), 1};
    std::uint64_t i = 0;  // loads so far
    for (std::uint64_t events = left[0] + left[1] + left[2] + left[3];
         events > 0; --events) {
      std::uint64_t pick = rng.uniform_index(events);
      std::size_t kind = 0;
      while (pick >= left[kind]) pick -= left[kind++];
      --left[kind];
      if (kind == 0) {
        const std::uint32_t site = kLoadSites[rng.uniform_index(4)];
        std::uint64_t addr = 0x10000 + lane * 8 + i * 256;  // coalesced
        std::uint32_t bytes = kWidths[rng.uniform_index(5)];
        switch (rng.uniform_index(4)) {
          case 0: addr = 0x8000 + i * 8; break;  // same for every lane
          case 1: addr = 8 * rng.uniform_index(1 << 16); break;  // scattered
          case 2:  // wide: many lines from one lane
            addr = 8 * rng.uniform_index(1 << 16);
            bytes = 128 * static_cast<std::uint32_t>(1 + rng.uniform_index(12));
            break;
          default: break;
        }
        ++i;
        for (LaneProbe* p : probes) {
          p->load(site, reinterpret_cast<const void*>(addr), bytes);
        }
      } else if (kind == 1) {
        const std::uint32_t site = kLoopSites[rng.uniform_index(2)];
        const std::uint64_t trips = rng.uniform_index(20);
        for (LaneProbe* p : probes) p->loop_trip(site, trips);
      } else if (kind == 2) {
        const std::uint32_t site = kBranchSites[rng.uniform_index(3)];
        const bool taken = rng.uniform_index(2) == 1;
        for (LaneProbe* p : probes) p->branch(site, taken);
      } else {
        const std::uint64_t flops = rng.uniform_index(1000);
        for (LaneProbe* p : probes) p->count_flops(flops);
      }
    }
  }
  return lanes;
}

TEST(Warp, AnalyzerMatchesHashMapOracleOnRandomWarps) {
  // The recorder must reproduce the hash-map analyzer exactly: every
  // KernelMetrics counter and the per-load line stream, load for load.
  util::Rng rng(20170801);
  std::size_t widest = 0;
  for (int seed = 0; seed < 300; ++seed) {
    SCOPED_TRACE(::testing::Message() << "warp " << seed);
    DeviceSpec spec = tesla_k40();
    if (seed % 2 == 1) spec.l1_line_bytes = 32;
    WarpRecorder recorder(spec);
    const std::vector<LaneTrace> lanes = random_warp(rng, recorder);

    KernelMetrics got;
    KernelMetrics want;
    const WarpReplay replay = recorder.finish(got);
    const oracle::LoadStream expected =
        oracle::analyze_warp_groups(lanes, spec, want);
    bd::testing::expect_identical(got, want);
    ASSERT_EQ(replay.loads(), expected.size());
    if (replay.loads() > 0) {
      EXPECT_EQ(replay.offsets.front(), 0u);
      EXPECT_EQ(replay.offsets.back(), replay.lines.size());
    }
    ASSERT_EQ(oracle::loads_of(replay), expected);
    for (const auto& lines : expected) {
      widest = std::max(widest, lines.size());
    }
  }
  // Some load had far more distinct lines than a line set starts with.
  EXPECT_GT(widest, 64u);
}

TEST(Warp, RecorderResetsBetweenWarps) {
  // finish() leaves nothing behind: warp B on a recorder that just
  // finished warp A gives the stream and counters of a fresh recorder.
  const DeviceSpec spec = tesla_k40();
  util::Rng rng(97);
  WarpRecorder recorder(spec);
  for (int warp = 0; warp < 20; ++warp) {
    SCOPED_TRACE(::testing::Message() << "warp pair " << warp);
    KernelMetrics first;
    random_warp(rng, recorder);
    recorder.finish(first);

    KernelMetrics got;
    KernelMetrics want;
    const std::vector<LaneTrace> lanes = random_warp(rng, recorder);
    const WarpReplay replay = recorder.finish(got);
    const WarpReplay fresh = bd::testing::record_warp(lanes, spec, want);
    bd::testing::expect_identical(got, want);
    EXPECT_EQ(replay.lines, fresh.lines);
    EXPECT_EQ(replay.offsets, fresh.offsets);
  }
}

TEST(Warp, L2PartitionCountClampsToSets) {
  // Every sector of an L1 line must land in one partition: a partition
  // spans at least l1_line_bytes / l2_line_bytes sets.
  EXPECT_EQ(l2_partitions(tesla_k40()), 32u);   // 2048 sets
  EXPECT_EQ(l2_partitions(test_device()), 8u);  // 32 sets, 4 per line
  DeviceSpec tiny = test_device();
  tiny.l2_bytes = 256;  // 2 sets, fewer than a line's sectors
  EXPECT_EQ(l2_partitions(tiny), 1u);
}

}  // namespace
}  // namespace bd::simt
