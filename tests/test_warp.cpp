/// Tests for the warp analyzer: divergence reconstruction and memory
/// replay from per-lane event streams.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

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
  oracle::TickLruCache l1{spec.l1_bytes, spec.l1_line_bytes, spec.l1_ways};
  oracle::TickLruCache l2{spec.l2_bytes, spec.l2_line_bytes, spec.l2_ways};
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
/// lines wide, and a quarter of the load events are runs of 0-70 rows of
/// one width at one site, as the batched kernels issue them. Each lane
/// reports its events to its own trace and to `recorder`, in a random
/// interleaving of the event kinds.
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
  std::vector<const void*> rows;
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
        std::uint32_t bytes = kWidths[rng.uniform_index(5)];
        const std::uint64_t pattern = rng.uniform_index(4);
        if (pattern == 2) {  // wide: many lines from one lane
          bytes = 128 * static_cast<std::uint32_t>(1 + rng.uniform_index(12));
        }
        const bool run = rng.uniform_index(4) == 0;
        rows.resize(run ? rng.uniform_index(71) : 1);
        for (const void*& row : rows) {
          std::uint64_t addr = 0x10000 + lane * 8 + i * 256;  // coalesced
          if (pattern == 0) {
            addr = 0x8000 + i * 8;  // same for every lane
          } else if (pattern != 3) {
            addr = 8 * rng.uniform_index(1 << 16);  // scattered or wide
          }
          row = reinterpret_cast<const void*>(addr);
          ++i;
        }
        for (LaneProbe* p : probes) {
          if (run) {
            p->load_run(site, rows.data(), bytes, rows.size());
          } else {
            p->load(site, rows[0], bytes);
          }
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
  // Each line size reuses one recorder, so every warp after the first
  // runs on the tables and line arena the warps before it left.
  util::Rng rng(20170801);
  std::size_t widest = 0;
  DeviceSpec specs[2] = {tesla_k40(), tesla_k40()};
  specs[1].l1_line_bytes = 32;
  WarpRecorder recorders[2] = {WarpRecorder(specs[0]),
                               WarpRecorder(specs[1])};
  for (int seed = 0; seed < 300; ++seed) {
    SCOPED_TRACE(::testing::Message() << "warp " << seed);
    const DeviceSpec& spec = specs[seed % 2];
    WarpRecorder& recorder = recorders[seed % 2];
    const std::vector<LaneTrace> lanes = random_warp(rng, recorder);

    KernelMetrics got;
    KernelMetrics want;
    const WarpReplay replay = recorder.finish(got);
    const oracle::LoadStream expected =
        oracle::analyze_warp_groups(lanes, spec, want);
    bd::testing::expect_identical(got, want);
    ASSERT_EQ(replay.loads, expected.size());
    ASSERT_EQ(oracle::loads_of(replay, spec.l1_line_bytes), expected);
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
    EXPECT_EQ(oracle::loads_of(replay, spec.l1_line_bytes),
              oracle::loads_of(fresh, spec.l1_line_bytes));
  }
}

TEST(Warp, RunsMatchSingleLoads) {
  // load_run is `count` load() calls: the same rows issued one by one and
  // grouped into runs give the same stream and counters. Lanes run
  // different numbers of rows at each site, so a run can start at any
  // occurrence and reach instructions no earlier lane did.
  constexpr std::uint32_t kSites[] = {site_id("runs/a"), site_id("runs/b")};
  constexpr std::uint32_t kWidths[] = {0, 8, 24, 200};
  const DeviceSpec spec = tesla_k40();
  util::Rng rng(1123);
  WarpRecorder singles(spec);
  WarpRecorder runs(spec);
  std::vector<const void*> rows;
  std::uint64_t loads = 0;
  for (int warp = 0; warp < 60; ++warp) {
    SCOPED_TRACE(::testing::Message() << "warp " << warp);
    const std::size_t lanes = 1 + rng.uniform_index(32);
    for (std::size_t lane = 0; lane < lanes; ++lane) {
      singles.begin_lane();
      runs.begin_lane();
      for (std::uint64_t n = rng.uniform_index(8); n > 0; --n) {
        const std::uint32_t site = kSites[rng.uniform_index(2)];
        const std::uint32_t bytes = kWidths[rng.uniform_index(4)];
        rows.resize(rng.uniform_index(71));
        for (const void*& row : rows) {
          row = reinterpret_cast<const void*>(
              0x4000'0000 + 8 * (lane + rng.uniform_index(2048)));
        }
        for (const void* row : rows) singles.load(site, row, bytes);
        runs.load_run(site, rows.data(), bytes, rows.size());
      }
    }
    KernelMetrics want;
    KernelMetrics got;
    const WarpReplay expected = singles.finish(want);
    const WarpReplay replay = runs.finish(got);
    bd::testing::expect_identical(got, want);
    EXPECT_EQ(oracle::loads_of(replay, spec.l1_line_bytes),
              oracle::loads_of(expected, spec.l1_line_bytes));
    loads += got.load_instructions;
  }
  EXPECT_GT(loads, 0u);
}

TEST(Warp, LoadTouchingTooManyLinesRejected) {
  // A line set counts its lines in 16 bits: a load may touch 2^15 lines,
  // one more is an error rather than a wrapped count.
  const DeviceSpec spec = tesla_k40();
  constexpr std::uint32_t kMax = 1u << 15;
  WarpRecorder recorder(spec);
  recorder.begin_lane();
  recorder.load(kLoad, nullptr, kMax * spec.l1_line_bytes);
  KernelMetrics metrics;
  const oracle::LoadStream loads =
      oracle::loads_of(recorder.finish(metrics), spec.l1_line_bytes);
  ASSERT_EQ(loads.size(), 1u);
  EXPECT_EQ(loads[0].size(), kMax);
  EXPECT_EQ(loads[0].back(), (kMax - 1) * spec.l1_line_bytes);
  recorder.begin_lane();
  EXPECT_THROW(recorder.load(kLoad, nullptr, (kMax + 1) * spec.l1_line_bytes),
               CheckError);
}

TEST(Warp, StreamCodeRoundTrips) {
  // StreamWriter's code read back by StreamReader gives every load
  // exactly: empty loads, one-line loads, loads whose lines are adjacent
  // or far apart, a load of 2^15 lines (the recorder's limit), first lines
  // that step down as well as up, and lines near 0, at and above 2^39 and
  // up to the last line below 2^64.
  constexpr std::size_t kMax = std::size_t{1} << 15;
  util::Rng rng(27);
  for (std::uint32_t line_bytes : {128u, 32u}) {
    SCOPED_TRACE(::testing::Message() << line_bytes << "-byte lines");
    const std::uint64_t last = ~std::uint64_t{0} / line_bytes;
    const std::uint64_t regions[] = {0, (std::uint64_t{1} << 39) / line_bytes,
                                     last - (std::uint64_t{1} << 17)};
    oracle::LoadStream loads;
    for (int i = 0; i < 400; ++i) {
      std::vector<std::uint64_t>& lines = loads.emplace_back();
      const std::uint64_t kind = rng.uniform_index(8);
      std::size_t count = kind == 0 ? 0 : kind == 1 ? 1 : 2 + rng.uniform_index(63);
      if (i == 200) count = kMax;
      std::uint64_t line =
          regions[rng.uniform_index(3)] + rng.uniform_index(1 << 16);
      while (lines.size() < count) {
        lines.push_back(line * line_bytes);
        const std::uint64_t gap = count == kMax || rng.uniform_index(4) != 0
                                      ? 1
                                      : 1 + rng.uniform_index(1 << 20);
        if (last - line < gap) break;
        line += gap;
      }
    }
    loads.push_back({0, last * line_bytes});  // the widest gap
    loads.push_back({last * line_bytes});     // the longest step up
    loads.push_back({});
    loads.push_back({0});                     // and down
    std::size_t down = 0;
    std::size_t up = 0;
    std::uint64_t first = 0;
    for (const auto& lines : loads) {
      if (lines.empty()) continue;
      down += lines.front() < first;
      up += lines.front() > first;
      first = lines.front();
    }
    ASSERT_GT(down, 100u);
    ASSERT_GT(up, 100u);
    ASSERT_EQ(loads[200].size(), kMax);

    const WarpReplay replay = oracle::replay_of(loads, line_bytes);
    EXPECT_EQ(replay.loads, loads.size());
    EXPECT_EQ(oracle::loads_of(replay, line_bytes), loads);
  }
}

TEST(Warp, MissBucketRoundTrips) {
  // A bucket drains what was pushed, in push order, and is empty after:
  // short steps down and up, repeats, jumps anywhere in the 64-bit range
  // and the two ends of it, over three fills of one bucket.
  util::Rng rng(2017);
  MissBucket bucket;
  for (int fill = 0; fill < 3; ++fill) {
    SCOPED_TRACE(::testing::Message() << "fill " << fill);
    std::vector<std::uint64_t> pushed;
    std::uint64_t line = rng.uniform_index(1 << 20);
    for (int i = 0; i < 5000; ++i) {
      const std::uint64_t kind = rng.uniform_index(4);
      if (kind == 0) {
        line -= 1 + rng.uniform_index(300);
      } else if (kind == 1) {
        line += 1 + rng.uniform_index(300);
      } else if (kind == 2) {
        line = rng.bits();
      }
      pushed.push_back(line);
    }
    for (std::uint64_t end : {std::uint64_t{0}, ~std::uint64_t{0},
                              std::uint64_t{0}}) {
      pushed.push_back(end);
    }
    for (std::uint64_t value : pushed) bucket.push(value);
    std::vector<std::uint64_t> drained;
    bucket.drain([&](std::uint64_t value) { drained.push_back(value); });
    EXPECT_EQ(drained, pushed);
    bucket.drain([](std::uint64_t) { ADD_FAILURE() << "drained twice"; });
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

/// Seeded per-SM streams of one-line loads, 4 warps per SM: half the
/// lines come from a hot set a quarter of the L2's size, the rest from a
/// pool twice its size, so the L1s mostly miss and the L2 both hits and
/// evicts.
std::vector<std::vector<oracle::LoadStream>> seeded_miss_streams(
    const DeviceSpec& spec, std::uint64_t seed) {
  util::Rng rng(seed);
  const std::uint64_t l2_lines = spec.l2_bytes / spec.l1_line_bytes;
  const std::uint64_t hot = std::max<std::uint64_t>(1, l2_lines / 4);
  const std::uint64_t pool = 2 * l2_lines;
  std::vector<std::vector<oracle::LoadStream>> streams(spec.num_sms);
  for (std::vector<oracle::LoadStream>& warps : streams) {
    warps.resize(4);
    for (oracle::LoadStream& warp : warps) {
      for (int load = 0; load < 600; ++load) {
        const std::uint64_t line = rng.uniform_index(2) == 0
                                       ? rng.uniform_index(hot)
                                       : hot + rng.uniform_index(pool);
        warp.push_back({0x4000000 + line * spec.l1_line_bytes});
      }
    }
  }
  return streams;
}

TEST(Warp, LineGranularL2MatchesSectorOracle) {
  // One L2 access per L1 miss, counted once per sector, against the
  // sector-by-sector tick-LRU oracle: on the K40, on the test device, on
  // L2s with fewer sets than a line has sectors (2 sets of 128 or of 6
  // ways) and on a single set.
  DeviceSpec two_sets = test_device();
  two_sets.l2_bytes = 8192;
  two_sets.l2_ways = 128;
  DeviceSpec two_sets_six_ways = test_device();
  two_sets_six_ways.l2_bytes = 384;
  two_sets_six_ways.l2_ways = 6;
  DeviceSpec one_set = test_device();
  one_set.l2_bytes = 4096;
  one_set.l2_ways = 128;
  for (const DeviceSpec& spec :
       {tesla_k40(), test_device(), two_sets, two_sets_six_ways, one_set}) {
    SCOPED_TRACE(::testing::Message() << spec.name << ", L2 " << spec.l2_bytes
                                      << " B, " << spec.l2_ways << " ways");
    const std::uint64_t sectors = spec.l1_line_bytes / spec.l2_line_bytes;
    for (std::uint64_t seed : {1u, 2u}) {
      const auto streams = seeded_miss_streams(spec, seed);
      std::set<std::uint64_t> lines;
      for (const auto& warps : streams) {
        for (const oracle::LoadStream& warp : warps) {
          for (const auto& load : warp) lines.insert(load.begin(), load.end());
        }
      }
      const std::uint64_t distinct_lines = lines.size();
      for (std::size_t chunk : {1u, 4u}) {
        const KernelMetrics want =
            bd::testing::serial_replay(spec, streams, chunk);
        const KernelMetrics got = replay_caches(
            spec, bd::testing::replays_of(streams, spec.l1_line_bytes), chunk);
        // Hits, and more misses than lines: the L2 evicted.
        ASSERT_GT(want.l2.hits, 0u);
        ASSERT_GT(want.l2.misses, distinct_lines * sectors);
        EXPECT_EQ(got.l1.misses, want.l1.misses);
        EXPECT_EQ(got.l2.hits, want.l2.hits);
        EXPECT_EQ(got.l2.misses, want.l2.misses);
        EXPECT_EQ(got.dram_bytes, want.dram_bytes);
      }
    }
  }
}

TEST(Warp, LineGranularL2RejectsUnevenWays) {
  // A set that takes a run of r sectors of every line needs ways divisible
  // by r, or an eviction can split a line's sectors.
  DeviceSpec uneven = test_device();
  uneven.l2_bytes = 192;  // 2 sets of 3 ways
  uneven.l2_ways = 3;
  DeviceSpec one_set = test_device();
  one_set.l2_bytes = 192;  // 1 set of 6 ways, 4 sectors of every line
  one_set.l2_ways = 6;
  for (const DeviceSpec& spec : {uneven, one_set}) {
    const auto streams = bd::testing::replays_of(seeded_miss_streams(spec, 3),
                                                 spec.l1_line_bytes);
    EXPECT_THROW(replay_caches(spec, streams, 4), CheckError);
    EXPECT_THROW(l2_partitions(spec), CheckError);
  }
}

}  // namespace
}  // namespace bd::simt
