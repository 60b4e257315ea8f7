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

/// Strides of the random groups: whole 128-byte lines up, down and zero,
/// and strides that are not whole lines.
constexpr std::int64_t kStrides[] = {0, 128, 512, -256, -4096, 24, -200, 1};

/// A random warp of 1-32 lanes covering the analyzer's grouping cases:
/// three load, two loop and two branch sites plus one site id used by both
/// a load and a branch; every lane picks its own site sequence, so lanes
/// visit sites in different orders and reach different occurrences; loads
/// are coalesced, broadcast, scattered, zero-byte, line-straddling or many
/// lines wide. A quarter of the load events are load_groups() calls of 0-23
/// groups of 1-4 rows at a stride from kStrides, as the batched kernels
/// issue them. In half the warps "load-c" takes only groups of 3 rows 512
/// bytes apart, so its group slots last to finish(); in the others a lane
/// may report it in another shape, which splits them. Each lane reports
/// its events to its own trace and to `recorder`, in a random interleaving
/// of the event kinds.
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
  const bool groups_only_at_c = rng.uniform_index(2) == 0;
  std::vector<const void*> firsts;
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
        const std::size_t site_index = rng.uniform_index(4);
        const std::uint32_t site = kLoadSites[site_index];
        std::uint32_t bytes = kWidths[rng.uniform_index(5)];
        const std::uint64_t pattern = rng.uniform_index(4);
        if (pattern == 2) {  // wide: many lines from one lane
          bytes = 128 * static_cast<std::uint32_t>(1 + rng.uniform_index(12));
        }
        const bool usual_c =
            site_index == 2 && (groups_only_at_c || rng.uniform_index(8) != 0);
        const bool grouped = usual_c || rng.uniform_index(4) == 0;
        std::uint32_t rows = 1;
        std::int64_t stride = 0;
        if (usual_c) {
          rows = 3;
          stride = 512;
        } else if (grouped) {
          rows = 1 + static_cast<std::uint32_t>(rng.uniform_index(4));
          stride = kStrides[rng.uniform_index(std::size(kStrides))];
        }
        firsts.resize(grouped ? rng.uniform_index(24) : 1);
        for (const void*& first : firsts) {
          std::uint64_t addr = 0x10000 + lane * 8 + i * 256;  // coalesced
          if (pattern == 0) {
            addr = 0x8000 + i * 8;  // same for every lane
          } else if (pattern != 3) {
            addr = 8 * rng.uniform_index(1 << 16);  // scattered or wide
          }
          first = reinterpret_cast<const void*>(addr);
          ++i;
        }
        for (LaneProbe* p : probes) {
          if (grouped) {
            p->load_groups(site, firsts.data(), firsts.size(), rows, stride,
                           bytes);
          } else {
            p->load(site, firsts[0], bytes);
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
  // load_groups is `count * rows` load() calls in (group, row) order: the
  // same rows issued one by one and as groups give the same stream and
  // counters, at 128- and 32-byte lines. Groups have 1-4 rows at strides
  // of whole lines (up, down and zero) and not, of 0, 8, 24 or 200 bytes,
  // so some rows straddle a line. Lanes issue different numbers of groups
  // at each site, so a group can start at any occurrence and reach
  // instructions no earlier lane did. In half the warps each site keeps
  // one shape, so its group slots last to finish(); in the others a lane
  // may change it. A sixth of the groups start near address 0, where a
  // negative stride wraps a row round 2^64.
  constexpr std::uint32_t kSites[] = {site_id("runs/a"), site_id("runs/b")};
  constexpr std::uint32_t kWidths[] = {0, 8, 24, 200};
  // Row r of a group, modulo 2^64 as load_groups places it.
  const auto row_of = [](const void* first, std::uint32_t r,
                         std::int64_t stride) {
    return reinterpret_cast<const void*>(
        reinterpret_cast<std::uintptr_t>(first) +
        r * static_cast<std::uintptr_t>(stride));
  };
  DeviceSpec specs[2] = {tesla_k40(), tesla_k40()};
  specs[1].l1_line_bytes = 32;
  util::Rng rng(1123);
  std::vector<const void*> firsts;
  std::uint64_t loads = 0;
  for (const DeviceSpec& spec : specs) {
    SCOPED_TRACE(::testing::Message() << spec.l1_line_bytes << "-byte lines");
    WarpRecorder singles(spec);
    WarpRecorder groups(spec);
    for (int warp = 0; warp < 60; ++warp) {
      SCOPED_TRACE(::testing::Message() << "warp " << warp);
      struct Shape {
        std::uint32_t rows;
        std::int64_t stride;
        std::uint32_t bytes;
      };
      const auto random_shape = [&] {
        return Shape{1 + static_cast<std::uint32_t>(rng.uniform_index(4)),
                     kStrides[rng.uniform_index(std::size(kStrides))],
                     kWidths[rng.uniform_index(4)]};
      };
      const Shape fixed[] = {random_shape(), random_shape()};
      const bool one_shape = warp % 2 == 0;
      const std::size_t lanes = 1 + rng.uniform_index(32);
      for (std::size_t lane = 0; lane < lanes; ++lane) {
        singles.begin_lane();
        groups.begin_lane();
        for (std::uint64_t n = rng.uniform_index(8); n > 0; --n) {
          const std::size_t site = rng.uniform_index(2);
          const Shape shape = one_shape ? fixed[site] : random_shape();
          const bool near_zero = rng.uniform_index(6) == 0;
          firsts.resize(rng.uniform_index(24));
          for (const void*& first : firsts) {
            const std::uint64_t word = lane + rng.uniform_index(2048);
            first = reinterpret_cast<const void*>(
                near_zero ? 8 * (word % 64) : 0x4000'0000 + 8 * word);
          }
          for (const void* first : firsts) {
            for (std::uint32_t r = 0; r < shape.rows; ++r) {
              singles.load(kSites[site], row_of(first, r, shape.stride),
                           shape.bytes);
            }
          }
          groups.load_groups(kSites[site], firsts.data(), firsts.size(),
                             shape.rows, shape.stride, shape.bytes);
        }
      }
      KernelMetrics want;
      KernelMetrics got;
      const WarpReplay expected = singles.finish(want);
      const WarpReplay replay = groups.finish(got);
      bd::testing::expect_identical(got, want);
      EXPECT_EQ(oracle::loads_of(replay, spec.l1_line_bytes),
                oracle::loads_of(expected, spec.l1_line_bytes));
      loads += got.load_instructions;
    }

    // A group's rows hit the 2^15-line cap of a line set where single
    // loads do: 2^15 lines a row pass, one more throws.
    constexpr std::uint32_t kMax = 1u << 15;
    const std::int64_t stride = 4 * std::int64_t{spec.l1_line_bytes};
    const void* const first = reinterpret_cast<const void*>(0x4000'0000);
    for (std::uint32_t lines : {kMax, kMax + 1}) {
      SCOPED_TRACE(::testing::Message() << lines << " lines a row");
      const std::uint32_t bytes = lines * spec.l1_line_bytes;
      singles.begin_lane();
      groups.begin_lane();
      if (lines > kMax) {
        EXPECT_THROW(singles.load(kSites[0], first, bytes), CheckError);
        EXPECT_THROW(groups.load_groups(kSites[0], &first, 1, 3, stride, bytes),
                     CheckError);
        continue;
      }
      for (std::uint32_t r = 0; r < 3; ++r) {
        singles.load(kSites[0], row_of(first, r, stride), bytes);
      }
      groups.load_groups(kSites[0], &first, 1, 3, stride, bytes);
      KernelMetrics want;
      KernelMetrics got;
      const oracle::LoadStream expected =
          oracle::loads_of(singles.finish(want), spec.l1_line_bytes);
      EXPECT_EQ(oracle::loads_of(groups.finish(got), spec.l1_line_bytes),
                expected);
      bd::testing::expect_identical(got, want);
      ASSERT_EQ(expected.size(), 3u);
      EXPECT_EQ(expected[2].size(), kMax);
    }
  }
  EXPECT_GT(loads, 0u);
}

TEST(Warp, GroupSiteSplitsInPlace) {
  // A load site's slots stand for groups of the first shape reported
  // there, and a lane that reports the site in another shape splits them
  // into row slots in place. The first `group_lanes` lanes report the site
  // as groups of 3 rows 4 lines apart; the last of them switches to single
  // loads partway, which splits the site in its first lane or after nine
  // lanes of groups. Lanes up to 19 then report single loads (lane 12
  // switches to groups partway) and the rest groups 2 lines apart. In the
  // case without single loads, lanes from `group_lanes` on report groups 2
  // lines apart, so the second stride splits the site. Between calls each
  // lane loads at a second site, which splits never touch, so the stream
  // must keep the order lanes first reached each instruction. Compared
  // with the hash-map oracle at 128- and 32-byte lines.
  constexpr std::uint32_t kSite = site_id("split/rows");
  constexpr std::uint32_t kOther = site_id("split/other");
  struct Case {
    std::size_t group_lanes;
    bool singles;
  };
  for (std::uint32_t line_bytes : {128u, 32u}) {
    for (const Case c : {Case{1, true}, Case{10, true}, Case{10, false}}) {
      SCOPED_TRACE(::testing::Message()
                   << line_bytes << "-byte lines, " << c.group_lanes
                   << " group lanes" << (c.singles ? ", single loads" : ""));
      DeviceSpec spec = tesla_k40();
      spec.l1_line_bytes = line_bytes;
      const std::int64_t line = line_bytes;
      // The stride of a lane's call-th report; 0 for single loads.
      const auto stride_of = [&](std::size_t lane,
                                 std::uint64_t call) -> std::int64_t {
        if (lane < c.group_lanes) {
          return c.singles && lane + 1 == c.group_lanes && call >= 2 ? 0
                                                                     : 4 * line;
        }
        if (!c.singles || lane >= 20 || (lane == 12 && call >= 2)) {
          return 2 * line;
        }
        return 0;
      };
      WarpRecorder recorder(spec);
      std::vector<LaneTrace> lanes(32);
      for (std::size_t lane = 0; lane < lanes.size(); ++lane) {
        recorder.begin_lane();
        LaneProbe* const probes[] = {&lanes[lane], &recorder};
        for (std::uint64_t call = 0; call < 4; ++call) {
          const void* firsts[3];
          for (std::uint64_t g = 0; g < 3; ++g) {
            firsts[g] = reinterpret_cast<const void*>(
                0x4000'0000 + 8 * lane + 24 * g + 1000 * call);
          }
          const std::int64_t stride = stride_of(lane, call);
          for (LaneProbe* p : probes) {
            if (stride == 0) {
              for (const void* first : firsts) p->load(kSite, first, 24);
            } else {
              p->load_groups(kSite, firsts, 3, 3, stride, 24);
            }
            p->load(kOther, firsts[call % 3], 8);
          }
        }
      }
      KernelMetrics got;
      KernelMetrics want;
      const WarpReplay replay = recorder.finish(got);
      const oracle::LoadStream expected =
          oracle::analyze_warp_groups(lanes, spec, want);
      bd::testing::expect_identical(got, want);
      EXPECT_EQ(oracle::loads_of(replay, spec.l1_line_bytes), expected);
      // 4 calls of 9 rows in the longest lanes, and 4 loads at the other
      // site.
      EXPECT_EQ(got.load_instructions, 4u * 9 + 4);
    }
  }
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
