/// Tests for the SIMT executor: launch geometry, determinism, divergence
/// and cache behaviour of simple synthetic kernels.

#include <gtest/gtest.h>

#include <algorithm>
#include <thread>
#include <vector>

#include "simt/executor.hpp"
#include "simt_oracle.hpp"
#include "test_helpers.hpp"
#include "util/check.hpp"
#include "util/parallel.hpp"

namespace bd::simt {
namespace {

using bd::testing::LaneTrace;
namespace oracle = bd::testing::oracle;

constexpr std::uint32_t kLoad = site_id("exec/load");
constexpr std::uint32_t kLoop = site_id("exec/loop");

TEST(Executor, RunsEveryThreadExactlyOnce) {
  const DeviceSpec spec = test_device();
  std::vector<int> visits(256, 0);
  launch(spec, LaunchConfig{4, 64}, [&](const ThreadCtx& ctx, LaneProbe&) {
    ++visits[ctx.global_id];
    BD_CHECK(ctx.thread_id < 64);
    BD_CHECK(ctx.block_id < 4);
    BD_CHECK(ctx.global_id == ctx.block_id * 64 + ctx.thread_id);
  });
  for (int v : visits) EXPECT_EQ(v, 1);
}

TEST(Executor, WarpLanesRunInLaneOrderOnOneThread) {
  // The lane-concurrency contract: any two warps may run at once, but the
  // lanes of one warp run serially, in lane order, on one thread. Each
  // lane records its thread and that thread's running lane count; 72
  // threads per block leave an 8-lane last warp.
  struct Slot {
    std::thread::id thread;
    std::uint64_t seq = 0;
  };
  const DeviceSpec spec = test_device();
  const LaunchConfig config{6, 72};
  std::vector<Slot> slots(config.num_blocks * config.threads_per_block);
  util::ThreadPool::set_global_threads(8);
  launch(spec, config, [&](const ThreadCtx& ctx, LaneProbe& p) {
    thread_local std::uint64_t lanes_run = 0;
    slots[ctx.global_id] = Slot{std::this_thread::get_id(), ++lanes_run};
    p.count_flops(1);
  });
  util::ThreadPool::set_global_threads(0);
  for (std::uint32_t g = 0; g < slots.size(); ++g) {
    if ((g % config.threads_per_block) % spec.warp_size == 0) continue;
    SCOPED_TRACE(::testing::Message() << "lane " << g);
    EXPECT_EQ(slots[g].thread, slots[g - 1].thread);
    EXPECT_EQ(slots[g].seq, slots[g - 1].seq + 1);
  }
}

TEST(Executor, DeterministicMetrics) {
  const DeviceSpec spec = test_device();
  std::vector<double> data(4096, 1.0);
  auto kernel = [&](const ThreadCtx& ctx, LaneProbe& probe) {
    const std::size_t base = (ctx.global_id * 37) % 4000;
    probe.load(kLoad, &data[base], 8);
    probe.count_flops(4);
  };
  const KernelMetrics m1 = launch(spec, LaunchConfig{8, 32}, kernel);
  const KernelMetrics m2 = launch(spec, LaunchConfig{8, 32}, kernel);
  EXPECT_EQ(m1.flops, m2.flops);
  EXPECT_EQ(m1.l1.hits, m2.l1.hits);
  EXPECT_EQ(m1.l2.misses, m2.l2.misses);
  EXPECT_EQ(m1.dram_bytes, m2.dram_bytes);
  EXPECT_DOUBLE_EQ(m1.modeled_seconds, m2.modeled_seconds);
}

TEST(Executor, UniformKernelHasPerfectWarpEfficiency) {
  const DeviceSpec spec = test_device();
  const KernelMetrics m =
      launch(spec, LaunchConfig{2, 64}, [](const ThreadCtx&, LaneProbe& p) {
        p.loop_trip(kLoop, 10);
        p.count_flops(100);
      });
  EXPECT_DOUBLE_EQ(m.warp_execution_efficiency(), 1.0);
  EXPECT_EQ(m.flops, 2u * 64u * 100u);
}

TEST(Executor, DataDependentTripsReduceEfficiency) {
  const DeviceSpec spec = test_device();
  const KernelMetrics m =
      launch(spec, LaunchConfig{2, 64}, [](const ThreadCtx& ctx, LaneProbe& p) {
        p.loop_trip(kLoop, 1 + (ctx.thread_id % 32));  // 1..32 per warp
      });
  // Sum of 1..32 active over 32 iterations of 32 lanes.
  const double expected = (32.0 * 33.0 / 2.0) / (32.0 * 32.0);
  EXPECT_NEAR(m.warp_execution_efficiency(), expected, 1e-12);
}

TEST(Executor, SharedReadsAcrossBlocksHitL2) {
  DeviceSpec spec = test_device();
  spec.num_sms = 1;  // all blocks share one L1 too
  std::vector<double> table(16, 1.0);
  const KernelMetrics m =
      launch(spec, LaunchConfig{8, 32}, [&](const ThreadCtx&, LaneProbe& p) {
        p.load(kLoad, table.data(), 8);
      });
  // One compulsory miss; every other block/warp hits.
  EXPECT_EQ(m.l1.misses, 1u);
  EXPECT_GT(m.l1.hits, 0u);
  EXPECT_EQ(m.dram_bytes, 128u);
}

TEST(Executor, ValidatesLaunchConfig) {
  const DeviceSpec spec = test_device();
  auto noop = [](const ThreadCtx&, LaneProbe&) {};
  EXPECT_THROW(launch(spec, LaunchConfig{0, 32}, noop), CheckError);
  EXPECT_THROW(launch(spec, LaunchConfig{1, 0}, noop), CheckError);
  EXPECT_THROW(launch(spec, LaunchConfig{1, 4096}, noop), CheckError);
}

TEST(Executor, PartialLastWarpAccounted) {
  const DeviceSpec spec = test_device();
  // 40 threads = one full warp + one 8-lane warp.
  const KernelMetrics m =
      launch(spec, LaunchConfig{1, 40}, [](const ThreadCtx&, LaneProbe& p) {
        p.loop_trip(kLoop, 4);
      });
  // Full warp: 4*32 slots active 4*32; partial: 4*32 slots active 4*8.
  EXPECT_EQ(m.lane_slots, 8u * 32u);
  EXPECT_EQ(m.active_lane_slots, 4u * 32u + 4u * 8u);
}

TEST(Executor, TimeModelApplied) {
  const DeviceSpec spec = test_device();
  const KernelMetrics m =
      launch(spec, LaunchConfig{1, 32}, [](const ThreadCtx&, LaneProbe& p) {
        p.count_flops(1000);
      });
  EXPECT_GT(m.modeled_seconds, 0.0);
  EXPECT_GT(m.gflops(), 0.0);
}

TEST(Executor, BlocksRoundRobinOverSms) {
  // Two SMs: blocks 0,2 on SM0 and 1,3 on SM1. Each block reads its own
  // disjoint data; private L1s mean every block's first read misses, and
  // re-reads within the block hit.
  DeviceSpec spec = test_device();
  spec.num_sms = 2;
  std::vector<double> data(4 * 64, 0.0);
  const KernelMetrics m =
      launch(spec, LaunchConfig{4, 32}, [&](const ThreadCtx& ctx, LaneProbe& p) {
        p.load(kLoad, &data[ctx.block_id * 64], 8);
        p.load(kLoad, &data[ctx.block_id * 64], 8);
      });
  EXPECT_EQ(m.l1.misses, 4u);
  EXPECT_EQ(m.l1.hits, 4u);
}

/// simt::launch as the oracle computes it: every lane run again into a
/// LaneTrace, each warp grouped by the hash-map analyzer, blocks dealt to
/// SMs round-robin, each SM's L1 replayed serially in chunks of
/// co-resident blocks' warps, one shared serial L2, then the time model.
KernelMetrics oracle_launch(const DeviceSpec& spec,
                            const LaunchConfig& config,
                            const KernelFn& kernel) {
  const std::uint32_t warps_per_block =
      (config.threads_per_block + spec.warp_size - 1) / spec.warp_size;
  KernelMetrics metrics;
  std::vector<std::vector<WarpReplay>> sm_warps(spec.num_sms);
  for (std::uint32_t block = 0; block < config.num_blocks; ++block) {
    for (std::uint32_t warp = 0; warp < warps_per_block; ++warp) {
      const std::uint32_t lane_end = std::min(
          (warp + 1) * spec.warp_size, config.threads_per_block);
      std::vector<LaneTrace> lanes;
      for (std::uint32_t t = warp * spec.warp_size; t < lane_end; ++t) {
        const ThreadCtx ctx{block, t, block * config.threads_per_block + t};
        kernel(ctx, lanes.emplace_back());
      }
      sm_warps[block % spec.num_sms].push_back(oracle::replay_of(
          oracle::analyze_warp_groups(lanes, spec, metrics)));
    }
  }
  const std::size_t chunk =
      std::max<std::uint32_t>(1, spec.resident_warps_per_sm / warps_per_block) *
      warps_per_block;
  metrics += bd::testing::serial_replay(spec, sm_warps, chunk);
  apply_time_model(metrics, spec);
  return metrics;
}

TEST(Executor, LaunchMatchesTraceOracle) {
  // Every event kind, load_run included, and a site id shared by a load
  // and a branch. 72 threads per block leave an 8-lane last warp; 7 blocks
  // put several blocks on each SM of test_device(), and with 4 resident
  // warps per SM each block's 3 warps replay as their own chunk.
  constexpr std::uint32_t kRun = site_id("exec/run");
  constexpr std::uint32_t kShared = site_id("exec/shared");
  // Fixed device-virtual addresses: the cache replay must not depend on
  // where the host heap puts anything.
  const auto word = [](std::uint64_t i) {
    return reinterpret_cast<const void*>(0x40000000 + 8 * i);
  };
  const KernelFn kernel = [&](const ThreadCtx& ctx, LaneProbe& p) {
    const std::uint32_t g = ctx.global_id;
    const std::uint32_t trips = 1 + (g * 7) % 5;
    p.branch(kShared, g % 3 == 0);
    p.loop_trip(kLoop, trips);
    for (std::uint32_t k = 0; k < trips; ++k) {
      p.load(kLoad, word(g * 3 + k * 97), 8);
    }
    if (g % 3 == 0) p.load(kShared, word((g * 131) % 4096), 24);
    const void* run[4];
    for (std::uint32_t r = 0; r < 4; ++r) {
      run[r] = word(ctx.block_id * 512 + ctx.thread_id * 4 + r * 64);
    }
    p.load_run(kRun, run, 16, 1 + g % 4);
    p.count_flops(10 + g % 7);
    p.branch(kShared, trips > 2);
  };
  DeviceSpec few_resident = test_device();
  few_resident.resident_warps_per_sm = 4;
  // A K40 with a 32 KB, 2-way L2: 128 line sets in 32 partitions of 4, and
  // the kernel's lines conflict in them.
  DeviceSpec small_l2 = tesla_k40();
  small_l2.l2_bytes = 32 * 1024;
  small_l2.l2_ways = 2;
  const LaunchConfig config{7, 72};
  for (const DeviceSpec& spec :
       {test_device(), few_resident, tesla_k40(), small_l2}) {
    SCOPED_TRACE(::testing::Message()
                 << spec.name << ", " << spec.resident_warps_per_sm
                 << " resident warps per SM, L2 " << spec.l2_bytes << " B");
    const KernelMetrics want = oracle_launch(spec, config, kernel);
    EXPECT_GT(want.l1.hits, 0u);
    EXPECT_GT(want.l2.hits, 0u);
    EXPECT_GT(want.divergent_branches, 0u);
    for (unsigned threads : {1u, 8u}) {
      SCOPED_TRACE(::testing::Message() << threads << " threads");
      util::ThreadPool::set_global_threads(threads);
      bd::testing::expect_identical(launch(spec, config, kernel), want);
    }
  }
  util::ThreadPool::set_global_threads(0);
}

}  // namespace
}  // namespace bd::simt
