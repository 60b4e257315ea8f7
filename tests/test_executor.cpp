/// Tests for the SIMT executor: launch geometry, determinism, divergence
/// and cache behaviour of simple synthetic kernels.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <thread>
#include <vector>

#include "simt/executor.hpp"
#include "simt_oracle.hpp"
#include "test_helpers.hpp"
#include "util/check.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"
#include "util/telemetry.hpp"

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
  // An L2 the replay cannot model per line (2 sets of 3 ways, each taking
  // 2 sectors of every line) is rejected before any lane runs.
  DeviceSpec uneven_l2 = spec;
  uneven_l2.l2_bytes = 192;
  uneven_l2.l2_ways = 3;
  bool ran = false;
  EXPECT_THROW(launch(uneven_l2, LaunchConfig{1, 32},
                      [&](const ThreadCtx&, LaneProbe&) { ran = true; }),
               CheckError);
  EXPECT_FALSE(ran);
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
  std::vector<std::vector<oracle::LoadStream>> sm_warps(spec.num_sms);
  for (std::uint32_t block = 0; block < config.num_blocks; ++block) {
    for (std::uint32_t warp = 0; warp < warps_per_block; ++warp) {
      const std::uint32_t lane_end = std::min(
          (warp + 1) * spec.warp_size, config.threads_per_block);
      std::vector<LaneTrace> lanes;
      for (std::uint32_t t = warp * spec.warp_size; t < lane_end; ++t) {
        const ThreadCtx ctx{block, t, block * config.threads_per_block + t};
        kernel(ctx, lanes.emplace_back());
      }
      sm_warps[block % spec.num_sms].push_back(
          oracle::analyze_warp_groups(lanes, spec, metrics));
    }
  }
  const std::size_t chunk =
      std::max<std::uint32_t>(1, spec.resident_warps_per_sm / warps_per_block) *
      warps_per_block;
  metrics += bd::testing::serial_replay(spec, sm_warps, chunk);
  apply_time_model(metrics, spec);
  return metrics;
}

/// Every event kind, load_groups included, and a site id shared by a load
/// and a branch. Groups come at a stride of whole lines (4 lines; even
/// blocks keep one shape there, odd blocks give every fifth lane 2 rows,
/// which splits the site's group slots) and at a stride that is not.
KernelFn mixed_kernel() {
  constexpr std::uint32_t kRun = site_id("exec/run");
  constexpr std::uint32_t kOddRun = site_id("exec/odd-run");
  constexpr std::uint32_t kShared = site_id("exec/shared");
  // Fixed device-virtual addresses: the cache replay must not depend on
  // where the host heap puts anything.
  const auto word = [](std::uint64_t i) {
    return reinterpret_cast<const void*>(0x40000000 + 8 * i);
  };
  return [word](const ThreadCtx& ctx, LaneProbe& p) {
    const std::uint32_t g = ctx.global_id;
    const std::uint32_t trips = 1 + (g * 7) % 5;
    p.branch(kShared, g % 3 == 0);
    p.loop_trip(kLoop, trips);
    for (std::uint32_t k = 0; k < trips; ++k) {
      p.load(kLoad, word(g * 3 + k * 97), 8);
    }
    if (g % 3 == 0) p.load(kShared, word((g * 131) % 4096), 24);
    const void* firsts[4];
    for (std::uint32_t r = 0; r < 4; ++r) {
      firsts[r] = word(ctx.block_id * 512 + ctx.thread_id * 4 + r * 200);
    }
    const std::uint32_t rows = ctx.block_id % 2 == 1 && g % 5 == 0 ? 2 : 3;
    p.load_groups(kRun, firsts, 1 + g % 4, rows, 512, 16);
    p.load_groups(kOddRun, firsts, 1 + g % 2, 2, 8 * 37, 16);
    p.count_flops(10 + g % 7);
    p.branch(kShared, trips > 2);
  };
}

/// test_device() with 4 resident warps per SM: a block of 72 threads (3
/// warps) is a chunk of its own, so each SM replays several chunks.
DeviceSpec few_resident_device() {
  DeviceSpec spec = test_device();
  spec.resident_warps_per_sm = 4;
  return spec;
}

void spin_for(std::chrono::microseconds delay) {
  const auto until = std::chrono::steady_clock::now() + delay;
  while (std::chrono::steady_clock::now() < until) {
  }
}

TEST(Executor, LaunchMatchesTraceOracle) {
  // 72 threads per block leave an 8-lane last warp; 7 blocks put several
  // blocks on each SM of test_device(), and with 4 resident warps per SM
  // each block's 3 warps replay as their own chunk.
  const KernelFn kernel = mixed_kernel();
  // A K40 with a 32 KB, 2-way L2: 128 line sets in 32 partitions of 4, and
  // the kernel's lines conflict in them.
  DeviceSpec small_l2 = tesla_k40();
  small_l2.l2_bytes = 32 * 1024;
  small_l2.l2_ways = 2;
  const LaunchConfig config{7, 72};
  for (const DeviceSpec& spec :
       {test_device(), few_resident_device(), tesla_k40(), small_l2}) {
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

TEST(Executor, ChunksReplayInOrderWhenWarpsFinishShuffled) {
  // Each SM's chunks must pass its L1 in block order, whichever chunk's
  // last warp is recorded first. Lane 0 of every warp spins for a seeded
  // time, and about one warp in four spins 2 ms. Both launches put several
  // chunks on an SM and more blocks than SMs, and both L1s are small enough
  // that the order of an SM's chunks changes the counts:
  //  * test_device() with 4 resident warps: 9 blocks of 3 warps, a chunk
  //    each, on 2 SMs. An SM's next chunk is two blocks on, so at 8
  //    threads most seeds see a later chunk finish first.
  //  * a K40 with an 8 KB L1 and a 64 KB L2: 40 blocks of 8 warps on 15
  //    SMs, 2 blocks per chunk. An SM's chunks are 15 blocks apart, so
  //    they mostly finish in order; this case checks the chunk bookkeeping
  //    on a real geometry.
  const KernelFn kernel = mixed_kernel();
  DeviceSpec small_caches = tesla_k40();
  small_caches.l1_bytes = 8 * 1024;
  small_caches.l2_bytes = 64 * 1024;
  struct Case {
    DeviceSpec spec;
    LaunchConfig config;
    std::uint64_t seeds;
  };
  for (const Case& c : {Case{few_resident_device(), LaunchConfig{9, 72}, 8},
                        Case{small_caches, LaunchConfig{40, 256}, 1}}) {
    SCOPED_TRACE(::testing::Message() << c.spec.name << ", "
                                      << c.config.num_blocks << " blocks");
    const std::uint32_t warps_per_block =
        (c.config.threads_per_block + c.spec.warp_size - 1) /
        c.spec.warp_size;
    const KernelMetrics want = oracle_launch(c.spec, c.config, kernel);
    EXPECT_GT(want.l1.hits, 0u);
    for (std::uint64_t seed = 1; seed <= c.seeds; ++seed) {
      util::Rng rng(seed);
      std::vector<std::chrono::microseconds> delay(c.config.num_blocks *
                                                   warps_per_block);
      for (auto& d : delay) {
        d = std::chrono::microseconds(rng.uniform_index(4) == 0
                                          ? 2000
                                          : rng.uniform_index(100));
      }
      const KernelFn shuffled = [&](const ThreadCtx& ctx, LaneProbe& p) {
        if (ctx.thread_id % c.spec.warp_size == 0) {
          spin_for(delay[ctx.block_id * warps_per_block +
                         ctx.thread_id / c.spec.warp_size]);
        }
        kernel(ctx, p);
      };
      for (unsigned threads : {1u, 8u}) {
        SCOPED_TRACE(::testing::Message() << "seed " << seed << ", "
                                          << threads << " threads");
        util::ThreadPool::set_global_threads(threads);
        bd::testing::expect_identical(launch(c.spec, c.config, shuffled),
                                      want);
      }
    }
  }
  util::ThreadPool::set_global_threads(0);
}

TEST(Executor, LaneThrowAfterChunksReplayedIsRethrown) {
  // A lane of the last block throws once earlier chunks have replayed
  // through their L1s and freed their streams: at 1 thread the warps run
  // in order, and at 8 the throwing lane first spins 20 ms. launch
  // rethrows the lane's exception, and the next launch is unaffected.
  const DeviceSpec spec = few_resident_device();
  const LaunchConfig config{9, 72};
  const KernelFn kernel = mixed_kernel();
  const KernelFn throwing = [&](const ThreadCtx& ctx, LaneProbe& p) {
    kernel(ctx, p);
    if (ctx.block_id == config.num_blocks - 1 && ctx.thread_id == 40) {
      spin_for(std::chrono::milliseconds(20));
      throw std::runtime_error("lane 40 of the last block");
    }
  };
  const KernelMetrics want = oracle_launch(spec, config, kernel);
  for (unsigned threads : {1u, 8u}) {
    SCOPED_TRACE(::testing::Message() << threads << " threads");
    util::ThreadPool::set_global_threads(threads);
    try {
      launch(spec, config, throwing);
      ADD_FAILURE() << "launch did not rethrow the lane's exception";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "lane 40 of the last block");
    }
    bd::testing::expect_identical(launch(spec, config, kernel), want);
  }
  util::ThreadPool::set_global_threads(0);
}

TEST(Executor, L1ReplayThreadTimeIsCounted) {
  // The L1 replay runs inside the lane pass, where no span shows it; its
  // summed thread time goes to the launching thread's registry.
  util::telemetry::MetricsRegistry registry;
  const util::telemetry::TelemetryScope scope(&registry, nullptr);
  launch(few_resident_device(), LaunchConfig{9, 72}, mixed_kernel());
  EXPECT_GT(registry.snapshot().counters.at("simt.l1_replay_ns"), 0u);
}

}  // namespace
}  // namespace bd::simt
