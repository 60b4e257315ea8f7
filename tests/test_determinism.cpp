/// The executor determinism contract: simt::launch and the solvers built
/// on it must produce bit-for-bit identical results for any thread count
/// (BD_NUM_THREADS=1 vs 8 here). Divergence/coalescing counters are summed
/// per warp in the parallel pass; every cache set sees one fixed SM-major
/// access order; kernels accumulate per-item partials reduced serially.

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <span>
#include <string>
#include <vector>

#include "core/checkpoint.hpp"
#include "core/fleet.hpp"
#include "core/predictive.hpp"
#include "core/simulation.hpp"
#include "core/solver_scratch.hpp"
#include "simt/cache.hpp"
#include "simt/device.hpp"
#include "simt/executor.hpp"
#include "simt/warp.hpp"
#include "simt_oracle.hpp"
#include "test_helpers.hpp"
#include "util/parallel.hpp"
#include "util/serialize.hpp"
#include "util/telemetry.hpp"

namespace bd {
namespace {

using testing::expect_identical;

simt::KernelMetrics run_synthetic_launch() {
  const simt::DeviceSpec spec = simt::tesla_k40();
  static std::vector<double> data(1 << 16, 1.0);
  constexpr std::uint32_t kLoad = simt::site_id("determinism/load");
  constexpr std::uint32_t kLoop = simt::site_id("determinism/loop");
  constexpr std::uint32_t kBranch = simt::site_id("determinism/branch");
  return simt::launch(
      spec, simt::LaunchConfig{64, 128},
      [&](const simt::ThreadCtx& ctx, simt::LaneProbe& probe) {
        // Scattered loads, data-dependent trips and branches: exercises
        // coalescing, divergence accounting and both cache levels.
        const std::size_t base = (ctx.global_id * 193) % (data.size() - 64);
        probe.load(kLoad, &data[base], 8);
        probe.load(kLoad, &data[(base * 7) % (data.size() - 8)], 8);
        probe.loop_trip(kLoop, 1 + ctx.thread_id % 17);
        probe.branch(kBranch, (ctx.global_id % 3) == 0);
        probe.count_flops(10 + ctx.thread_id % 5);
      });
}

TEST(Determinism, ExecutorMetricsIdenticalAcrossThreadCounts) {
  util::ThreadPool::set_global_threads(1);
  const simt::KernelMetrics serial = run_synthetic_launch();
  util::ThreadPool::set_global_threads(8);
  const simt::KernelMetrics parallel = run_synthetic_launch();
  util::ThreadPool::set_global_threads(0);
  expect_identical(serial, parallel);
}

struct SolverRun {
  std::vector<double> values;
  std::vector<double> errors;
  std::vector<double> observed;
  simt::KernelMetrics metrics;
  std::uint64_t fallback_items = 0;
  std::uint64_t kernel_intervals = 0;
};

/// One fixture shared by the runs each test compares; reset_history()
/// rewinds the ring buffer content in place.
testing::ProblemFixture& shared_fixture() {
  static testing::ProblemFixture fixture(16, 1e-6, 12);
  return fixture;
}

void reset_history(testing::ProblemFixture& fixture) {
  beam::Grid2D rho(fixture.spec), grad(fixture.spec);
  for (std::uint32_t iy = 0; iy < fixture.spec.ny; ++iy) {
    for (std::uint32_t ix = 0; ix < fixture.spec.nx; ++ix) {
      const double x = fixture.spec.x_at(ix);
      const double y = fixture.spec.y_at(iy);
      rho.at(ix, iy) = beam::gaussian_pdf(x, fixture.params.sigma_s) *
                       beam::gaussian_pdf(y, fixture.params.sigma_y);
      grad.at(ix, iy) =
          beam::gaussian_pdf_prime(x, fixture.params.sigma_s) *
          beam::gaussian_pdf(y, fixture.params.sigma_y);
    }
  }
  fixture.history->fill_all(100, rho, grad);
  fixture.problem.step = 100;
}

/// Three Predictive-RP steps (bootstrap + 2 predictive: forecast,
/// clustering, merged kernel, adaptive fallback, online learning).
SolverRun run_predictive() {
  testing::ProblemFixture& fixture = shared_fixture();
  reset_history(fixture);
  core::PredictiveSolver solver(simt::tesla_k40(), {});
  core::SolveResult last;
  for (int step = 0; step < 3; ++step) {
    last = solver.solve(fixture.problem);
    fixture.advance();
  }
  SolverRun run;
  run.values.assign(last.values.data().begin(), last.values.data().end());
  run.errors.assign(last.errors.data().begin(), last.errors.data().end());
  run.observed.assign(last.observed.flat().begin(),
                      last.observed.flat().end());
  run.metrics = last.metrics;
  run.fallback_items = last.fallback_items;
  run.kernel_intervals = last.kernel_intervals;
  return run;
}

TEST(Determinism, PredictiveSolverBitwiseIdenticalAcrossThreadCounts) {
  util::ThreadPool::set_global_threads(1);
  const SolverRun serial = run_predictive();
  util::ThreadPool::set_global_threads(8);
  const SolverRun parallel = run_predictive();
  util::ThreadPool::set_global_threads(0);

  expect_identical(serial.metrics, parallel.metrics);
  EXPECT_EQ(serial.fallback_items, parallel.fallback_items);
  EXPECT_EQ(serial.kernel_intervals, parallel.kernel_intervals);

  ASSERT_EQ(serial.values.size(), parallel.values.size());
  for (std::size_t i = 0; i < serial.values.size(); ++i) {
    ASSERT_EQ(serial.values[i], parallel.values[i]) << "point " << i;
    ASSERT_EQ(serial.errors[i], parallel.errors[i]) << "point " << i;
  }
  ASSERT_EQ(serial.observed.size(), parallel.observed.size());
  for (std::size_t i = 0; i < serial.observed.size(); ++i) {
    ASSERT_EQ(serial.observed[i], parallel.observed[i]) << "entry " << i;
  }
}

TEST(Determinism, RepeatedParallelRunsIdentical) {
  util::ThreadPool::set_global_threads(8);
  const simt::KernelMetrics a = run_synthetic_launch();
  const simt::KernelMetrics b = run_synthetic_launch();
  util::ThreadPool::set_global_threads(0);
  expect_identical(a, b);
}

TEST(Determinism, CheckpointRoundTripBitwiseIdentical) {
  // Straight run of 2N steps vs checkpoint-at-N + in-place resume: the
  // second N steps must match bit-for-bit, *including* the SIMT cache
  // metrics.
  const std::string path = ::testing::TempDir() + "bd_determinism_ckpt.bin";
  core::SimConfig config;
  config.particles = 4000;
  config.nx = 16;
  config.ny = 16;
  config.tolerance = 1e-5;
  config.rigid = false;

  core::Simulation sim(
      config, std::make_unique<core::PredictiveSolver>(simt::tesla_k40()));
  sim.initialize();
  sim.run(2);
  core::save_checkpoint(sim, path);
  const std::vector<core::StepStats> straight = sim.run(2);

  core::restore_checkpoint(sim, path);
  EXPECT_EQ(sim.current_step(), 2);
  const std::vector<core::StepStats> resumed = sim.run(2);
  std::remove(path.c_str());

  ASSERT_EQ(straight.size(), resumed.size());
  for (std::size_t k = 0; k < straight.size(); ++k) {
    const core::SolveResult& a = straight[k].longitudinal;
    const core::SolveResult& b = resumed[k].longitudinal;
    expect_identical(a.metrics, b.metrics);
    EXPECT_EQ(a.fallback_items, b.fallback_items);
    EXPECT_EQ(a.kernel_intervals, b.kernel_intervals);
    ASSERT_EQ(a.values.data().size(), b.values.data().size());
    for (std::size_t i = 0; i < a.values.data().size(); ++i) {
      ASSERT_EQ(a.values.data()[i], b.values.data()[i])
          << "step " << k << " node " << i;
      ASSERT_EQ(a.errors.data()[i], b.errors.data()[i])
          << "step " << k << " node " << i;
    }
    ASSERT_EQ(a.observed.flat().size(), b.observed.flat().size());
    for (std::size_t i = 0; i < a.observed.flat().size(); ++i) {
      ASSERT_EQ(a.observed.flat()[i], b.observed.flat()[i])
          << "step " << k << " entry " << i;
    }
  }
}

TEST(Determinism, WarmStartCacheSurvivesSolverStateRoundTrip) {
  // The warm-start centroid cache is part of the predictive solver's
  // learned state: a solver restored from save_state must cluster the
  // next step from the same cached seeds and produce bit-identical
  // physics. Without the cache in the payload the restored solver would
  // re-seed k-means++ cold and silently diverge.
  testing::ProblemFixture& fixture = shared_fixture();
  reset_history(fixture);
  core::PredictiveSolver solver(simt::tesla_k40(), {});
  for (int step = 0; step < 3; ++step) {
    solver.solve(fixture.problem);
    fixture.advance();
  }

  util::BinaryWriter snapshot;
  solver.save_state(snapshot);

  core::PredictiveSolver restored(simt::tesla_k40(), {});
  util::BinaryReader in(snapshot.payload());
  restored.load_state(in);
  EXPECT_TRUE(in.done());

  const core::SolveResult a = solver.solve(fixture.problem);
  const core::SolveResult b = restored.solve(fixture.problem);
  expect_identical(a.metrics, b.metrics);
  EXPECT_EQ(a.fallback_items, b.fallback_items);
  EXPECT_EQ(a.kernel_intervals, b.kernel_intervals);
  ASSERT_EQ(a.values.data().size(), b.values.data().size());
  for (std::size_t i = 0; i < a.values.data().size(); ++i) {
    ASSERT_EQ(a.values.data()[i], b.values.data()[i]) << "node " << i;
    ASSERT_EQ(a.errors.data()[i], b.errors.data()[i]) << "node " << i;
  }
}

/// Per-SM warp streams built from synthetic lanes through the real
/// analyzer — the input shape of executor pass 2.
std::vector<std::vector<simt::WarpReplay>> synthetic_sm_streams(
    const simt::DeviceSpec& spec, std::size_t warps_per_sm,
    simt::KernelMetrics& analysis) {
  // Fixed device-virtual addresses of a 1<<15-double array, so the cache
  // behaviour does not depend on where the host heap puts it.
  constexpr std::size_t kWords = 1 << 15;
  const auto word = [](std::size_t i) {
    return reinterpret_cast<const void*>(0x10000000 + 8 * i);
  };
  constexpr std::uint32_t kLoad = simt::site_id("determinism/shard-load");
  std::vector<std::vector<simt::WarpReplay>> streams(spec.num_sms);
  std::size_t seq = 0;
  simt::WarpRecorder recorder(spec);
  for (std::uint32_t sm = 0; sm < spec.num_sms; ++sm) {
    for (std::size_t w = 0; w < warps_per_sm; ++w) {
      for (std::uint32_t lane = 0; lane < spec.warp_size; ++lane) {
        recorder.begin_lane();
        // A strided sweep plus a scattered access per lane: L1 hits within
        // a warp, misses across warps, real L2 sharing across SMs.
        const std::size_t base = (seq * 131 + lane * 7) % (kWords - 64);
        recorder.load(kLoad, word(base), 8);
        recorder.load(kLoad, word((base * 13) % (kWords - 8)), 8);
        ++seq;
      }
      streams[sm].push_back(recorder.finish(analysis));
    }
  }
  return streams;
}

TEST(Determinism, ShardedReplayMatchesSerialReference) {
  // Sharding moves only *where* each L1 and each L2 set replays; the
  // per-SM L1 shards and the set-partitioned L2 must reproduce the serial
  // executor's every cache transition — at any pool width, including an
  // L2 whose partition count clamps to its few sets.
  simt::DeviceSpec two_sets = simt::test_device();
  two_sets.l2_bytes = 8192;  // 2 sets of 128 ways: one partition
  two_sets.l2_ways = 128;
  for (const simt::DeviceSpec& spec :
       {simt::tesla_k40(), simt::test_device(), two_sets}) {
    SCOPED_TRACE(::testing::Message()
                 << spec.name << ", L2 " << spec.l2_bytes << " B, "
                 << simt::l2_partitions(spec) << " partitions");
    simt::KernelMetrics analysis;
    const auto streams = synthetic_sm_streams(spec, 6, analysis);
    // Chunks of 6: all of an SM's warps co-resident; of 4: a full chunk,
    // then a partial one.
    for (std::size_t chunk : {6u, 4u}) {
      const simt::KernelMetrics serial =
          testing::serial_replay(spec, streams, chunk);
      ASSERT_GT(serial.l1.misses, 0u);
      ASSERT_GT(serial.l2.hits, 0u);
      ASSERT_GT(serial.l2.misses, 0u);
      for (unsigned threads : {1u, 8u}) {
        util::ThreadPool::set_global_threads(threads);
        const simt::KernelMetrics sharded =
            simt::replay_caches(spec, streams, chunk);
        SCOPED_TRACE(::testing::Message() << "chunks of " << chunk << ", "
                                          << threads << " threads");
        EXPECT_EQ(sharded.l1.hits, serial.l1.hits);
        EXPECT_EQ(sharded.l1.misses, serial.l1.misses);
        EXPECT_EQ(sharded.l2.hits, serial.l2.hits);
        EXPECT_EQ(sharded.l2.misses, serial.l2.misses);
        EXPECT_EQ(sharded.dram_bytes, serial.dram_bytes);
      }
    }
  }
  util::ThreadPool::set_global_threads(0);
}

TEST(Determinism, ExternalScratchArenaDoesNotChangeResults) {
  // The step-persistent SolverScratch is capacity-only state: handing the
  // solver a Simulation-owned arena (problem.scratch) instead of letting
  // it lazily create its own must not change a single bit of output.
  const SolverRun owned = run_predictive();

  testing::ProblemFixture& fixture = shared_fixture();
  reset_history(fixture);
  core::SolverScratch external;
  fixture.problem.scratch = &external;
  core::PredictiveSolver solver(simt::tesla_k40(), {});
  core::SolveResult last;
  for (int step = 0; step < 3; ++step) {
    last = solver.solve(fixture.problem);
    fixture.advance();
  }
  fixture.problem.scratch = nullptr;

  expect_identical(owned.metrics, last.metrics);
  EXPECT_EQ(owned.fallback_items, last.fallback_items);
  EXPECT_EQ(owned.kernel_intervals, last.kernel_intervals);
  ASSERT_EQ(owned.values.size(), last.values.data().size());
  for (std::size_t i = 0; i < owned.values.size(); ++i) {
    ASSERT_EQ(owned.values[i], last.values.data()[i]) << "point " << i;
    ASSERT_EQ(owned.errors[i], last.errors.data()[i]) << "point " << i;
  }
}

TEST(Determinism, ScratchStopsGrowingAfterWarmup) {
  // The allocation-free steady-state claim: after a few steps every
  // scratch acquire is a reuse (rp.scratch_grows stays silent), and a
  // checkpoint/restore into the same Simulation keeps the warm capacity.
  util::telemetry::MetricsRegistry& registry =
      util::telemetry::MetricsRegistry::global();
  core::SimConfig config;
  config.particles = 4000;
  config.nx = 16;
  config.ny = 16;
  config.tolerance = 1e-5;
  config.rigid = false;

  core::Simulation sim(
      config, std::make_unique<core::PredictiveSolver>(simt::tesla_k40()));
  sim.initialize();
  sim.run(3);  // warm-up: bootstrap + first predictive steps grow buffers

  registry.reset();
  sim.run(3);
  auto steady = registry.snapshot().counters;
  EXPECT_EQ(steady.count("rp.scratch_grows"), 0u)
      << "steady state grew scratch " << steady["rp.scratch_grows"]
      << " times";
  EXPECT_GT(steady["rp.scratch_reuses"], 0u);

  // Checkpoint/restore reuses the Simulation's warm arena.
  const std::string path = ::testing::TempDir() + "bd_scratch_ckpt.bin";
  core::save_checkpoint(sim, path);
  core::restore_checkpoint(sim, path);
  std::remove(path.c_str());
  registry.reset();
  sim.run(2);
  steady = registry.snapshot().counters;
  EXPECT_EQ(steady.count("rp.scratch_grows"), 0u);
  EXPECT_GT(steady["rp.scratch_reuses"], 0u);
  registry.reset();
}

/// Solo reference for FleetMatchesSoloBitwise: run one simulation alone
/// and keep every step's stats.
std::vector<core::StepStats> run_solo(std::uint64_t seed, std::size_t steps) {
  core::SimConfig config;
  config.particles = 4000;
  config.nx = 16;
  config.ny = 16;
  config.tolerance = 1e-5;
  config.rigid = false;
  config.seed = seed;
  core::Simulation sim(
      config, std::make_unique<core::PredictiveSolver>(simt::tesla_k40()));
  sim.initialize();
  return sim.run(steps);
}

std::uint64_t global_counter(const std::string& name) {
  const auto snap = util::telemetry::MetricsRegistry::global().snapshot();
  const auto it = snap.counters.find(name);
  return it == snap.counters.end() ? 0u : it->second;
}

TEST(Determinism, FleetMatchesSoloBitwise) {
  // The concurrency-corruption regression, end to end: N simulations
  // interleaved through the fleet (job-private telemetry/fault scopes,
  // lanes hopping threads between quanta) must reproduce each solo run
  // bit-for-bit — physics AND SIMT cache metrics — at any thread count.
  // Each quantum runs nested-serially on one pool thread, so PR 2's
  // thread-count determinism carries over to fleet scheduling. The
  // evicting leg (max_resident = 1) checkpoints sims to a spool at
  // quantum ends and restores them into fresh objects, so the identity
  // must also hold across eviction and resume.
  constexpr std::size_t kSims = 3;
  constexpr std::size_t kSteps = 4;
  const std::uint64_t seeds[kSims] = {1, 2, 3};
  const std::string spool =
      ::testing::TempDir() + "bd_determinism_fleet_spool";

  util::ThreadPool::set_global_threads(1);
  std::vector<core::StepStats> solo[kSims];
  for (std::size_t i = 0; i < kSims; ++i) {
    solo[i] = run_solo(seeds[i], kSteps);
  }

  struct Leg {
    std::size_t threads;
    bool evict;
  };
  for (const Leg leg :
       {Leg{1, false}, Leg{1, true}, Leg{8, false}, Leg{8, true}}) {
    util::ThreadPool::set_global_threads(leg.threads);
    std::filesystem::remove_all(spool);
    const std::uint64_t resumes_before = global_counter("fleet.resumes");
    std::vector<core::StepStats> fleet_stats[kSims];
    {
      core::FleetOptions options;
      options.quantum_steps = 2;  // interleave: two scheduling rounds/job
      if (leg.evict) {
        options.spool_dir = spool;
        options.max_resident = 1;
      }
      core::SimulationFleet fleet(options);
      for (std::size_t i = 0; i < kSims; ++i) {
        core::FleetJobSpec spec;
        spec.name = "sim" + std::to_string(i);
        const std::uint64_t seed = seeds[i];
        spec.factory = [seed] {
          core::SimConfig config;
          config.particles = 4000;
          config.nx = 16;
          config.ny = 16;
          config.tolerance = 1e-5;
          config.rigid = false;
          config.seed = seed;
          return std::make_unique<core::Simulation>(
              config,
              std::make_unique<core::PredictiveSolver>(simt::tesla_k40()));
        };
        spec.target_steps = kSteps;
        // One lane owns the job per quantum and ownership is handed off
        // under the fleet mutex, so the capture needs no extra locking.
        auto* capture = &fleet_stats[i];
        spec.on_step = [capture](const core::StepStats& stats) {
          capture->push_back(stats);
        };
        fleet.submit(std::move(spec));
      }
      fleet.wait_all();
    }
    if (leg.evict) {
      EXPECT_GT(global_counter("fleet.resumes"), resumes_before)
          << leg.threads << " threads";
    }

    for (std::size_t i = 0; i < kSims; ++i) {
      const auto where = [&] {
        return ::testing::Message()
               << "sim " << i << " at " << leg.threads << " threads"
               << (leg.evict ? ", evicting" : "");
      };
      ASSERT_EQ(fleet_stats[i].size(), kSteps) << where();
      for (std::size_t k = 0; k < kSteps; ++k) {
        SCOPED_TRACE(where() << " step " << k);
        const core::SolveResult& a = solo[i][k].longitudinal;
        const core::SolveResult& b = fleet_stats[i][k].longitudinal;
        expect_identical(a.metrics, b.metrics);
        EXPECT_EQ(a.fallback_items, b.fallback_items);
        EXPECT_EQ(a.kernel_intervals, b.kernel_intervals);
        ASSERT_EQ(a.values.data().size(), b.values.data().size());
        for (std::size_t n = 0; n < a.values.data().size(); ++n) {
          ASSERT_EQ(a.values.data()[n], b.values.data()[n]) << "node " << n;
          ASSERT_EQ(a.errors.data()[n], b.errors.data()[n]) << "node " << n;
        }
        EXPECT_EQ(core::fleet_digest_step(solo[i][k], 0u),
                  core::fleet_digest_step(fleet_stats[i][k], 0u));
      }
    }
  }
  std::filesystem::remove_all(spool);
  util::ThreadPool::set_global_threads(0);
}

TEST(Determinism, TelemetryCaptureDoesNotPerturbMetrics) {
  // Telemetry is observational only: recording spans must not change a
  // single profiler counter, with or without worker threads.
  util::telemetry::TraceSession& session =
      util::telemetry::TraceSession::global();
  session.stop();
  session.clear();
  util::ThreadPool::set_global_threads(8);
  const simt::KernelMetrics quiet = run_synthetic_launch();

  session.start();
  const simt::KernelMetrics traced = run_synthetic_launch();
  session.stop();
  EXPECT_GT(session.event_count(), 0u);  // capture actually happened
  session.clear();
  util::ThreadPool::set_global_threads(0);

  expect_identical(quiet, traced);
}

}  // namespace
}  // namespace bd
