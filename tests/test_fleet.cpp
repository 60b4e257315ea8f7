/// SimulationFleet: submit/poll/cancel lifecycle, failure containment,
/// per-job telemetry and fault-harness isolation, eviction + resume
/// digest identity, resume-on-submit from a pre-existing spool file, and
/// the supervisor layer — crash-safe journal recovery, checkpoint-based
/// retry with backoff, quarantine, the quantum watchdog, drain/restart
/// and the stale-tmp sweep (docs/ROBUSTNESS.md).
///
/// tools/ci.sh reruns this suite under a BD_FAULT sweep: tests that pin
/// `fault_spec` (or an inert private harness) are immune by design; the
/// rest must *absorb* ambient faults through the retry machinery.

#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>

#include "baselines/heuristic.hpp"
#include "baselines/two_phase.hpp"
#include "core/checkpoint.hpp"
#include "core/fleet.hpp"
#include "core/predictive.hpp"
#include "core/simulation.hpp"
#include "simt/device.hpp"
#include "test_helpers.hpp"
#include "util/check.hpp"
#include "util/faultinject.hpp"
#include "util/parallel.hpp"
#include "util/serialize.hpp"
#include "util/telemetry.hpp"

namespace bd {
namespace {

using bd::testing::run_steps;

namespace fs = std::filesystem;

core::SimConfig fleet_config(std::uint64_t seed,
                             bool health_checks = false) {
  core::SimConfig config;
  config.particles = 2000;
  config.nx = 16;
  config.ny = 16;
  config.tolerance = 1e-5;
  config.rigid = false;
  config.seed = seed;
  config.health_checks = health_checks;
  return config;
}

std::unique_ptr<core::Simulation> build_sim(std::uint64_t seed,
                                            bool health_checks = false) {
  auto sim = std::make_unique<core::Simulation>(
      fleet_config(seed, health_checks),
      std::make_unique<core::PredictiveSolver>(simt::tesla_k40()));
  if (health_checks) {
    sim->add_fallback_solver(
        std::make_unique<baselines::HeuristicSolver>(simt::tesla_k40()));
    sim->add_fallback_solver(
        std::make_unique<baselines::TwoPhaseSolver>(simt::tesla_k40()));
  }
  return sim;
}

core::FleetJobSpec job_spec(const std::string& name, std::uint64_t seed,
                            std::size_t target_steps) {
  core::FleetJobSpec spec;
  spec.name = name;
  spec.factory = [seed] { return build_sim(seed); };
  spec.target_steps = target_steps;
  return spec;
}

/// Digest of an uninterrupted solo run — the reference every supervised
/// path (retry, watchdog, kill-and-recover, drain/restart) must reproduce
/// bit-for-bit. The sim gets an inert private harness so an ambient
/// BD_FAULT sweep cannot perturb the reference.
std::uint32_t solo_digest(std::uint64_t seed, std::size_t steps,
                          bool health_checks = false) {
  util::faultinject::FaultHarness inert;
  auto sim = build_sim(seed, health_checks);
  sim->set_fault_harness(&inert);
  sim->initialize();
  std::uint32_t digest = 0;
  for (std::size_t i = 0; i < steps; ++i) {
    digest = core::fleet_digest_step(sim->step(), digest);
  }
  return digest;
}

std::uint64_t global_counter(const std::string& name) {
  const auto snap = util::telemetry::MetricsRegistry::global().snapshot();
  const auto it = snap.counters.find(name);
  return it == snap.counters.end() ? 0u : it->second;
}

/// Scratch directory for spool files, wiped on teardown.
class FleetSpoolTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (fs::temp_directory_path() /
            ("bd_fleet_test_" +
             std::string(::testing::UnitTest::GetInstance()
                             ->current_test_info()
                             ->name())))
               .string();
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string dir_;
};

// ---------------------------------------------------------------------------
// Lifecycle
// ---------------------------------------------------------------------------

TEST(Fleet, SubmitValidatesSpecs) {
  core::SimulationFleet fleet;
  EXPECT_THROW(fleet.submit(job_spec("", 1, 4)), bd::CheckError);
  EXPECT_THROW(fleet.submit(job_spec("a/b", 1, 4)), bd::CheckError);
  EXPECT_THROW(fleet.submit(job_spec("no-steps", 1, 0)), bd::CheckError);
  core::FleetJobSpec no_factory;
  no_factory.name = "no-factory";
  no_factory.target_steps = 4;
  EXPECT_THROW(fleet.submit(no_factory), bd::CheckError);

  const auto id = fleet.submit(job_spec("ok", 1, 2));
  EXPECT_THROW(fleet.submit(job_spec("ok", 2, 2)), bd::CheckError);
  EXPECT_EQ(fleet.job_count(), 1u);
  const core::FleetJobStatus status = fleet.wait(id);
  EXPECT_EQ(status.state, core::FleetJobState::kDone);
}

TEST(Fleet, JobsRunToCompletion) {
  core::FleetOptions options;
  options.quantum_steps = 2;
  core::SimulationFleet fleet(options);
  const auto a = fleet.submit(job_spec("a", 11, 5));
  const auto b = fleet.submit(job_spec("b", 22, 3));
  fleet.wait_all();

  const core::FleetJobStatus sa = fleet.poll(a);
  const core::FleetJobStatus sb = fleet.poll(b);
  EXPECT_EQ(sa.state, core::FleetJobState::kDone);
  EXPECT_EQ(sa.steps_done, 5u);
  EXPECT_EQ(sa.target_steps, 5u);
  EXPECT_NE(sa.digest, 0u);
  EXPECT_TRUE(sa.error.empty());
  EXPECT_EQ(sb.state, core::FleetJobState::kDone);
  EXPECT_EQ(sb.steps_done, 3u);
  // Different seeds walk different trajectories.
  EXPECT_NE(sa.digest, sb.digest);
  EXPECT_THROW(fleet.poll(99), bd::CheckError);
}

TEST(Fleet, SameSpecSameDigest) {
  core::SimulationFleet fleet;
  const auto a = fleet.submit(job_spec("a", 7, 4));
  const auto b = fleet.submit(job_spec("b", 7, 4));
  fleet.wait_all();
  // Identical configs on isolated jobs are bit-identical regardless of
  // which lane/thread ran them — the concurrency-corruption regression.
  EXPECT_EQ(fleet.poll(a).digest, fleet.poll(b).digest);
}

TEST(Fleet, CancelSemantics) {
  // One giant quantum keeps the first job kRunning while the second sits
  // queued behind it (single lane is enough: lanes drain in FIFO order).
  core::FleetOptions options;
  options.quantum_steps = 100000;
  core::SimulationFleet fleet(options);
  const auto running = fleet.submit(job_spec("running", 1, 100000));
  const auto queued = fleet.submit(job_spec("queued", 2, 100000));

  EXPECT_TRUE(fleet.cancel(queued));
  const core::FleetJobStatus qs = fleet.wait(queued);
  EXPECT_EQ(qs.state, core::FleetJobState::kCancelled);
  EXPECT_EQ(qs.steps_done, 0u);
  EXPECT_FALSE(fleet.cancel(queued));  // already terminal

  // Cancel the first job only once it is provably mid-quantum: the lane
  // must notice the flag at the next step boundary.
  while (fleet.poll(running).steps_done == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(fleet.cancel(running));
  const core::FleetJobStatus rs = fleet.wait(running);
  EXPECT_EQ(rs.state, core::FleetJobState::kCancelled);
  EXPECT_GE(rs.steps_done, 1u);
  EXPECT_LT(rs.steps_done, 100000u);
  EXPECT_FALSE(fleet.cancel(running));
}

TEST(Fleet, DestructorCancelsOutstandingJobs) {
  // The dtor must cancel a mid-quantum job at its next step boundary and
  // join without deadlock.
  core::FleetOptions options;
  options.quantum_steps = 100000;
  core::SimulationFleet fleet(options);
  const auto id = fleet.submit(job_spec("long", 3, 100000));
  while (fleet.poll(id).steps_done == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

TEST(Fleet, FailureIsContained) {
  core::SimulationFleet fleet;
  core::FleetJobSpec bad;
  bad.name = "bad";
  bad.factory = [] { return std::unique_ptr<core::Simulation>(); };
  bad.target_steps = 4;
  const auto bad_id = fleet.submit(std::move(bad));
  const auto good_id = fleet.submit(job_spec("good", 5, 3));
  fleet.wait_all();

  const core::FleetJobStatus bs = fleet.poll(bad_id);
  EXPECT_EQ(bs.state, core::FleetJobState::kFailed);
  EXPECT_NE(bs.error.find("factory returned null"), std::string::npos)
      << bs.error;
  EXPECT_EQ(fleet.poll(good_id).state, core::FleetJobState::kDone);
}

// ---------------------------------------------------------------------------
// Isolation
// ---------------------------------------------------------------------------

TEST(Fleet, PerJobMetricsAreIsolated) {
  using util::telemetry::MetricsRegistry;
  MetricsRegistry::global().reset();

  core::SimulationFleet fleet;
  // Pinned fault-free: the exact sim.steps counts below must hold even
  // when the CI fault sweep sets an ambient BD_FAULT that would retry.
  core::FleetJobSpec spec_a = job_spec("a", 1, 4);
  spec_a.fault_spec = "none";
  core::FleetJobSpec spec_b = job_spec("b", 2, 7);
  spec_b.fault_spec = "none";
  const auto a = fleet.submit(std::move(spec_a));
  const auto b = fleet.submit(std::move(spec_b));
  fleet.wait_all();

  const auto sa = fleet.job_metrics(a);
  const auto sb = fleet.job_metrics(b);
  EXPECT_EQ(sa.counters.at("sim.steps"), 4u);
  EXPECT_EQ(sb.counters.at("sim.steps"), 7u);
  // Nothing leaked into the process-global registry: it holds fleet.* and
  // pool.* bookkeeping, never a job's sim.* stream.
  const auto global = MetricsRegistry::global().snapshot();
  EXPECT_EQ(global.counters.count("sim.steps"), 0u);
  EXPECT_EQ(global.counters.at("fleet.completed"), 2u);
  EXPECT_EQ(global.counters.at("fleet.submitted"), 2u);
  MetricsRegistry::global().reset();
}

TEST(Fleet, PerJobFaultHarnessesAreIsolated) {
  util::faultinject::clear();  // default harness must stay untouched

  core::SimulationFleet fleet;
  core::FleetJobSpec faulty = job_spec("faulty", 9, 5);
  faulty.factory = [] { return build_sim(9, /*health_checks=*/true); };
  faulty.fault_spec = "grid_nan@2:1";
  const auto faulty_id = fleet.submit(std::move(faulty));
  core::FleetJobSpec clean = job_spec("clean", 10, 5);
  clean.fault_spec = "none";  // stays clean even under a CI BD_FAULT sweep
  const auto clean_id = fleet.submit(std::move(clean));
  fleet.wait_all();

  EXPECT_EQ(fleet.poll(faulty_id).state, core::FleetJobState::kDone);
  EXPECT_EQ(fleet.poll(clean_id).state, core::FleetJobState::kDone);
  // The injection fired inside the faulty job's scope only.
  const auto faulty_metrics = fleet.job_metrics(faulty_id);
  const auto clean_metrics = fleet.job_metrics(clean_id);
  EXPECT_EQ(faulty_metrics.counters.at("faultinject.injections"), 1u);
  EXPECT_EQ(clean_metrics.counters.count("faultinject.injections"), 0u);
  // ...and never consumed budget from the process-default harness.
  EXPECT_EQ(util::faultinject::fired_count(), 0u);
}

// ---------------------------------------------------------------------------
// Eviction + resume
// ---------------------------------------------------------------------------

TEST_F(FleetSpoolTest, EvictionPreservesDigests) {
  using util::telemetry::MetricsRegistry;
  constexpr std::size_t kJobs = 3;
  constexpr std::size_t kSteps = 6;

  // Reference digests: an unconstrained fleet where every sim stays
  // resident from first to last step.
  std::uint32_t reference[kJobs] = {};
  {
    core::SimulationFleet fleet;
    core::SimulationFleet::JobId ids[kJobs];
    for (std::size_t i = 0; i < kJobs; ++i) {
      ids[i] = fleet.submit(job_spec("job" + std::to_string(i),
                                     100 + i, kSteps));
    }
    fleet.wait_all();
    for (std::size_t i = 0; i < kJobs; ++i) {
      reference[i] = fleet.poll(ids[i]).digest;
    }
  }

  MetricsRegistry::global().reset();
  {
    core::FleetOptions options;
    options.max_resident = 1;
    options.spool_dir = dir_;
    options.quantum_steps = 2;
    core::SimulationFleet fleet(options);
    core::SimulationFleet::JobId ids[kJobs];
    for (std::size_t i = 0; i < kJobs; ++i) {
      ids[i] = fleet.submit(job_spec("job" + std::to_string(i),
                                     100 + i, kSteps));
    }
    fleet.wait_all();
    const auto global = MetricsRegistry::global().snapshot();
    EXPECT_GT(global.counters.at("fleet.evictions"), 0u);
    if (std::getenv("BD_FAULT") == nullptr) {
      EXPECT_EQ(global.counters.at("fleet.evictions"),
                global.counters.at("fleet.resumes"));
    } else {
      // Under the CI fault sweep a retry restores from the spool too, so
      // resumes can outnumber evictions.
      EXPECT_GE(global.counters.at("fleet.resumes"),
                global.counters.at("fleet.evictions"));
    }
    for (std::size_t i = 0; i < kJobs; ++i) {
      const core::FleetJobStatus status = fleet.poll(ids[i]);
      EXPECT_EQ(status.state, core::FleetJobState::kDone);
      EXPECT_EQ(status.steps_done, kSteps);
      // The physics digest chains straight across evict/resume cycles.
      EXPECT_EQ(status.digest, reference[i]) << "job " << i;
      // Completed jobs leave no spool file behind.
      EXPECT_FALSE(
          fs::exists(dir_ + "/job" + std::to_string(i) + ".ckpt"));
    }
  }
  MetricsRegistry::global().reset();
}

TEST_F(FleetSpoolTest, ResumesFromPreexistingSpoolFile) {
  constexpr std::size_t kTarget = 6;
  constexpr std::size_t kPrefix = 2;

  // A prior process ran the scenario for two steps and spooled it. Both
  // solo sims run with inert harnesses (a CI BD_FAULT sweep must not
  // perturb the spooled state or the expected digest).
  util::faultinject::FaultHarness inert;
  auto sim = build_sim(42);
  sim->set_fault_harness(&inert);
  sim->initialize();
  run_steps(*sim, kPrefix);
  const std::string spool = dir_ + "/warm.ckpt";
  core::save_checkpoint(*sim, spool);

  // Expected digest of the *resumed* steps, chained from zero (the fresh
  // job starts with an empty digest; only post-resume steps contribute).
  std::uint32_t expected = 0;
  {
    auto replay = build_sim(42);
    replay->set_fault_harness(&inert);
    core::restore_checkpoint(*replay, spool);
    for (std::size_t i = kPrefix; i < kTarget; ++i) {
      expected = core::fleet_digest_step(replay->step(), expected);
    }
  }

  core::FleetOptions options;
  options.spool_dir = dir_;
  core::SimulationFleet fleet(options);
  core::FleetJobSpec warm = job_spec("warm", 42, kTarget);
  warm.fault_spec = "none";
  const auto id = fleet.submit(std::move(warm));
  const core::FleetJobStatus status = fleet.wait(id);
  EXPECT_EQ(status.state, core::FleetJobState::kDone);
  EXPECT_EQ(status.steps_done, kTarget);
  EXPECT_EQ(status.digest, expected);
  // The sim stepped only kTarget - kPrefix times inside the fleet.
  EXPECT_EQ(fleet.job_metrics(id).counters.at("sim.steps"),
            kTarget - kPrefix);
}

// ---------------------------------------------------------------------------
// Retry + quarantine
// ---------------------------------------------------------------------------

TEST(Fleet, RetryWithoutSpoolRestartsFromScratch) {
  using util::telemetry::MetricsRegistry;
  MetricsRegistry::global().reset();
  constexpr std::size_t kSteps = 5;
  const std::uint32_t reference = solo_digest(33, kSteps);

  // No spool dir: journaling is off and there is no checkpoint to restore
  // — the retry path must rebuild the sim from scratch. pool_throw is
  // pure control flow (the poisoned step never lands in the digest), so
  // the retried run converges on the clean reference digest.
  core::FleetOptions options;
  options.quantum_steps = 2;
  core::SimulationFleet fleet(options);
  core::FleetJobSpec spec = job_spec("retry", 33, kSteps);
  spec.fault_spec = "pool_throw@3";
  spec.retry.max_attempts = 3;
  spec.retry.backoff_rounds = 2;
  const auto id = fleet.submit(std::move(spec));

  const core::FleetJobStatus status = fleet.wait(id);
  EXPECT_EQ(status.state, core::FleetJobState::kDone);
  EXPECT_EQ(status.steps_done, kSteps);
  EXPECT_EQ(status.attempts, 1u);
  EXPECT_TRUE(status.error.empty()) << status.error;
  EXPECT_EQ(status.digest, reference);
  EXPECT_EQ(global_counter("fleet.retries"), 1u);
  MetricsRegistry::global().reset();
}

TEST_F(FleetSpoolTest, RetryRestoresFromCheckpoint) {
  using util::telemetry::MetricsRegistry;
  MetricsRegistry::global().reset();
  constexpr std::size_t kSteps = 6;
  const std::uint32_t reference = solo_digest(44, kSteps);

  core::FleetOptions options;
  options.spool_dir = dir_;
  options.quantum_steps = 2;
  options.checkpoint_every_quanta = 1;  // spool at steps 2, 4, ...
  core::SimulationFleet fleet(options);
  core::FleetJobSpec spec = job_spec("ckptretry", 44, kSteps);
  spec.fault_spec = "pool_throw@5";  // fails after the step-4 checkpoint
  spec.retry.max_attempts = 2;
  const auto id = fleet.submit(std::move(spec));

  const core::FleetJobStatus status = fleet.wait(id);
  EXPECT_EQ(status.state, core::FleetJobState::kDone);
  EXPECT_EQ(status.steps_done, kSteps);
  EXPECT_EQ(status.attempts, 1u);
  EXPECT_TRUE(status.error.empty()) << status.error;
  // Restored from the step-4 spool (digest rewound with it), then the
  // remaining clean steps chain to exactly the uninterrupted digest.
  EXPECT_EQ(status.digest, reference);
  EXPECT_EQ(global_counter("fleet.retries"), 1u);
  EXPECT_GE(global_counter("fleet.resumes"), 1u);
  MetricsRegistry::global().reset();
}

TEST_F(FleetSpoolTest, QuarantineAfterExhaustedRetries) {
  using util::telemetry::MetricsRegistry;
  MetricsRegistry::global().reset();

  core::FleetOptions options;
  options.spool_dir = dir_;
  options.quantum_steps = 1;
  options.checkpoint_every_quanta = 1;  // a good checkpoint lands at step 1
  core::SimulationFleet fleet(options);
  core::FleetJobSpec spec = job_spec("poison", 55, 8);
  // One-shot entries: step 2 fails on the first attempt AND on the retry.
  spec.fault_spec = "pool_throw@2;pool_throw@2;pool_throw@2";
  spec.retry.max_attempts = 2;
  spec.retry.backoff_rounds = 1;
  const auto id = fleet.submit(std::move(spec));

  const core::FleetJobStatus status = fleet.wait(id);
  EXPECT_EQ(status.state, core::FleetJobState::kQuarantined);
  EXPECT_EQ(status.attempts, 2u);
  EXPECT_FALSE(status.error.empty());

  const auto quarantine = fleet.quarantined();
  ASSERT_EQ(quarantine.size(), 1u);
  EXPECT_EQ(quarantine[0].name, "poison");
  EXPECT_EQ(quarantine[0].attempts, 2u);
  EXPECT_FALSE(quarantine[0].error.empty());
  // The last good checkpoint stays on disk for postmortem.
  ASSERT_FALSE(quarantine[0].spool_checkpoint.empty());
  EXPECT_TRUE(fs::exists(quarantine[0].spool_checkpoint));

  EXPECT_EQ(global_counter("fleet.quarantined"), 1u);
  EXPECT_EQ(global_counter("fleet.retries"), 1u);
  MetricsRegistry::global().reset();
}

TEST_F(FleetSpoolTest, LadderExhaustionRetriesFromCheckpoint) {
  using util::telemetry::MetricsRegistry;
  MetricsRegistry::global().reset();

  // Nine one-shot wildcard corruptions poison steps 1..9: the ladder
  // demotes 0->1 after step 3, 1->2 after step 6, and three unhealthy
  // steps on the last rung (7..9) exhaust it — a job-level failure. The
  // retry restores the step-8 checkpoint; with the budget spent, steps
  // 9..12 run clean and the job completes.
  std::string fault;
  for (int i = 0; i < 9; ++i) fault += (i ? ";grid_nan:40" : "grid_nan:40");

  core::FleetOptions options;
  options.spool_dir = dir_;
  options.quantum_steps = 4;
  options.checkpoint_every_quanta = 1;
  core::SimulationFleet fleet(options);
  core::FleetJobSpec spec;
  spec.name = "ladder";
  spec.factory = [] { return build_sim(77, /*health_checks=*/true); };
  spec.target_steps = 12;
  spec.fault_spec = fault;
  spec.retry.max_attempts = 2;
  const auto id = fleet.submit(std::move(spec));

  const core::FleetJobStatus status = fleet.wait(id);
  EXPECT_EQ(status.state, core::FleetJobState::kDone);
  EXPECT_EQ(status.steps_done, 12u);
  EXPECT_EQ(status.attempts, 1u);
  EXPECT_TRUE(status.error.empty()) << status.error;
  EXPECT_TRUE(fleet.quarantined().empty());
  EXPECT_EQ(global_counter("fleet.retries"), 1u);
  MetricsRegistry::global().reset();
}

// ---------------------------------------------------------------------------
// Quantum watchdog
// ---------------------------------------------------------------------------

TEST_F(FleetSpoolTest, WatchdogTripsSlowJobAndItStillCompletes) {
  using util::telemetry::MetricsRegistry;
  MetricsRegistry::global().reset();

  core::FleetOptions options;
  options.spool_dir = dir_;
  options.quantum_steps = 5;
  options.step_deadline_ms = 250;
  core::SimulationFleet fleet(options);
  core::FleetJobSpec spec;
  spec.name = "slow";
  // Fallback tiers installed so the post-trip demotion has a rung to go to.
  spec.factory = [] { return build_sim(66, /*health_checks=*/true); };
  spec.target_steps = 5;
  spec.fault_spec = "slow_step@2:2000";  // step 2 stalls 2 s >> 250 ms
  // Generous budget: a loaded CI machine may trip the deadline spuriously
  // on other steps too, and every trip must end in a retry, not quarantine.
  spec.retry.max_attempts = 10;
  const auto id = fleet.submit(std::move(spec));

  const core::FleetJobStatus status = fleet.wait(id);
  EXPECT_EQ(status.state, core::FleetJobState::kDone);
  EXPECT_EQ(status.steps_done, 5u);
  EXPECT_GE(status.attempts, 1u);
  EXPECT_TRUE(status.error.empty()) << status.error;
  EXPECT_GE(global_counter("fleet.watchdog_trips"), 1u);
  EXPECT_GE(global_counter("fleet.retries"), 1u);
  // The trip demoted the job one ladder rung (its private registry).
  const auto metrics = fleet.job_metrics(id);
  const auto it = metrics.counters.find("health.demotions");
  ASSERT_NE(it, metrics.counters.end());
  EXPECT_GE(it->second, 1u);
  MetricsRegistry::global().reset();
}

// ---------------------------------------------------------------------------
// Journal recovery
// ---------------------------------------------------------------------------

TEST_F(FleetSpoolTest, KillAndRecoverDigestIdentity) {
  using util::telemetry::MetricsRegistry;
  constexpr std::size_t kJobs = 3;
  constexpr std::size_t kTarget = 16;

  std::uint32_t reference[kJobs] = {};
  for (std::size_t i = 0; i < kJobs; ++i) {
    reference[i] = solo_digest(100 + i, kTarget);
  }

  // Fleet A runs the jobs partway, then is destroyed mid-flight — the
  // crash-like teardown: no drain, no journaled cancels, spool files kept.
  {
    core::FleetOptions options;
    options.spool_dir = dir_;
    options.quantum_steps = 2;
    options.checkpoint_every_quanta = 1;
    core::SimulationFleet fleet(options);
    core::SimulationFleet::JobId ids[kJobs];
    for (std::size_t i = 0; i < kJobs; ++i) {
      core::FleetJobSpec spec =
          job_spec("job" + std::to_string(i), 100 + i, kTarget);
      spec.fault_spec = "none";
      ids[i] = fleet.submit(std::move(spec));
    }
    const auto all_past = [&] {
      for (const auto id : ids) {
        if (fleet.poll(id).steps_done < 4) return false;
      }
      return true;
    };
    while (!all_past()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  ASSERT_TRUE(fs::exists(dir_ + "/fleet.journal"));

  // Fleet B replays the journal and resumes every incomplete job from its
  // last good checkpoint; the final digests must be bit-identical to the
  // uninterrupted solo runs.
  MetricsRegistry::global().reset();
  core::FleetOptions options;
  options.spool_dir = dir_;
  options.quantum_steps = 2;
  options.checkpoint_every_quanta = 1;
  options.recovery_factory = [](const std::string& name) {
    return build_sim(100 + static_cast<std::uint64_t>(name.back() - '0'));
  };
  core::SimulationFleet fleet(options);
  EXPECT_EQ(global_counter("fleet.journal_replays"), 1u);
  EXPECT_GE(global_counter("fleet.recovered"), 1u);
  const auto recovered = fleet.recovered();
  ASSERT_EQ(recovered.size(), kJobs);
  fleet.wait_all();

  std::size_t next_id = 0;
  for (const auto& job : recovered) {
    const std::size_t i = static_cast<std::size_t>(job.name.back() - '0');
    ASSERT_LT(i, kJobs);
    if (job.resubmitted) {
      // Resubmitted jobs get dense ids in journal (= submit) order.
      const core::FleetJobStatus status = fleet.poll(next_id++);
      EXPECT_EQ(status.state, core::FleetJobState::kDone) << job.name;
      EXPECT_EQ(status.steps_done, kTarget) << job.name;
      EXPECT_EQ(status.digest, reference[i]) << job.name;
    } else {
      // Already journaled complete before the kill.
      EXPECT_EQ(job.state, core::FleetJobState::kDone) << job.name;
      EXPECT_EQ(job.digest, reference[i]) << job.name;
    }
  }
  MetricsRegistry::global().reset();
}

TEST_F(FleetSpoolTest, TruncatedJournalTailRecoversIntactPrefix) {
  constexpr std::size_t kTarget = 30;
  const std::uint32_t reference = solo_digest(88, kTarget);

  {
    core::FleetOptions options;
    options.spool_dir = dir_;
    options.quantum_steps = 2;
    options.checkpoint_every_quanta = 1;
    core::SimulationFleet fleet(options);
    core::FleetJobSpec spec = job_spec("tail", 88, kTarget);
    spec.fault_spec = "none";
    const auto id = fleet.submit(std::move(spec));
    while (fleet.poll(id).steps_done < 4) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  // A crash mid-append leaves a torn frame at the tail; recovery must use
  // the intact prefix. (Only the *tail* may be damaged: the journal entry
  // for a checkpoint is flushed before the spool write starts, so the
  // surviving spool file's step is always covered by the intact prefix.)
  {
    std::ofstream out(dir_ + "/fleet.journal",
                      std::ios::binary | std::ios::app);
    out.write("GARBAGE", 7);
  }

  core::FleetOptions options;
  options.spool_dir = dir_;
  options.quantum_steps = 2;
  options.recovery_factory = [](const std::string&) { return build_sim(88); };
  core::SimulationFleet fleet(options);
  const auto recovered = fleet.recovered();
  ASSERT_EQ(recovered.size(), 1u);
  EXPECT_TRUE(recovered[0].resubmitted);
  fleet.wait_all();
  const core::FleetJobStatus status = fleet.poll(0);
  EXPECT_EQ(status.state, core::FleetJobState::kDone);
  EXPECT_EQ(status.steps_done, kTarget);
  EXPECT_EQ(status.digest, reference);
}

TEST_F(FleetSpoolTest, DuplicateCompleteRecordsAndResubmitOfDoneName) {
  // Hand-crafted journal: header, submit, then TWO complete records for
  // the same job (a crash between the append and the state change can
  // duplicate terminal records on the next run — replay is idempotent).
  const std::string journal = dir_ + "/fleet.journal";
  {
    util::BinaryWriter header;
    header.write_u8(0);   // kHeader
    header.write_u32(1);  // journal version
    util::append_journal_record(journal, header.payload());
    util::BinaryWriter submit;
    submit.write_u8(1);  // kSubmit
    submit.write_string("dup");
    submit.write_u64(4);
    submit.write_string("none");
    submit.write_u32(3);
    submit.write_u32(1);
    util::append_journal_record(journal, submit.payload());
    for (int i = 0; i < 2; ++i) {
      util::BinaryWriter complete;
      complete.write_u8(4);  // kComplete
      complete.write_string("dup");
      complete.write_u64(4);
      complete.write_u32(0xDEADBEEFu);
      util::append_journal_record(journal, complete.payload());
    }
  }

  auto factory_calls = std::make_shared<std::atomic<int>>(0);
  core::FleetOptions options;
  options.spool_dir = dir_;
  options.recovery_factory = [factory_calls](const std::string&) {
    ++*factory_calls;
    return build_sim(1);
  };
  core::SimulationFleet fleet(options);
  // Completed jobs are reported once and never resubmitted.
  const auto recovered = fleet.recovered();
  ASSERT_EQ(recovered.size(), 1u);
  EXPECT_EQ(recovered[0].name, "dup");
  EXPECT_EQ(recovered[0].state, core::FleetJobState::kDone);
  EXPECT_EQ(recovered[0].checkpoint_step, 4u);
  EXPECT_EQ(recovered[0].digest, 0xDEADBEEFu);
  EXPECT_FALSE(recovered[0].resubmitted);
  EXPECT_EQ(factory_calls->load(), 0);

  // The name of a *finished* journaled job is free for reuse.
  core::FleetJobSpec spec = job_spec("dup", 5, 3);
  spec.fault_spec = "none";
  const auto id = fleet.submit(std::move(spec));
  const core::FleetJobStatus status = fleet.wait(id);
  EXPECT_EQ(status.state, core::FleetJobState::kDone);
  EXPECT_EQ(status.steps_done, 3u);
}

TEST_F(FleetSpoolTest, CompactionIsAFixedPoint) {
  // Fleet A runs a job until it has spent one retry attempt and holds
  // periodic checkpoints, then is destroyed mid-run (crash-like: nothing
  // journaled at teardown).
  {
    core::FleetOptions options;
    options.spool_dir = dir_;
    options.quantum_steps = 2;
    options.checkpoint_every_quanta = 1;
    core::SimulationFleet fleet(options);
    core::FleetJobSpec spec = job_spec("compact", 91, 1000);
    spec.fault_spec = "pool_throw@3";  // one failed attempt, then clean
    spec.retry.max_attempts = 3;
    const auto id = fleet.submit(std::move(spec));
    for (;;) {
      const core::FleetJobStatus status = fleet.poll(id);
      if (status.attempts == 1 && status.steps_done >= 6) break;
      ASSERT_FALSE(core::fleet_job_terminal(status.state)) << status.error;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  const std::string journal = dir_ + "/fleet.journal";
  const auto read_bytes = [&] {
    std::ifstream in(journal, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in), {});
  };

  // Fleet B (no recovery_factory) replays A's journal and compacts it;
  // fleet C replays B's compacted journal, whose attempts and error now
  // live in a retry_state record. Replaying and compacting again must
  // change nothing: same report, same bytes on disk.
  core::FleetOptions options;
  options.spool_dir = dir_;
  const auto b = core::SimulationFleet(options).recovered();
  const std::string compacted = read_bytes();
  const auto c = core::SimulationFleet(options).recovered();
  EXPECT_EQ(read_bytes(), compacted);

  ASSERT_EQ(b.size(), 1u);
  EXPECT_EQ(b[0].state, core::FleetJobState::kQueued);
  EXPECT_EQ(b[0].target_steps, 1000u);
  EXPECT_GE(b[0].checkpoint_step, 2u);
  EXPECT_EQ(b[0].attempts, 1u);
  EXPECT_FALSE(b[0].error.empty());
  ASSERT_EQ(c.size(), 1u);
  EXPECT_EQ(c[0].name, b[0].name);
  EXPECT_EQ(c[0].state, b[0].state);
  EXPECT_EQ(c[0].target_steps, b[0].target_steps);
  EXPECT_EQ(c[0].checkpoint_step, b[0].checkpoint_step);
  EXPECT_EQ(c[0].digest, b[0].digest);
  EXPECT_EQ(c[0].attempts, b[0].attempts);
  EXPECT_EQ(c[0].error, b[0].error);
  EXPECT_EQ(c[0].resubmitted, b[0].resubmitted);
}

TEST_F(FleetSpoolTest, MidJournalCorruptionFailsLoudly) {
  const std::string journal = dir_ + "/fleet.journal";
  {
    util::BinaryWriter header;
    header.write_u8(0);
    header.write_u32(1);
    util::append_journal_record(journal, header.payload());
    util::BinaryWriter submit;
    submit.write_u8(1);
    submit.write_string("x");
    submit.write_u64(4);
    submit.write_string("");
    submit.write_u32(3);
    submit.write_u32(1);
    util::append_journal_record(journal, submit.payload());
  }
  // Flip a payload byte of the FIRST record: damage before the tail is
  // real corruption, not a torn append — recovery must refuse, loudly,
  // rather than silently drop journaled work.
  {
    std::fstream f(journal,
                   std::ios::in | std::ios::out | std::ios::binary);
    f.seekg(12);  // first payload byte, past the 12-byte frame header
    char byte = 0;
    f.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x01);
    f.seekp(12);
    f.write(&byte, 1);
  }
  core::FleetOptions options;
  options.spool_dir = dir_;
  EXPECT_THROW(core::SimulationFleet fleet(options), bd::CheckError);
}

// ---------------------------------------------------------------------------
// Drain / restart
// ---------------------------------------------------------------------------

TEST_F(FleetSpoolTest, DrainAndRestartAreBitIdentical) {
  constexpr std::size_t kJobs = 3;
  constexpr std::size_t kTarget = 12;
  std::uint32_t reference[kJobs] = {};
  for (std::size_t i = 0; i < kJobs; ++i) {
    reference[i] = solo_digest(300 + i, kTarget);
  }

  {
    core::FleetOptions options;
    options.spool_dir = dir_;
    options.quantum_steps = 2;
    core::SimulationFleet fleet(options);
    core::SimulationFleet::JobId ids[kJobs];
    for (std::size_t i = 0; i < kJobs; ++i) {
      core::FleetJobSpec spec =
          job_spec("job" + std::to_string(i), 300 + i, kTarget);
      spec.fault_spec = "none";
      ids[i] = fleet.submit(std::move(spec));
    }
    const auto all_past = [&] {
      for (const auto id : ids) {
        if (fleet.poll(id).steps_done < 2) return false;
      }
      return true;
    };
    while (!all_past()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    fleet.drain();
    EXPECT_THROW(fleet.submit(job_spec("late", 9, 2)), bd::CheckError);
    fleet.drain();  // idempotent
  }

  core::FleetOptions options;
  options.spool_dir = dir_;
  options.quantum_steps = 2;
  options.recovery_factory = [](const std::string& name) {
    return build_sim(300 + static_cast<std::uint64_t>(name.back() - '0'));
  };
  core::SimulationFleet fleet(options);
  const auto recovered = fleet.recovered();
  ASSERT_EQ(recovered.size(), kJobs);
  fleet.wait_all();
  std::size_t next_id = 0;
  for (const auto& job : recovered) {
    const std::size_t i = static_cast<std::size_t>(job.name.back() - '0');
    ASSERT_LT(i, kJobs);
    if (job.resubmitted) {
      const core::FleetJobStatus status = fleet.poll(next_id++);
      EXPECT_EQ(status.state, core::FleetJobState::kDone) << job.name;
      EXPECT_EQ(status.steps_done, kTarget) << job.name;
      EXPECT_EQ(status.digest, reference[i]) << job.name;
    } else {
      EXPECT_EQ(job.state, core::FleetJobState::kDone) << job.name;
      EXPECT_EQ(job.digest, reference[i]) << job.name;
    }
  }
}

// ---------------------------------------------------------------------------
// Cancel vs eviction races, stale-tmp sweep
// ---------------------------------------------------------------------------

TEST_F(FleetSpoolTest, CancelRacingEvictionCleansUp) {
  {
    core::FleetOptions options;
    options.spool_dir = dir_;
    options.max_resident = 1;
    options.quantum_steps = 1;
    core::SimulationFleet fleet(options);
    core::FleetJobSpec a = job_spec("a", 401, 500);
    a.fault_spec = "none";
    core::FleetJobSpec b = job_spec("b", 402, 500);
    b.fault_spec = "none";
    const auto ia = fleet.submit(std::move(a));
    const auto ib = fleet.submit(std::move(b));
    // Let the evict/resume churn get going, then cancel mid-churn: each
    // job may be kRunning, kEvicted or mid-restore when the flag lands.
    while (fleet.poll(ia).steps_done < 2 || fleet.poll(ib).steps_done < 2) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    EXPECT_TRUE(fleet.cancel(ia));
    EXPECT_TRUE(fleet.cancel(ib));
    const core::FleetJobStatus sa = fleet.wait(ia);
    const core::FleetJobStatus sb = fleet.wait(ib);
    EXPECT_EQ(sa.state, core::FleetJobState::kCancelled);
    EXPECT_EQ(sb.state, core::FleetJobState::kCancelled);
    EXPECT_LT(sa.steps_done, 500u);
    EXPECT_LT(sb.steps_done, 500u);
    // Cancelled spool files are removed (possibly just after the terminal
    // state publishes — poll briefly).
    for (int i = 0; i < 2000 && (fs::exists(dir_ + "/a.ckpt") ||
                                 fs::exists(dir_ + "/b.ckpt"));
         ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    EXPECT_FALSE(fs::exists(dir_ + "/a.ckpt"));
    EXPECT_FALSE(fs::exists(dir_ + "/b.ckpt"));
  }
  // The journal recorded the cancellations: a restart reports the jobs as
  // cancelled and does not resurrect them.
  core::FleetOptions options;
  options.spool_dir = dir_;
  options.recovery_factory = [](const std::string&) { return build_sim(1); };
  core::SimulationFleet fleet(options);
  const auto recovered = fleet.recovered();
  ASSERT_EQ(recovered.size(), 2u);
  for (const auto& job : recovered) {
    EXPECT_EQ(job.state, core::FleetJobState::kCancelled) << job.name;
    EXPECT_FALSE(job.resubmitted) << job.name;
  }
}

TEST_F(FleetSpoolTest, FailedEvictionCheckpointIsJournaledTerminal) {
  // One lane makes the schedule deterministic: "a" stays resident, so
  // every quantum of "b" ends over max_resident and evicts it — and b's
  // first spool write is cut short by its own fault plan.
  util::ThreadPool::set_global_threads(1);
  {
    core::FleetOptions options;
    options.spool_dir = dir_;
    options.max_resident = 1;
    options.quantum_steps = 1;
    core::SimulationFleet fleet(options);
    core::FleetJobSpec a = job_spec("a", 501, 3);
    a.fault_spec = "none";
    core::FleetJobSpec b = job_spec("b", 502, 3);
    b.fault_spec = "checkpoint_truncate";
    const auto ia = fleet.submit(std::move(a));
    const auto ib = fleet.submit(std::move(b));
    fleet.wait_all();
    EXPECT_EQ(fleet.poll(ia).state, core::FleetJobState::kDone);
    const core::FleetJobStatus sb = fleet.poll(ib);
    EXPECT_EQ(sb.state, core::FleetJobState::kFailed);
    EXPECT_NE(sb.error.find("truncated"), std::string::npos) << sb.error;
  }
  util::ThreadPool::set_global_threads(0);

  // The journal agrees with what poll() reported: a restart finds b
  // failed and does not resurrect it.
  core::FleetOptions options;
  options.spool_dir = dir_;
  options.recovery_factory = [](const std::string&) { return build_sim(1); };
  core::SimulationFleet fleet(options);
  const auto recovered = fleet.recovered();
  ASSERT_EQ(recovered.size(), 2u);
  EXPECT_EQ(recovered[1].name, "b");
  EXPECT_EQ(recovered[1].state, core::FleetJobState::kFailed);
  EXPECT_FALSE(recovered[1].resubmitted);
  EXPECT_EQ(fleet.job_count(), 0u);
}

TEST_F(FleetSpoolTest, StaleTmpSweepRemovesOnlyDeadPidStages) {
  using util::telemetry::MetricsRegistry;
  // A verifiably dead pid: fork a child that exits immediately.
  const pid_t dead = fork();
  if (dead == 0) _exit(0);
  ASSERT_GT(dead, 0);
  int wstatus = 0;
  ASSERT_EQ(waitpid(dead, &wstatus, 0), dead);

  const std::string stale =
      dir_ + "/x.ckpt.tmp." + std::to_string(dead) + ".1";
  const std::string live =
      dir_ + "/y.ckpt.tmp." + std::to_string(::getpid()) + ".2";
  const std::string plain = dir_ + "/z.ckpt";
  // The spool file of a job named "w.tmp.<dead pid>" only looks staged.
  const std::string lookalike =
      dir_ + "/w.tmp." + std::to_string(dead) + ".ckpt";
  std::ofstream(stale) << "stale";
  std::ofstream(live) << "live";
  std::ofstream(plain) << "ckpt";
  std::ofstream(lookalike) << "ckpt";

  MetricsRegistry::global().reset();
  core::FleetOptions options;
  options.spool_dir = dir_;
  core::SimulationFleet fleet(options);
  EXPECT_FALSE(fs::exists(stale));  // dead owner: removed
  EXPECT_TRUE(fs::exists(live));    // live owner (us): kept
  EXPECT_TRUE(fs::exists(plain));   // not a stage file: kept
  EXPECT_TRUE(fs::exists(lookalike));
  EXPECT_EQ(global_counter("fleet.stale_tmp_removed"), 1u);
  MetricsRegistry::global().reset();
}

}  // namespace
}  // namespace bd
