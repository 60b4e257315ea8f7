#pragma once
/// \file fleet.hpp
/// SimulationFleet: a job queue that runs N independent Simulations —
/// parameter sweeps, ensemble runs, per-user configs — over the existing
/// fork-join thread pool (the aggregation-of-independent-work shape
/// PyHEADTAIL-style parallelization argues for).
///
/// ## Execution model
///
/// A single driver thread turns the queue into *rounds*: each round is one
/// `parallel_for_chunked(0, lanes, 1, ...)` job on the global ThreadPool
/// whose chunk bodies loop popping ready jobs and running each for a
/// *quantum* of steps. Because nested parallel loops inside pool work run
/// serially (util/parallel), a simulation's whole quantum executes on one
/// thread — and PR 2's determinism contract (bit-identical results at any
/// thread count) makes that execution bit-identical to running the sim
/// alone, at any `BD_NUM_THREADS`. Note the fleet occupies the pool's
/// single job slot while a round is in flight; submitting pool work from
/// other threads during a round waits for the round to finish.
///
/// ## Isolation
///
/// Every job gets its own MetricsRegistry + TraceSession (installed via
/// Simulation::set_telemetry, scoped per step by TelemetryScope) and —
/// when the spec carries a fault plan — its own FaultHarness seeded from
/// the sim's own seed. RNG and SolverScratch are per-Simulation already.
/// Shared *read-only* resources (wake tables, analytic references) are
/// safe to share across factories. Fleet-level telemetry (`fleet.*`)
/// goes to the ambient (normally process-global) registry.
///
/// ## Eviction + resume
///
/// With `max_resident` set, a job whose quantum ends while more than
/// `max_resident` simulations are live is checkpointed into `spool_dir`
/// and destroyed; it is rebuilt from its factory + checkpoint when next
/// scheduled, so thousands of queued scenarios need only a bounded
/// working set (and the spool survives process restarts — a resubmitted
/// job resumes from its spool file if one exists). Restores are
/// bit-identical in physics (values/errors/fallback work/digest) and in
/// SIMT KernelMetrics (see tests/test_checkpoint.cpp).
///
/// ## Supervision (docs/ROBUSTNESS.md)
///
/// With a `spool_dir`, the fleet is a *supervisor*, not just a scheduler:
///
///  * **Journal** — every submit/start/checkpoint/complete/fail/cancel is
///    appended to `<spool_dir>/fleet.journal` (CRC-framed WAL,
///    util/serialize) before the matching state change lands, so a process
///    crash loses at most the in-flight quantum. A new fleet on the same
///    spool dir replays the journal at construction, tolerates the torn
///    tail record a crash leaves, and — when `recovery_factory` is set —
///    re-enqueues every incomplete job from its last good checkpoint.
///  * **Retry + quarantine** — a step exception or an exhausted health
///    ladder costs one attempt of the job's RetryPolicy: the supervisor
///    restores the last spool checkpoint (re-initializes when none) and
///    re-enqueues after `backoff_rounds` *scheduler rounds* (never wall
///    time — healthy-job fleet≡solo bitwise determinism is preserved).
///    Jobs out of attempts move to the quarantine list, keeping their
///    final checkpoint and failure report for postmortem.
///  * **Watchdog** — with step/quantum deadlines set, the driver polls
///    in-flight quanta; an overrunning job is stopped cooperatively at
///    the next step boundary (Simulation stop token), demoted one ladder
///    rung, checkpointed and retried. `BD_FAULT="slow_step@N:ms"`
///    exercises the trip deterministically.
///  * **Drain** — drain() checkpoints every resident job, journals a
///    clean shutdown, and freezes the queue; a fleet rebuilt on the same
///    spool dir resumes every job bit-identically in physics digest.

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/simulation.hpp"
#include "util/telemetry.hpp"

namespace bd::core {

/// Per-job retry budget. Attempt 1 is the initial run; each step
/// exception, health-ladder exhaustion or watchdog trip consumes one
/// attempt and re-enqueues the job `backoff_rounds` scheduler rounds
/// later. Setup failures (null/throwing factory, failed restore or
/// initialize) are never retried — they would fail identically again.
struct RetryPolicy {
  std::uint32_t max_attempts = 3;   ///< total attempts (1 = never retry)
  std::uint32_t backoff_rounds = 1; ///< rounds to sit out between attempts
};

/// Fleet-wide knobs.
struct FleetOptions {
  /// Soft cap on concurrently live Simulation objects (0 = unlimited).
  /// Transient overshoot up to the number of pool lanes is possible.
  std::size_t max_resident = 0;
  /// Directory for eviction checkpoints and the job journal. Required
  /// when max_resident > 0; journaling is active iff non-empty.
  std::string spool_dir;
  /// Steps a job runs per scheduling quantum (min 1).
  std::size_t quantum_steps = 4;
  /// Checkpoint every resident job each N-th of its quanta (0 = only on
  /// eviction/drain/retry). Bounds replay loss after a crash to N quanta.
  std::size_t checkpoint_every_quanta = 0;
  /// Watchdog deadlines in wall-clock milliseconds (0 = disabled): a
  /// single step, or a whole quantum, exceeding its deadline trips the
  /// watchdog — the job is stopped at the next step boundary, demoted
  /// one ladder rung, checkpointed, and the trip costs one retry attempt.
  double step_deadline_ms = 0.0;
  double quantum_deadline_ms = 0.0;
  /// When set, recover() re-enqueues every incomplete journaled job at
  /// construction, building its Simulation with this factory (the spec's
  /// own factory is not serializable). Without it, incomplete jobs are
  /// only reported via recovered(), and a submit() with a matching name
  /// adopts the journaled digests/attempts.
  std::function<std::unique_ptr<Simulation>(const std::string& name)>
      recovery_factory;
};

/// One queued scenario.
struct FleetJobSpec {
  /// Unique job name; also the spool checkpoint filename (`<name>.ckpt`).
  std::string name;
  /// Builds the job's Simulation, constructed but NOT initialized — the
  /// fleet calls initialize() or restores the spool checkpoint itself.
  /// Must be callable from a pool thread.
  std::function<std::unique_ptr<Simulation>()> factory;
  /// Total steps to run.
  std::size_t target_steps = 0;
  /// BD_FAULT-grammar plan installed into a job-private harness seeded
  /// from the sim's own config seed. "" inherits the process `BD_FAULT`
  /// environment spec (still into a private harness, so budgets stay
  /// per-job); the literal "none" makes the job explicitly fault-free.
  std::string fault_spec;
  /// Optional per-step observer, called on the running thread after each
  /// step with that step's stats (tests use it to capture KernelMetrics).
  std::function<void(const StepStats&)> on_step;
  /// Retry budget for step failures / ladder exhaustion / watchdog trips.
  RetryPolicy retry;
};

/// Job lifecycle. kQueued covers both never-started and requeued-resident
/// jobs (including those sitting out a retry backoff); kEvicted is a
/// queued job whose state lives in the spool. kQuarantined is kFailed
/// after an exhausted retry budget, with the final checkpoint retained.
enum class FleetJobState : std::uint8_t {
  kQueued = 0,
  kRunning = 1,
  kEvicted = 2,
  kDone = 3,
  kCancelled = 4,
  kFailed = 5,
  kQuarantined = 6,
};

/// True for states a job can never leave.
constexpr bool fleet_job_terminal(FleetJobState s) {
  return s == FleetJobState::kDone || s == FleetJobState::kCancelled ||
         s == FleetJobState::kFailed || s == FleetJobState::kQuarantined;
}

/// Snapshot of one job's progress.
struct FleetJobStatus {
  FleetJobState state = FleetJobState::kQueued;
  std::size_t steps_done = 0;
  std::size_t target_steps = 0;
  /// Chained physics digest over all completed steps (see
  /// fleet_digest_step) — survives eviction/resume bit-identically.
  std::uint32_t digest = 0;
  std::string error;  ///< what() of the failing step (kFailed/kQuarantined)
  /// Attempts consumed so far (0 until the first failure/trip).
  std::uint32_t attempts = 0;
};

/// Postmortem record of a job that exhausted its retry budget.
struct FleetQuarantineEntry {
  std::string name;
  std::uint32_t attempts = 0;
  std::string error;             ///< what() of the final failure
  std::string spool_checkpoint;  ///< last good spool checkpoint ("" if none)
};

/// One journaled job as seen by recover() at construction.
struct FleetRecoveredJob {
  std::string name;
  /// Journaled terminal state, or kQueued for an incomplete job.
  FleetJobState state = FleetJobState::kQueued;
  std::size_t target_steps = 0;
  /// Step/digest of the last journaled checkpoint (0/0 when none).
  std::size_t checkpoint_step = 0;
  std::uint32_t digest = 0;
  std::uint32_t attempts = 0;
  std::string error;
  /// True when recovery_factory re-enqueued the job at construction.
  bool resubmitted = false;
};

/// Fold one step's deterministic physics outputs into a running CRC32
/// digest: step index, dropped charge, potential values/errors (bit
/// patterns), fallback/kernel work counts, sanitizer tallies and forecast
/// MAE — everything PR 2 + checkpointing guarantee bit-identical across
/// thread counts and across evict/resume. Timing fields and the SIMT
/// KernelMetrics are excluded.
std::uint32_t fleet_digest_step(const StepStats& stats, std::uint32_t prev);

/// The job-queue engine. All public methods are thread-safe.
class SimulationFleet {
 public:
  using JobId = std::size_t;

  explicit SimulationFleet(FleetOptions options = {});

  /// Cancels every non-terminal job (evicted jobs keep their spool file),
  /// finishes the in-flight quantum, and joins the driver thread.
  ~SimulationFleet();

  SimulationFleet(const SimulationFleet&) = delete;
  SimulationFleet& operator=(const SimulationFleet&) = delete;

  /// Enqueue a scenario; returns its id (ids are dense, in submit order).
  /// Throws bd::CheckError on an invalid spec (empty name/factory, zero
  /// target_steps, duplicate name).
  JobId submit(FleetJobSpec spec);

  /// Current status of a job (non-blocking).
  FleetJobStatus poll(JobId id) const;

  /// Request cancellation. Queued jobs cancel immediately; a running job
  /// stops at its next step boundary. Returns false if the job was
  /// already terminal.
  bool cancel(JobId id);

  /// Block until the job reaches a terminal state; returns it.
  FleetJobStatus wait(JobId id);

  /// Block until every submitted job is terminal.
  void wait_all();

  /// Graceful shutdown: stop scheduling, wait for in-flight quanta,
  /// checkpoint every resident non-terminal job into the spool, journal a
  /// clean-shutdown record, and join the driver. The fleet is frozen
  /// afterward (submit() throws; non-terminal jobs stay queued/evicted) —
  /// a new fleet on the same spool dir resumes them bit-identically in
  /// physics digest. Idempotent.
  void drain();

  /// Postmortem list of jobs that exhausted their retry budget.
  std::vector<FleetQuarantineEntry> quarantined() const;

  /// What recover() found in the journal at construction (empty when the
  /// fleet has no spool dir or the journal did not exist).
  std::vector<FleetRecoveredJob> recovered() const;

  /// Deterministic merged snapshot of the job's private metrics registry
  /// (sim.* counters/histograms of that job only).
  util::telemetry::MetricsSnapshot job_metrics(JobId id) const;

  std::size_t job_count() const;

 private:
  struct Job;
  struct Impl;

  void recover();
  void driver_loop();
  void run_round(std::size_t lanes);
  void run_lane();
  void run_quantum(Job& job);

  FleetOptions options_;
  std::unique_ptr<Impl> impl_;
};

}  // namespace bd::core
