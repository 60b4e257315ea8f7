#include "core/fleet.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <filesystem>
#include <map>
#include <mutex>
#include <thread>
#include <vector>

#include "core/checkpoint.hpp"
#include "util/check.hpp"
#include "util/faultinject.hpp"
#include "util/parallel.hpp"
#include "util/serialize.hpp"

namespace bd::core {

namespace telemetry = util::telemetry;

// ---------------------------------------------------------------------------
// Physics digest
// ---------------------------------------------------------------------------

namespace {

void digest_solve(util::BinaryWriter& out, const SolveResult& result) {
  out.write_f64_span(result.values.data());
  out.write_f64_span(result.errors.data());
  out.write_u64(result.fallback_items);
  out.write_u64(result.kernel_intervals);
  out.write_u64(result.sanitized_forecasts);
  out.write_f64(result.forecast_mae);
}

}  // namespace

std::uint32_t fleet_digest_step(const StepStats& stats, std::uint32_t prev) {
  util::BinaryWriter out;
  out.write_i64(stats.step);
  out.write_f64(stats.dropped_charge);
  digest_solve(out, stats.longitudinal);
  out.write_bool(stats.transverse.has_value());
  if (stats.transverse) digest_solve(out, *stats.transverse);
  return util::crc32(out.payload(), prev);
}

// ---------------------------------------------------------------------------
// Journal records (docs/ROBUSTNESS.md documents this format)
// ---------------------------------------------------------------------------

namespace {

constexpr std::uint32_t kJournalVersion = 1;

/// Payload layout: u8 kind, then kind-specific fields (BinaryWriter
/// encoding). The frame around each payload is util/serialize's
/// append_journal_record. New kinds bump kJournalVersion; a reader
/// rejects versions above its own (same policy as checkpoints).
/// tools/check_docs.sh parses the `kName = N,` lines below against the
/// record-kind table in docs/ROBUSTNESS.md.
enum class RecordKind : std::uint8_t {
  kHeader = 0,       ///< u32 version — always the first record
  kSubmit = 1,       ///< name, target u64, fault_spec, max_attempts, backoff
  kStart = 2,        ///< name — first quantum began
  kCheckpoint = 3,   ///< name, step u64, digest u32 — precedes spool write
  kComplete = 4,     ///< name, steps u64, digest u32
  kFailAttempt = 5,  ///< name, attempt u32, error — a retry will follow
  kFailTerminal = 6, ///< name, error — the job failed for good
  kQuarantine = 7,   ///< name, attempts u32, error — retry budget exhausted
  kCancel = 8,       ///< name
  kShutdown = 9,     ///< clean drain() — no payload beyond the kind
  kRetryState = 10,  ///< name, attempts u32, error — written by compaction
};

// Payload encoders, one per RecordKind. They are the only code that lays
// out record fields; live appends and compaction both go through them.

util::BinaryWriter begin_record(RecordKind kind) {
  util::BinaryWriter out;
  out.write_u8(static_cast<std::uint8_t>(kind));
  return out;
}

util::BinaryWriter begin_record(RecordKind kind, const std::string& name) {
  util::BinaryWriter out = begin_record(kind);
  out.write_string(name);
  return out;
}

util::BinaryWriter header_record() {
  util::BinaryWriter out = begin_record(RecordKind::kHeader);
  out.write_u32(kJournalVersion);
  return out;
}

util::BinaryWriter submit_record(const std::string& name,
                                 std::uint64_t target_steps,
                                 const std::string& fault_spec,
                                 const RetryPolicy& retry) {
  util::BinaryWriter out = begin_record(RecordKind::kSubmit, name);
  out.write_u64(target_steps);
  out.write_string(fault_spec);
  out.write_u32(retry.max_attempts);
  out.write_u32(retry.backoff_rounds);
  return out;
}

util::BinaryWriter start_record(const std::string& name) {
  return begin_record(RecordKind::kStart, name);
}

util::BinaryWriter checkpoint_record(const std::string& name,
                                     std::uint64_t step,
                                     std::uint32_t digest) {
  util::BinaryWriter out = begin_record(RecordKind::kCheckpoint, name);
  out.write_u64(step);
  out.write_u32(digest);
  return out;
}

util::BinaryWriter complete_record(const std::string& name,
                                   std::uint64_t steps, std::uint32_t digest) {
  util::BinaryWriter out = begin_record(RecordKind::kComplete, name);
  out.write_u64(steps);
  out.write_u32(digest);
  return out;
}

util::BinaryWriter fail_attempt_record(const std::string& name,
                                       std::uint32_t attempt,
                                       const std::string& error) {
  util::BinaryWriter out = begin_record(RecordKind::kFailAttempt, name);
  out.write_u32(attempt);
  out.write_string(error);
  return out;
}

util::BinaryWriter fail_terminal_record(const std::string& name,
                                        const std::string& error) {
  util::BinaryWriter out = begin_record(RecordKind::kFailTerminal, name);
  out.write_string(error);
  return out;
}

util::BinaryWriter quarantine_record(const std::string& name,
                                     std::uint32_t attempts,
                                     const std::string& error) {
  util::BinaryWriter out = begin_record(RecordKind::kQuarantine, name);
  out.write_u32(attempts);
  out.write_string(error);
  return out;
}

util::BinaryWriter cancel_record(const std::string& name) {
  return begin_record(RecordKind::kCancel, name);
}

util::BinaryWriter shutdown_record() {
  return begin_record(RecordKind::kShutdown);
}

util::BinaryWriter retry_state_record(const std::string& name,
                                      std::uint32_t attempts,
                                      const std::string& error) {
  util::BinaryWriter out = begin_record(RecordKind::kRetryState, name);
  out.write_u32(attempts);
  out.write_string(error);
  return out;
}

std::uint64_t steady_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

std::string spool_file(const std::string& spool_dir, const std::string& name) {
  return spool_dir + "/" + name + ".ckpt";
}

/// Postmortem record of a quarantined job. Its last good checkpoint stays
/// on disk for the postmortem.
FleetQuarantineEntry quarantine_entry(const std::string& name,
                                      std::uint32_t attempts,
                                      const std::string& error,
                                      const std::string& spool_path) {
  FleetQuarantineEntry q{name, attempts, error, ""};
  if (!spool_path.empty() && std::filesystem::exists(spool_path)) {
    q.spool_checkpoint = spool_path;
  }
  return q;
}

/// Everything the journal knows about one job name during replay.
struct JournalEntry {
  std::string name;
  std::uint64_t target_steps = 0;
  std::string fault_spec;
  RetryPolicy retry;
  std::map<std::uint64_t, std::uint32_t> checkpoints;  ///< step -> digest
  std::uint32_t attempts = 0;
  std::string error;
  /// kQueued = incomplete; otherwise the journaled terminal state.
  FleetJobState terminal = FleetJobState::kQueued;
  std::uint64_t final_steps = 0;   ///< from kComplete
  std::uint32_t final_digest = 0;  ///< from kComplete
};

}  // namespace

// ---------------------------------------------------------------------------
// Fleet internals
// ---------------------------------------------------------------------------

struct SimulationFleet::Job {
  JobId id = 0;
  FleetJobSpec spec;
  std::string spool_path;  ///< "" when the fleet has no spool directory

  FleetJobState state = FleetJobState::kQueued;  ///< guarded by Impl::mu
  std::string error;  ///< written by the owning lane before the terminal
                      ///< state is published under Impl::mu

  /// Progress fields are written lock-free by the one lane that owns the
  /// job while it is kRunning and read by poll() — hence atomic.
  std::atomic<std::size_t> steps_done{0};
  std::atomic<std::uint32_t> digest{0};
  std::atomic<bool> cancel_requested{false};
  std::atomic<std::uint32_t> attempts{0};

  /// Watchdog channel. The owning lane publishes `running_sim` with
  /// release (so the acquire load sees a fully constructed Simulation)
  /// while the quantum's steps run and clears it under Impl::mu when they
  /// end; Impl::release_sim clears it again before destroying the sim.
  /// The driver dereferences it only under Impl::mu, so the pointer it
  /// reads is never mid-destruction. Timestamps are steady-clock
  /// nanoseconds (0 = not in a step / quantum).
  std::atomic<Simulation*> running_sim{nullptr};
  std::atomic<std::uint64_t> quantum_start_ns{0};
  std::atomic<std::uint64_t> step_start_ns{0};
  std::atomic<bool> watchdog_flagged{false};
  /// Mirrors `sim != nullptr`. The owning lane builds the sim outside
  /// Impl::mu (factory/restore are slow I/O), so other lanes counting
  /// residents must read this flag, not the unique_ptr itself.
  std::atomic<bool> sim_live{false};

  /// Lane-owned supervision state (no concurrent access: the single lane
  /// that holds the job while kRunning, or the single-threaded
  /// constructor/drain paths, are the only writers).
  std::map<std::uint64_t, std::uint32_t> checkpoint_digests;
  std::uint64_t last_ckpt_step = 0;
  std::uint32_t last_ckpt_digest = 0;
  std::uint32_t exhausted_streak = 0;  ///< unhealthy steps on the last rung
  std::size_t quanta_run = 0;
  bool started_journaled = false;

  /// Job-private isolation: telemetry targets and fault harness live as
  /// long as the job, surviving eviction and retries — so a
  /// `class[@step][:count]` budget is consumed once per job, never
  /// re-armed by a resume/retry and never shared with a neighbour sim.
  std::unique_ptr<telemetry::MetricsRegistry> metrics =
      std::make_unique<telemetry::MetricsRegistry>();
  std::unique_ptr<telemetry::TraceSession> trace =
      std::make_unique<telemetry::TraceSession>();
  std::unique_ptr<util::faultinject::FaultHarness> harness;

  std::unique_ptr<Simulation> sim;  ///< resident iff non-null

  /// Take over a journaled incomplete job: its checkpoint digests and
  /// consumed attempts carry over, and its submit record is on disk.
  void adopt(const JournalEntry& entry) {
    checkpoint_digests = entry.checkpoints;
    if (!entry.checkpoints.empty()) {
      last_ckpt_step = entry.checkpoints.rbegin()->first;
      last_ckpt_digest = entry.checkpoints.rbegin()->second;
    }
    attempts.store(entry.attempts, std::memory_order_relaxed);
    started_journaled = true;
  }

  /// Snapshot for poll()/wait(); the caller holds Impl::mu.
  FleetJobStatus status() const {
    FleetJobStatus out;
    out.state = state;
    out.steps_done = steps_done.load(std::memory_order_relaxed);
    out.target_steps = spec.target_steps;
    out.digest = digest.load(std::memory_order_relaxed);
    out.attempts = attempts.load(std::memory_order_relaxed);
    if (fleet_job_terminal(state)) out.error = error;
    return out;
  }
};

struct SimulationFleet::Impl {
  mutable std::mutex mu;
  std::condition_variable work_cv;  ///< driver: new work or shutdown
  std::condition_variable done_cv;  ///< waiters: a quantum ended / terminal
  std::vector<std::unique_ptr<Job>> jobs;   // guarded by mu (vector itself)
  std::deque<JobId> ready;                  // guarded by mu
  /// Jobs sitting out a retry backoff: (release_round, id), guarded by mu.
  std::vector<std::pair<std::uint64_t, JobId>> backoff;
  std::uint64_t round_counter = 0;          // guarded by mu
  bool stop = false;                        // guarded by mu
  bool stopping = false;  ///< dtor in progress: cancellations are crash-like
  bool draining = false;  ///< drain() in progress/finished: freeze queue
  bool drained = false;   ///< drain() completed (driver joined)
  std::thread driver;

  /// Journal: appends are serialized by journal_mu alone; mu -> journal_mu
  /// is the only permitted nesting order.
  std::mutex journal_mu;
  std::string journal_path;  ///< "" = journaling disabled

  std::vector<FleetQuarantineEntry> quarantine;       // guarded by mu
  std::vector<FleetRecoveredJob> recovered_report;    // guarded by mu
  /// Incomplete journal entries awaiting adoption by a matching submit()
  /// (only populated when no recovery_factory was given).
  std::map<std::string, JournalEntry> pending_recovery;  // guarded by mu

  void journal_append(const util::BinaryWriter& record);
  std::size_t count_resident() const;
  void persist(Job& job);
  void release_sim(Job& job);
  void retire(Job& job, FleetJobState state);
};

void SimulationFleet::Impl::journal_append(const util::BinaryWriter& record) {
  if (journal_path.empty()) return;
  std::lock_guard<std::mutex> lk(journal_mu);
  util::append_journal_record(journal_path, record.payload());
}

/// Live Simulation objects; the caller holds mu.
std::size_t SimulationFleet::Impl::count_resident() const {
  std::size_t n = 0;
  for (const auto& job : jobs) {
    n += job->sim_live.load(std::memory_order_relaxed);
  }
  return n;
}

/// Checkpoint the job's resident sim into its spool file. The journal
/// record goes first: a crash between the two leaves the previous spool
/// file, whose step and digest the journal already lists. The job must
/// have a spool path and no other thread may use its sim. Throws on I/O
/// failure, leaving the job's checkpoint bookkeeping untouched.
void SimulationFleet::Impl::persist(Job& job) {
  const std::uint64_t step = job.steps_done.load(std::memory_order_relaxed);
  const std::uint32_t digest = job.digest.load(std::memory_order_relaxed);
  journal_append(checkpoint_record(job.spec.name, step, digest));
  save_checkpoint(*job.sim, job.spool_path);
  job.checkpoint_digests[step] = digest;
  job.last_ckpt_step = step;
  job.last_ckpt_digest = digest;
}

/// The one place a job's Simulation is destroyed; the caller holds mu.
void SimulationFleet::Impl::release_sim(Job& job) {
  job.running_sim.store(nullptr, std::memory_order_relaxed);
  job.sim_live.store(false, std::memory_order_relaxed);
  job.sim.reset();
}

/// The one way a job ends: every terminal fate of a quantum, cancel() of
/// a job no lane holds, and the destructor. The caller holds mu, so the
/// terminal journal record, the released sim and the published state
/// land together for every observer. A cancellation by the destructor is
/// the crash-like teardown: it journals nothing and keeps the spool
/// file, so a fleet restarted on the same spool dir recovers the job.
void SimulationFleet::Impl::retire(Job& job, FleetJobState state) {
  BD_CHECK_MSG(fleet_job_terminal(state),
               "retire: fleet job '" << job.spec.name
                                     << "' needs a terminal state");
  const std::string& name = job.spec.name;
  bool remove_spool = false;
  if (state == FleetJobState::kDone) {
    journal_append(
        complete_record(name, job.steps_done.load(std::memory_order_relaxed),
                        job.digest.load(std::memory_order_relaxed)));
    job.error.clear();  // a retried-then-successful job reports no error
    telemetry::counter_add("fleet.completed");
    remove_spool = true;
  } else if (state == FleetJobState::kCancelled) {
    if (!stopping) journal_append(cancel_record(name));
    telemetry::counter_add("fleet.cancelled");
    remove_spool = !stopping;
  } else if (state == FleetJobState::kFailed) {
    journal_append(fail_terminal_record(name, job.error));
    telemetry::counter_add("fleet.failed");
  } else {  // kQuarantined
    const std::uint32_t attempts =
        job.attempts.load(std::memory_order_relaxed);
    journal_append(quarantine_record(name, attempts, job.error));
    telemetry::counter_add("fleet.quarantined");
    telemetry::counter_add("fleet.failed");
    quarantine.push_back(
        quarantine_entry(name, attempts, job.error, job.spool_path));
  }
  release_sim(job);
  job.state = state;
  if (remove_spool && !job.spool_path.empty()) {
    std::remove(job.spool_path.c_str());
  }
}

// ---------------------------------------------------------------------------
// Construction: stale staging-file sweep, journal replay, compaction
// ---------------------------------------------------------------------------

SimulationFleet::SimulationFleet(FleetOptions options)
    : options_(std::move(options)), impl_(std::make_unique<Impl>()) {
  if (options_.quantum_steps == 0) options_.quantum_steps = 1;
  BD_CHECK_MSG(options_.max_resident == 0 || !options_.spool_dir.empty(),
               "SimulationFleet: max_resident > 0 requires a spool_dir");
  if (!options_.spool_dir.empty()) {
    std::filesystem::create_directories(options_.spool_dir);
    impl_->journal_path = options_.spool_dir + "/fleet.journal";
    // A process that crashed mid-write left its staging files behind.
    if (const std::uint64_t removed =
            util::remove_dead_staging_files(options_.spool_dir);
        removed > 0) {
      telemetry::counter_add("fleet.stale_tmp_removed", removed);
    }
    recover();
  }
  impl_->driver = std::thread([this] { driver_loop(); });
  {
    std::lock_guard<std::mutex> lk(impl_->mu);
    if (!impl_->ready.empty()) impl_->work_cv.notify_one();
  }
}

void SimulationFleet::recover() {
  const util::JournalReadResult replay =
      util::read_journal_records(impl_->journal_path);
  if (replay.records.empty() && !std::filesystem::exists(impl_->journal_path)) {
    // Fresh spool: start the journal with its header record.
    impl_->journal_append(header_record());
    return;
  }

  BD_TRACE_SPAN("fleet.recover", "fleet");
  telemetry::counter_add("fleet.journal_replays");

  // Replay: fold every record into per-name entries. Duplicate terminal
  // records and re-submits of a finished name are idempotent (last wins);
  // an unknown record kind means the journal came from a newer build.
  std::map<std::string, JournalEntry> entries;
  std::vector<std::string> order;
  for (const auto& payload : replay.records) {
    util::BinaryReader in(payload);
    const auto kind = static_cast<RecordKind>(in.read_u8());
    if (kind == RecordKind::kHeader) {
      const std::uint32_t version = in.read_u32();
      BD_CHECK_MSG(version <= kJournalVersion,
                   "fleet journal " << impl_->journal_path << " has version "
                                    << version << ", this build reads <= "
                                    << kJournalVersion);
      continue;
    }
    if (kind == RecordKind::kShutdown) continue;
    const std::string name = in.read_string();
    auto it = entries.find(name);
    if (it == entries.end()) {
      it = entries.emplace(name, JournalEntry{}).first;
      it->second.name = name;
      order.push_back(name);
    }
    JournalEntry& entry = it->second;
    switch (kind) {
      case RecordKind::kSubmit:
        entry.target_steps = in.read_u64();
        entry.fault_spec = in.read_string();
        entry.retry.max_attempts = in.read_u32();
        entry.retry.backoff_rounds = in.read_u32();
        entry.terminal = FleetJobState::kQueued;  // re-submit reopens it
        break;
      case RecordKind::kStart:
        break;
      case RecordKind::kCheckpoint: {
        const std::uint64_t step = in.read_u64();
        entry.checkpoints[step] = in.read_u32();
        break;
      }
      case RecordKind::kComplete:
        entry.terminal = FleetJobState::kDone;
        entry.final_steps = in.read_u64();
        entry.final_digest = in.read_u32();
        break;
      case RecordKind::kFailAttempt:
        entry.attempts = in.read_u32();
        entry.error = in.read_string();
        break;
      case RecordKind::kFailTerminal:
        entry.terminal = FleetJobState::kFailed;
        entry.error = in.read_string();
        break;
      case RecordKind::kQuarantine:
        entry.terminal = FleetJobState::kQuarantined;
        entry.attempts = in.read_u32();
        entry.error = in.read_string();
        break;
      case RecordKind::kCancel:
        entry.terminal = FleetJobState::kCancelled;
        break;
      case RecordKind::kRetryState:
        entry.attempts = in.read_u32();
        entry.error = in.read_string();
        break;
      default:
        BD_CHECK_MSG(false, "fleet journal " << impl_->journal_path
                                             << ": unknown record kind "
                                             << static_cast<int>(kind));
    }
  }

  // Re-enqueue / report. The constructor is single-threaded, so the
  // members are touched without Impl::mu here.
  for (const std::string& name : order) {
    JournalEntry& entry = entries[name];
    FleetRecoveredJob report;
    report.name = name;
    report.state = entry.terminal;
    report.target_steps = static_cast<std::size_t>(entry.target_steps);
    if (!entry.checkpoints.empty()) {
      report.checkpoint_step =
          static_cast<std::size_t>(entry.checkpoints.rbegin()->first);
      report.digest = entry.checkpoints.rbegin()->second;
    }
    if (entry.terminal == FleetJobState::kDone) {
      report.checkpoint_step = static_cast<std::size_t>(entry.final_steps);
      report.digest = entry.final_digest;
    }
    report.attempts = entry.attempts;
    report.error = entry.error;

    if (entry.terminal == FleetJobState::kQueued) {  // incomplete
      if (options_.recovery_factory) {
        auto job = std::make_unique<Job>();
        job->spec.name = name;
        job->spec.target_steps = static_cast<std::size_t>(entry.target_steps);
        job->spec.fault_spec = entry.fault_spec;
        job->spec.retry = entry.retry;
        job->spec.factory = [factory = options_.recovery_factory, name] {
          return factory(name);
        };
        job->spool_path = spool_file(options_.spool_dir, name);
        job->adopt(entry);
        job->error = entry.error;
        job->id = impl_->jobs.size();
        impl_->ready.push_back(job->id);
        impl_->jobs.push_back(std::move(job));
        telemetry::counter_add("fleet.recovered");
        report.resubmitted = true;
      } else {
        impl_->pending_recovery[name] = entry;
      }
    } else if (entry.terminal == FleetJobState::kQuarantined) {
      impl_->quarantine.push_back(
          quarantine_entry(name, entry.attempts, entry.error,
                           spool_file(options_.spool_dir, name)));
    }
    impl_->recovered_report.push_back(std::move(report));
  }

  // Compact: rewrite the journal keeping only what the next recovery
  // needs — incomplete jobs' submit/retry-state/checkpoint records.
  // Finished entries live on in recovered() but leave the disk file, so
  // the journal stays proportional to the open work, not fleet lifetime.
  std::vector<util::BinaryWriter> kept;
  kept.push_back(header_record());
  for (const std::string& name : order) {
    const JournalEntry& entry = entries[name];
    if (entry.terminal != FleetJobState::kQueued) continue;
    kept.push_back(submit_record(name, entry.target_steps, entry.fault_spec,
                                 entry.retry));
    if (entry.attempts > 0) {
      kept.push_back(retry_state_record(name, entry.attempts, entry.error));
    }
    for (const auto& [step, digest] : entry.checkpoints) {
      kept.push_back(checkpoint_record(name, step, digest));
    }
  }
  util::rewrite_journal(impl_->journal_path, kept);
}

// ---------------------------------------------------------------------------
// Teardown
// ---------------------------------------------------------------------------

SimulationFleet::~SimulationFleet() {
  // Plain destruction is the *crash-like* teardown: non-terminal jobs are
  // cancelled in-memory but NOT journalled as cancelled, and spool files
  // stay — so the journal still lists them as incomplete and a new fleet
  // on the same spool dir recovers them. Call drain() first for a clean,
  // fully-checkpointed shutdown record.
  {
    std::lock_guard<std::mutex> lk(impl_->mu);
    impl_->stop = true;
    impl_->stopping = true;
    impl_->ready.clear();
    impl_->backoff.clear();
    for (auto& job : impl_->jobs) {
      job->cancel_requested.store(true, std::memory_order_relaxed);
      // Running quanta observe cancel_requested and retire their job
      // before the driver's round — and therefore this join — completes.
      if (!fleet_job_terminal(job->state) &&
          job->state != FleetJobState::kRunning) {
        impl_->retire(*job, FleetJobState::kCancelled);
      }
    }
  }
  impl_->work_cv.notify_all();
  impl_->done_cv.notify_all();
  if (impl_->driver.joinable()) impl_->driver.join();
}

// ---------------------------------------------------------------------------
// Public API
// ---------------------------------------------------------------------------

SimulationFleet::JobId SimulationFleet::submit(FleetJobSpec spec) {
  BD_CHECK_MSG(!spec.name.empty(), "FleetJobSpec.name must not be empty");
  BD_CHECK_MSG(spec.name.find('/') == std::string::npos,
               "FleetJobSpec.name must not contain '/': " << spec.name);
  BD_CHECK_MSG(spec.factory != nullptr,
               "FleetJobSpec.factory must not be null");
  BD_CHECK_MSG(spec.target_steps > 0,
               "FleetJobSpec.target_steps must be > 0");
  BD_CHECK_MSG(spec.retry.max_attempts >= 1,
               "RetryPolicy.max_attempts must be >= 1");

  auto job = std::make_unique<Job>();
  if (!options_.spool_dir.empty()) {
    job->spool_path = spool_file(options_.spool_dir, spec.name);
  }
  job->spec = std::move(spec);

  JobId id = 0;
  {
    std::lock_guard<std::mutex> lk(impl_->mu);
    BD_CHECK_MSG(!impl_->stop, "submit() on a stopped SimulationFleet");
    BD_CHECK_MSG(!impl_->draining, "submit() on a drained SimulationFleet");
    for (const auto& existing : impl_->jobs) {
      BD_CHECK_MSG(existing->spec.name != job->spec.name,
                   "duplicate fleet job name: " << job->spec.name);
    }
    // A journaled incomplete job with this name (recovered without a
    // recovery_factory) is adopted instead of journaled afresh.
    if (auto it = impl_->pending_recovery.find(job->spec.name);
        it != impl_->pending_recovery.end()) {
      job->adopt(it->second);
      impl_->pending_recovery.erase(it);
    } else {
      const FleetJobSpec& s = job->spec;
      impl_->journal_append(
          submit_record(s.name, s.target_steps, s.fault_spec, s.retry));
    }
    id = impl_->jobs.size();
    job->id = id;
    impl_->jobs.push_back(std::move(job));
    impl_->ready.push_back(id);
  }
  telemetry::counter_add("fleet.submitted");
  impl_->work_cv.notify_one();
  return id;
}

FleetJobStatus SimulationFleet::poll(JobId id) const {
  std::lock_guard<std::mutex> lk(impl_->mu);
  BD_CHECK_MSG(id < impl_->jobs.size(), "unknown fleet job id " << id);
  return impl_->jobs[id]->status();
}

bool SimulationFleet::cancel(JobId id) {
  {
    std::lock_guard<std::mutex> lk(impl_->mu);
    BD_CHECK_MSG(id < impl_->jobs.size(), "unknown fleet job id " << id);
    Job& job = *impl_->jobs[id];
    if (fleet_job_terminal(job.state)) return false;
    job.cancel_requested.store(true, std::memory_order_relaxed);
    // A running job is retired by its lane at the next step boundary.
    if (job.state == FleetJobState::kRunning) return true;
    // Queued/evicted/backoff: retire it now.
    std::erase(impl_->ready, id);
    std::erase_if(impl_->backoff,
                  [id](const auto& entry) { return entry.second == id; });
    impl_->retire(job, FleetJobState::kCancelled);
  }
  impl_->done_cv.notify_all();
  return true;
}

FleetJobStatus SimulationFleet::wait(JobId id) {
  std::unique_lock<std::mutex> lk(impl_->mu);
  BD_CHECK_MSG(id < impl_->jobs.size(), "unknown fleet job id " << id);
  const Job& job = *impl_->jobs[id];
  impl_->done_cv.wait(lk, [&] { return fleet_job_terminal(job.state); });
  return job.status();
}

void SimulationFleet::wait_all() {
  std::unique_lock<std::mutex> lk(impl_->mu);
  impl_->done_cv.wait(lk, [&] {
    for (const auto& job : impl_->jobs) {
      if (!fleet_job_terminal(job->state)) return false;
    }
    return true;
  });
}

void SimulationFleet::drain() {
  std::unique_lock<std::mutex> lk(impl_->mu);
  if (impl_->drained) return;
  BD_TRACE_SPAN("fleet.drain", "fleet");
  impl_->draining = true;
  // Freeze the queue: nothing new gets scheduled; in-flight quanta see
  // `draining` in their fate step, checkpoint themselves and stop.
  impl_->ready.clear();
  impl_->backoff.clear();
  impl_->done_cv.wait(lk, [&] {
    for (const auto& job : impl_->jobs) {
      if (job->state == FleetJobState::kRunning) return false;
    }
    return true;
  });

  // Checkpoint the remaining resident, non-terminal jobs (queued jobs
  // keep their sims resident when max_resident allows). The queue is
  // frozen and no lane owns them, so this thread may do their I/O.
  std::vector<Job*> residents;
  for (auto& job : impl_->jobs) {
    if (job->sim != nullptr && !fleet_job_terminal(job->state)) {
      residents.push_back(job.get());
    }
  }
  lk.unlock();
  for (Job* job : residents) {
    if (!job->spool_path.empty()) impl_->persist(*job);
  }
  impl_->journal_append(shutdown_record());
  lk.lock();
  for (Job* job : residents) {
    impl_->release_sim(*job);
    if (!job->spool_path.empty()) job->state = FleetJobState::kEvicted;
  }
  impl_->stop = true;
  impl_->drained = true;
  lk.unlock();
  impl_->work_cv.notify_all();
  if (impl_->driver.joinable()) impl_->driver.join();
}

std::vector<FleetQuarantineEntry> SimulationFleet::quarantined() const {
  std::lock_guard<std::mutex> lk(impl_->mu);
  return impl_->quarantine;
}

std::vector<FleetRecoveredJob> SimulationFleet::recovered() const {
  std::lock_guard<std::mutex> lk(impl_->mu);
  return impl_->recovered_report;
}

util::telemetry::MetricsSnapshot SimulationFleet::job_metrics(
    JobId id) const {
  telemetry::MetricsRegistry* registry = nullptr;
  {
    std::lock_guard<std::mutex> lk(impl_->mu);
    BD_CHECK_MSG(id < impl_->jobs.size(), "unknown fleet job id " << id);
    registry = impl_->jobs[id]->metrics.get();
  }
  // The registry outlives the job (owned by the Job, which the fleet keeps
  // until destruction), and snapshot() is internally synchronized.
  return registry->snapshot();
}

std::size_t SimulationFleet::job_count() const {
  std::lock_guard<std::mutex> lk(impl_->mu);
  return impl_->jobs.size();
}

// ---------------------------------------------------------------------------
// Scheduling
// ---------------------------------------------------------------------------

void SimulationFleet::driver_loop() {
  telemetry::TraceSession::global().set_current_thread_name("fleet-driver");
  std::unique_lock<std::mutex> lk(impl_->mu);
  for (;;) {
    impl_->work_cv.wait(lk, [&] {
      return impl_->stop || !impl_->ready.empty() || !impl_->backoff.empty();
    });
    if (impl_->stop) return;
    ++impl_->round_counter;
    // Release jobs whose backoff expired; when only backoff jobs remain,
    // fast-forward the round counter to the earliest release — rounds are
    // a virtual clock, so an idle fleet never waits wall time for them.
    auto release_due = [&] {
      std::stable_sort(impl_->backoff.begin(), impl_->backoff.end());
      auto it = impl_->backoff.begin();
      while (it != impl_->backoff.end() &&
             it->first <= impl_->round_counter) {
        impl_->ready.push_back(it->second);
        it = impl_->backoff.erase(it);
      }
    };
    release_due();
    if (impl_->ready.empty()) {
      if (impl_->backoff.empty()) continue;
      impl_->round_counter = impl_->backoff.front().first;
      release_due();
    }
    // One round: enough lanes to drain the current backlog, capped at the
    // pool width. Lanes loop popping jobs, so a long backlog still drains
    // in a single round; jobs submitted mid-round start the next one.
    const std::size_t lanes = std::min<std::size_t>(
        impl_->ready.size(), util::ThreadPool::global().num_threads());
    lk.unlock();
    run_round(lanes);
    lk.lock();
  }
}

void SimulationFleet::run_round(std::size_t lanes) {
  telemetry::counter_add("fleet.rounds");
  BD_TRACE_SPAN("fleet.round", "fleet");
  const bool watchdog =
      options_.step_deadline_ms > 0.0 || options_.quantum_deadline_ms > 0.0;
  if (!watchdog) {
    util::parallel_for_chunked(
        0, lanes, 1, [this](std::size_t, std::size_t) { run_lane(); });
    return;
  }

  // Watchdog mode: the round runs on a helper thread while this (driver)
  // thread polls deadlines. A tripped job is flagged and its sim gets a
  // cooperative stop request — the owning lane observes it at the next
  // step boundary and routes the job through the retry path.
  std::atomic<bool> round_done{false};
  std::thread round([this, lanes, &round_done] {
    util::parallel_for_chunked(
        0, lanes, 1, [this](std::size_t, std::size_t) { run_lane(); });
    round_done.store(true, std::memory_order_release);
  });
  const auto step_deadline =
      static_cast<std::uint64_t>(options_.step_deadline_ms * 1e6);
  const auto quantum_deadline =
      static_cast<std::uint64_t>(options_.quantum_deadline_ms * 1e6);
  while (!round_done.load(std::memory_order_acquire)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    const std::uint64_t now = steady_ns();
    std::lock_guard<std::mutex> lk(impl_->mu);
    for (const auto& jp : impl_->jobs) {
      Job& job = *jp;
      if (job.state != FleetJobState::kRunning) continue;
      Simulation* sim = job.running_sim.load(std::memory_order_acquire);
      if (sim == nullptr) continue;
      bool trip = false;
      if (step_deadline > 0) {
        const std::uint64_t t0 =
            job.step_start_ns.load(std::memory_order_relaxed);
        trip |= (t0 != 0 && now > t0 && now - t0 > step_deadline);
      }
      if (quantum_deadline > 0) {
        const std::uint64_t t0 =
            job.quantum_start_ns.load(std::memory_order_relaxed);
        trip |= (t0 != 0 && now > t0 && now - t0 > quantum_deadline);
      }
      if (trip && !job.watchdog_flagged.exchange(true,
                                                 std::memory_order_relaxed)) {
        sim->request_stop();
      }
    }
  }
  round.join();
}

void SimulationFleet::run_lane() {
  for (;;) {
    Job* job = nullptr;
    {
      std::lock_guard<std::mutex> lk(impl_->mu);
      if (impl_->ready.empty()) return;
      job = impl_->jobs[impl_->ready.front()].get();
      impl_->ready.pop_front();
      job->state = FleetJobState::kRunning;
    }
    run_quantum(*job);
  }
}

void SimulationFleet::run_quantum(Job& job) {
  // Fleet-level telemetry goes to the ambient registry/session (normally
  // the process-global ones); the sim's own step()/checkpoint telemetry
  // is scoped to the job's private instances via set_telemetry below.
  telemetry::counter_add("fleet.quanta");
  BD_TRACE_SPAN("fleet.quantum", "fleet");
  const bool watchdog =
      options_.step_deadline_ms > 0.0 || options_.quantum_deadline_ms > 0.0;

  bool failed = false;
  bool setup_failed = false;
  bool ladder_exhausted = false;
  if (!job.cancel_requested.load(std::memory_order_relaxed)) {
    try {
      if (!job.sim) {
        setup_failed = true;  // cleared once the sim is ready to step
        job.sim = job.spec.factory();
        BD_CHECK_MSG(job.sim != nullptr,
                     "fleet job '" << job.spec.name
                                   << "': factory returned null");
        job.sim_live.store(true, std::memory_order_relaxed);
        job.sim->set_telemetry(job.metrics.get(), job.trace.get());
        if (!job.harness) {
          // Every job gets a private harness so one job's fault budget is
          // never consumed by a neighbour. The spec's plan wins; an empty
          // spec inherits the process BD_FAULT plan (per-job budget, the
          // job's own seed); the literal "none" opts the job out.
          std::string spec = job.spec.fault_spec;
          if (spec.empty()) {
            if (const char* env = std::getenv("BD_FAULT"); env != nullptr) {
              spec = env;
            }
          }
          if (spec == "none") spec.clear();
          job.harness = std::make_unique<util::faultinject::FaultHarness>();
          job.harness->install(spec, job.sim->config().seed);
        }
        job.sim->set_fault_harness(job.harness.get());
        if (!job.spool_path.empty() &&
            std::filesystem::exists(job.spool_path)) {
          restore_checkpoint(*job.sim, job.spool_path);
          const auto step =
              static_cast<std::size_t>(job.sim->current_step());
          job.steps_done.store(step, std::memory_order_relaxed);
          // The journal's digest for this checkpoint, when it has one:
          // after a retry the in-memory digest has run past the
          // checkpoint and must rewind with the restored state.
          if (const auto it = job.checkpoint_digests.find(step);
              it != job.checkpoint_digests.end()) {
            job.digest.store(it->second, std::memory_order_relaxed);
          }
          telemetry::counter_add("fleet.resumes");
        } else if (!job.sim->initialized()) {
          job.sim->initialize();
        }
        job.exhausted_streak = 0;
        setup_failed = false;
        if (!job.started_journaled) {
          job.started_journaled = true;
          impl_->journal_append(start_record(job.spec.name));
        }
      }
      ++job.quanta_run;
      job.watchdog_flagged.store(false, std::memory_order_relaxed);
      job.sim->clear_stop();
      if (watchdog) {
        job.quantum_start_ns.store(steady_ns(), std::memory_order_relaxed);
      }
      // Release so the watchdog's acquire load sees a fully constructed
      // (or fully restored) Simulation before it calls request_stop().
      job.running_sim.store(job.sim.get(), std::memory_order_release);

      std::size_t done = job.steps_done.load(std::memory_order_relaxed);
      std::uint32_t digest = job.digest.load(std::memory_order_relaxed);
      std::size_t ran = 0;
      while (ran < options_.quantum_steps &&
             done < job.spec.target_steps &&
             !job.cancel_requested.load(std::memory_order_relaxed) &&
             !job.sim->stop_requested()) {
        if (watchdog) {
          job.step_start_ns.store(steady_ns(), std::memory_order_relaxed);
        }
        const StepStats stats = job.sim->step();
        digest = fleet_digest_step(stats, digest);
        ++done;
        ++ran;
        job.steps_done.store(done, std::memory_order_relaxed);
        job.digest.store(digest, std::memory_order_relaxed);
        if (stats.health && !stats.health->healthy() &&
            job.sim->num_tiers() > 1 &&
            stats.health->tier + 1 >= job.sim->num_tiers()) {
          // Unhealthy on the last rung: the ladder has nowhere left to
          // go. A sustained streak is a job-level failure — the retry
          // path restarts from the last good checkpoint.
          if (++job.exhausted_streak >=
              job.sim->config().health.demote_after) {
            ladder_exhausted = true;
            job.error = "health ladder exhausted: " +
                        std::to_string(job.exhausted_streak) +
                        " unhealthy steps on the last tier (step " +
                        std::to_string(stats.step) + ")";
            break;
          }
        } else {
          job.exhausted_streak = 0;
        }
        if (job.spec.on_step) job.spec.on_step(stats);
      }
      job.step_start_ns.store(0, std::memory_order_relaxed);
      job.quantum_start_ns.store(0, std::memory_order_relaxed);
    } catch (const std::exception& e) {
      job.error = e.what();
      failed = true;
    } catch (...) {
      job.error = "unknown exception";
      failed = true;
    }
  }

  // ------------------------------------------------------------------
  // Fate, decided once under Impl::mu. Checkpoints and non-terminal
  // journal records are written outside the lock; retire() writes a
  // terminal record under it, together with the state change. Until the
  // new state is published under Impl::mu the job stays kRunning and no
  // other lane can claim it; once a non-terminal job is requeued another
  // lane may claim it at once, so nothing touches the job after that.
  // ------------------------------------------------------------------
  enum class Fate {
    kFail,      // setup failure: never retried
    kRetry,     // step failure, ladder exhaustion or watchdog trip
    kCancel,
    kComplete,
    kPark,      // draining: checkpoint and stop
    kEvict,     // over max_resident: checkpoint, destroy, requeue
    kRequeue,
  };
  Fate fate = Fate::kRequeue;
  bool watchdog_trip = false;
  {
    std::lock_guard<std::mutex> lk(impl_->mu);
    // The steps are over: the watchdog has nothing left to stop.
    job.running_sim.store(nullptr, std::memory_order_relaxed);
    if (failed || ladder_exhausted) {
      fate = setup_failed ? Fate::kFail : Fate::kRetry;
    } else if (job.cancel_requested.load(std::memory_order_relaxed)) {
      fate = Fate::kCancel;
    } else if (job.steps_done.load(std::memory_order_relaxed) >=
               job.spec.target_steps) {
      fate = Fate::kComplete;
    } else if (job.watchdog_flagged.load(std::memory_order_relaxed)) {
      fate = Fate::kRetry;
      watchdog_trip = true;
    } else if (impl_->draining) {
      fate = Fate::kPark;
    } else if (options_.max_resident > 0 &&
               impl_->count_resident() > options_.max_resident) {
      fate = Fate::kEvict;
    }
  }

  switch (fate) {
    case Fate::kFail: {
      std::lock_guard<std::mutex> lk(impl_->mu);
      impl_->retire(job, FleetJobState::kFailed);
      break;
    }

    case Fate::kCancel: {
      std::lock_guard<std::mutex> lk(impl_->mu);
      impl_->retire(job, FleetJobState::kCancelled);
      break;
    }

    case Fate::kComplete: {
      std::lock_guard<std::mutex> lk(impl_->mu);
      impl_->retire(job, FleetJobState::kDone);
      break;
    }

    case Fate::kRetry: {
      if (watchdog_trip) {
        telemetry::counter_add("fleet.watchdog_trips");
        job.error = "watchdog: step/quantum deadline exceeded at step " +
                    std::to_string(
                        job.steps_done.load(std::memory_order_relaxed));
        // The rung that overran is suspect — demote before checkpointing
        // so the retried job resumes one tier down.
        job.sim->demote_tier();
        if (!job.spool_path.empty()) {
          try {
            impl_->persist(job);
          } catch (const std::exception& e) {
            job.error = std::string("watchdog checkpoint failed: ") + e.what();
          }
        }
      }
      // One attempt gone; out of budget => quarantine.
      const std::uint32_t attempts =
          job.attempts.fetch_add(1, std::memory_order_relaxed) + 1;
      if (attempts >= job.spec.retry.max_attempts) {
        std::lock_guard<std::mutex> lk(impl_->mu);
        impl_->retire(job, FleetJobState::kQuarantined);
        break;
      }
      impl_->journal_append(
          fail_attempt_record(job.spec.name, attempts, job.error));
      telemetry::counter_add("fleet.retries");
      std::lock_guard<std::mutex> lk(impl_->mu);
      // Restart from the last good spool checkpoint, or from scratch:
      // the resident sim's state is suspect (it threw mid-step, ran out
      // of ladder, or overran a deadline and got demoted+checkpointed —
      // in every case the next attempt rebuilds from durable state).
      impl_->release_sim(job);
      job.exhausted_streak = 0;
      job.watchdog_flagged.store(false, std::memory_order_relaxed);
      const bool have_ckpt = !job.spool_path.empty() &&
                             std::filesystem::exists(job.spool_path);
      job.steps_done.store(
          have_ckpt ? static_cast<std::size_t>(job.last_ckpt_step) : 0,
          std::memory_order_relaxed);
      job.digest.store(have_ckpt ? job.last_ckpt_digest : 0,
                       std::memory_order_relaxed);
      job.state = FleetJobState::kQueued;
      impl_->backoff.emplace_back(
          impl_->round_counter + job.spec.retry.backoff_rounds, job.id);
      break;
    }

    case Fate::kPark:
    case Fate::kEvict: {
      if (job.spool_path.empty()) {
        // Nothing durable to write. An evicting fleet cannot get here
        // (max_resident requires a spool dir); a draining one parks the
        // job resident in memory for drain() to release.
        std::lock_guard<std::mutex> lk(impl_->mu);
        job.state = FleetJobState::kQueued;
        break;
      }
      try {
        BD_TRACE_SPAN("fleet.evict", "fleet");
        impl_->persist(job);
        telemetry::counter_add("fleet.evictions");
      } catch (const std::exception& e) {
        job.error = e.what();
        std::lock_guard<std::mutex> lk(impl_->mu);
        impl_->retire(job, FleetJobState::kFailed);
        break;
      }
      std::lock_guard<std::mutex> lk(impl_->mu);
      impl_->release_sim(job);
      job.state = FleetJobState::kEvicted;
      if (fate == Fate::kEvict) impl_->ready.push_back(job.id);
      break;
    }

    case Fate::kRequeue: {
      if (options_.checkpoint_every_quanta > 0 && !job.spool_path.empty() &&
          job.quanta_run % options_.checkpoint_every_quanta == 0) {
        try {
          impl_->persist(job);
        } catch (const std::exception& e) {
          // A failed periodic checkpoint is not fatal to the job — the
          // previous checkpoint (or none) still bounds the replay.
          job.error = e.what();
        }
      }
      std::lock_guard<std::mutex> lk(impl_->mu);
      job.state = FleetJobState::kQueued;
      impl_->ready.push_back(job.id);
      break;
    }
  }

  std::size_t resident = 0;
  {
    std::lock_guard<std::mutex> lk(impl_->mu);
    resident = impl_->count_resident();
  }
  telemetry::gauge_set("fleet.resident", static_cast<double>(resident));
  // Every quantum end is an observable event: terminal states unblock
  // wait()/wait_all(), and drain() waits for running quanta to settle.
  impl_->work_cv.notify_one();
  impl_->done_cv.notify_all();
}

}  // namespace bd::core
