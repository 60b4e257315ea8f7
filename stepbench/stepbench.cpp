/// \file stepbench.cpp
/// Whole-step benchmark program. Runs one workload end to end through the
/// public Simulation / SimulationFleet API and prints one JSON record per
/// line on stdout; run.py turns the records into metrics and checks the
/// per-step digests against the expected ones.
///
///   {"type":"header",...}   pool size, SIMD level, build and workload
///   {"type":"step",...}     one step: outside wall time, phase times, solver
///                           counters, KernelMetrics, force/kernel digests
///   {"type":"episode",...}  one episode: set-up time, measured window, the
///                           process's peak RSS so far and the telemetry
///                           counters the episode produced
///
/// An episode is one complete workload instance: construct, initialize and
/// run the bootstrap step 1 (the set-up), then the measured steps. Episodes
/// repeat until --seconds have elapsed. With --span-json one more episode
/// runs with span capture on and its chrome trace is written there.
///
/// Nothing here adds spans or timers to the library: times come from
/// steady_clock around the public calls, from StepStats/SolveResult fields,
/// and from the spans and counters src/ already emits.

#include <sys/resource.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/fleet.hpp"
#include "core/predictive.hpp"
#include "core/simulation.hpp"
#include "simt/device.hpp"
#include "util/check.hpp"
#include "util/cli.hpp"
#include "util/parallel.hpp"
#include "util/simd.hpp"
#include "util/telemetry.hpp"

namespace {

using namespace bd;
namespace telemetry = util::telemetry;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

/// One simulation of a workload. The key names its expected digests.
struct Scenario {
  std::string kind;  ///< "rigid" or "evolving"
  std::uint32_t grid = 64;
  std::size_t particles = 100000;
  std::size_t steps = 0;  ///< total steps, bootstrap step 1 included
  std::uint64_t seed = 0;

  std::string key() const {
    return kind + "-" + std::to_string(grid) + "/" + std::to_string(seed);
  }
};

struct Workload {
  std::string name;
  std::vector<Scenario> sims;  ///< one for solo workloads, the jobs for fleet
  bool fleet = false;
  core::FleetOptions options;  ///< fleet only (spool_dir set per episode)
};

/// The benchmark configuration of bench/bench_common.hpp's bench_config,
/// copied so that a change to that helper cannot change the workload.
/// rigid = stationary validation bunch; evolving = the Table I/II bunch
/// that drifts under a stronger wake with dt = 0.5.
core::SimConfig scenario_config(const Scenario& s) {
  core::SimConfig config;
  config.nx = s.grid;
  config.ny = s.grid;
  config.particles = s.particles;
  config.tolerance = 1e-6;
  config.rigid = s.kind == "rigid";
  if (!config.rigid) {
    config.longitudinal.amplitude = 0.4;
    config.transverse.amplitude = 0.4;
    config.dt = 0.5;
  }
  config.seed = s.seed;
  return config;
}

/// Steps per episode are fixed (not time-bounded) so every episode runs the
/// same step sequence and medians compare like with like across hosts.
Workload make_workload(const std::string& name, std::uint64_t seed) {
  Workload w;
  w.name = name;
  if (name == "rigid-64") {
    w.sims.push_back({"rigid", 64, 100000, 5, seed});
  } else if (name == "evolving-64") {
    w.sims.push_back({"evolving", 64, 100000, 4, seed});
  } else if (name == "fleet-32x4") {
    // Two rigid and two evolving 32² jobs; the rigid ones run more steps
    // so the four jobs take similar time. max_resident < jobs forces an
    // eviction (checkpoint) and a resume (restore) nearly every quantum.
    w.fleet = true;
    w.sims.push_back({"rigid", 32, 25000, 12, seed});
    w.sims.push_back({"rigid", 32, 25000, 12, seed + 1});
    w.sims.push_back({"evolving", 32, 25000, 4, seed + 2});
    w.sims.push_back({"evolving", 32, 25000, 4, seed + 3});
    w.options.max_resident = 2;
    w.options.quantum_steps = 3;
  } else {
    BD_CHECK_MSG(false, "unknown workload: " << name);
  }
  return w;
}

// ---------------------------------------------------------------------------
// Forwarding solver: outside timer around solve()
// ---------------------------------------------------------------------------

/// Forwards every RpSolver call to the Predictive-RP solver it owns and
/// times solve() from outside. When `spans` is set, the solver's spans are
/// routed there for the duration of solve(): a fleet job's own session is
/// private to the fleet, so this is how a traced fleet run sees them.
class TimedSolver final : public core::RpSolver {
 public:
  TimedSolver(std::unique_ptr<core::RpSolver> inner,
              telemetry::TraceSession* spans)
      : inner_(std::move(inner)), spans_(spans) {}

  core::SolveResult solve(const core::RpProblem& problem) override {
    const telemetry::TelemetryScope scope(nullptr, spans_);
    const Clock::time_point t0 = Clock::now();
    core::SolveResult result = inner_->solve(problem);
    last_solve_ms_ = seconds_since(t0) * 1e3;
    return result;
  }
  const char* name() const override { return inner_->name(); }
  void reset() override { inner_->reset(); }
  void save_state(util::BinaryWriter& out) const override {
    inner_->save_state(out);
  }
  void load_state(util::BinaryReader& in) override { inner_->load_state(in); }

  double last_solve_ms() const { return last_solve_ms_; }

 private:
  std::unique_ptr<core::RpSolver> inner_;
  telemetry::TraceSession* spans_;
  double last_solve_ms_ = 0.0;
};

std::unique_ptr<core::Simulation> make_sim(const Scenario& s,
                                           telemetry::TraceSession* spans,
                                           TimedSolver** solver_out) {
  auto solver = std::make_unique<TimedSolver>(
      std::make_unique<core::PredictiveSolver>(simt::tesla_k40()), spans);
  *solver_out = solver.get();
  return std::make_unique<core::Simulation>(scenario_config(s),
                                            std::move(solver));
}

// ---------------------------------------------------------------------------
// Digests and JSON records
// ---------------------------------------------------------------------------

/// FNV-1a 64 over raw bytes (bit patterns for doubles).
class Fnv1a {
 public:
  void bytes(const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      hash_ = (hash_ ^ p[i]) * 1099511628211ull;
    }
  }
  template <typename T>
  void pod(const T& value) {
    bytes(&value, sizeof value);
  }
  void grid(const beam::Grid2D& g) {
    const auto data = g.data();
    pod(data.size());
    bytes(data.data(), data.size_bytes());
  }
  std::string hex() const {
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(hash_));
    return buf;
  }

 private:
  std::uint64_t hash_ = 1469598103934665603ull;
};

/// Digest of the step's force grids (the physics output).
std::string force_digest(const core::StepStats& stats,
                         const core::Simulation& sim) {
  Fnv1a h;
  h.pod(stats.step);
  h.grid(sim.force_s());
  h.grid(sim.force_y());
  return h.hex();
}

/// Digest of the step's modeled-K40 counters (the SIMT model output).
std::string kernel_digest(const core::SolveResult& r) {
  const simt::KernelMetrics& m = r.metrics;
  Fnv1a h;
  for (const std::uint64_t v :
       {m.flops, m.warp_instructions, m.active_lane_slots, m.lane_slots,
        m.branch_events, m.divergent_branches, m.load_instructions,
        m.bytes_requested, m.bytes_transferred, m.l1_transactions, m.l1.hits,
        m.l1.misses, m.l2.hits, m.l2.misses, m.dram_bytes,
        r.kernel_intervals, r.fallback_items}) {
    h.pod(v);
  }
  h.pod(m.modeled_seconds);
  h.pod(r.gpu_seconds);
  return h.hex();
}

/// Minimal JSON object builder. Keys are literals or metric names, which
/// need no escaping; string values are escaped.
class Json {
 public:
  Json& num(const char* key, double v) {
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.9g", v);
    return raw(key, buf);
  }
  Json& integer(const char* key, std::uint64_t v) {
    return raw(key, std::to_string(v));
  }
  Json& str(const char* key, const std::string& v) {
    return raw(key, quote(v));
  }
  Json& raw(const char* key, const std::string& json) {
    if (!body_.empty()) body_ += ',';
    body_ += '"';
    body_ += key;
    body_ += "\":";
    body_ += json;
    return *this;
  }
  std::string text() const { return "{" + body_ + "}"; }
  void print() const { std::printf("%s\n", text().c_str()); }

  static std::string quote(const std::string& v) {
    std::string out = "\"";
    for (const char c : v) {
      if (c == '"' || c == '\\') {
        out += '\\';
        out += c;
      } else if (static_cast<unsigned char>(c) < 0x20) {
        out += ' ';
      } else {
        out += c;
      }
    }
    return out + "\"";
  }

 private:
  std::string body_;
};

/// Counters and histogram (count, sum) summed over registries; gauges as
/// (sum, registries that set them).
struct MetricsTotals {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, std::pair<std::uint64_t, double>> histograms;
  std::map<std::string, std::pair<double, int>> gauges;

  void add(const telemetry::MetricsSnapshot& s) {
    for (const auto& [name, v] : s.counters) counters[name] += v;
    for (const auto& [name, h] : s.histograms) {
      histograms[name].first += h.count;
      histograms[name].second += h.sum;
    }
    for (const auto& [name, v] : s.gauges) {
      gauges[name].first += v;
      gauges[name].second += 1;
    }
  }

  /// Removes what an earlier snapshot of the same registry had counted.
  void subtract(const telemetry::MetricsSnapshot& s) {
    for (const auto& [name, v] : s.counters) counters[name] -= v;
    for (const auto& [name, h] : s.histograms) {
      histograms[name].first -= h.count;
      histograms[name].second -= h.sum;
    }
  }

  std::string json() const {
    Json c, h, g;
    for (const auto& [name, v] : counters) c.integer(name.c_str(), v);
    for (const auto& [name, v] : histograms) {
      char buf[64];
      std::snprintf(buf, sizeof buf, "[%llu,%.9g]",
                    static_cast<unsigned long long>(v.first), v.second);
      h.raw(name.c_str(), buf);
    }
    for (const auto& [name, v] : gauges) {
      char buf[64];
      std::snprintf(buf, sizeof buf, "[%.9g,%d]", v.first, v.second);
      g.raw(name.c_str(), buf);
    }
    return Json()
        .raw("counters", c.text())
        .raw("histograms", h.text())
        .raw("gauges", g.text())
        .text();
  }
};

/// One step as seen from outside step(). wall_ms < 0 = not measurable
/// (a fleet job's first step of a quantum, which includes its resume).
struct StepRecord {
  int job = 0;
  core::StepStats stats;
  double wall_ms = -1.0;
  double end_s = 0.0;  ///< seconds since the episode began
  double solve_ms = 0.0;
  std::string force;
  std::string kernel;
};

void print_step(int episode, bool traced, bool measured,
                const StepRecord& r) {
  const core::SolveResult& s = r.stats.longitudinal;
  const simt::KernelMetrics& m = s.metrics;
  Json()
      .str("type", "step")
      .integer("episode", static_cast<std::uint64_t>(episode))
      .integer("traced", traced)
      .integer("job", static_cast<std::uint64_t>(r.job))
      .integer("step", static_cast<std::uint64_t>(r.stats.step))
      .integer("measured", measured)
      .num("wall_ms", r.wall_ms)
      .num("end_s", r.end_s)
      .num("solve_ms", r.solve_ms)
      .num("deposit_ms", r.stats.phase_ms.deposit_ms)
      .num("phase_solve_ms", r.stats.phase_ms.solve_ms)
      .num("gather_ms", r.stats.phase_ms.gather_ms)
      .num("push_ms", r.stats.phase_ms.push_ms)
      .num("gpu_ms", s.gpu_seconds * 1e3)
      .num("forecast_mae", s.forecast_mae)
      .integer("kernel_intervals", s.kernel_intervals)
      .integer("fallback_items", s.fallback_items)
      .integer("warp_instructions", m.warp_instructions)
      .integer("active_lane_slots", m.active_lane_slots)
      .integer("lane_slots", m.lane_slots)
      .integer("l1_transactions", m.l1_transactions)
      .integer("l1_hits", m.l1.hits)
      .integer("l1_misses", m.l1.misses)
      .str("force", r.force)
      .str("kernel", r.kernel)
      .print();
}

// ---------------------------------------------------------------------------
// Episodes
// ---------------------------------------------------------------------------

struct EpisodeResult {
  double setup_s = 0.0;
  double measured_wall_s = 0.0;  ///< window the measured steps ran in
  std::size_t measured_steps = 0;
  double wall_s = 0.0;
  std::vector<StepRecord> steps;
  std::vector<bool> measured;
  std::vector<std::string> failures;
  MetricsTotals metrics;
};

EpisodeResult run_solo_episode(const Scenario& s, bool traced,
                               const std::string& span_json) {
  EpisodeResult out;
  telemetry::MetricsRegistry registry;
  telemetry::TraceSession spans;
  if (traced) spans.start();

  telemetry::MetricsSnapshot setup_metrics;
  const Clock::time_point t0 = Clock::now();
  TimedSolver* solver = nullptr;
  std::unique_ptr<core::Simulation> sim = make_sim(s, nullptr, &solver);
  sim->set_telemetry(&registry, &spans);
  sim->initialize();
  for (std::size_t k = 0; k < s.steps; ++k) {
    const Clock::time_point ts = Clock::now();
    StepRecord r;
    r.stats = sim->step();
    r.wall_ms = seconds_since(ts) * 1e3;
    r.end_s = seconds_since(t0);
    r.solve_ms = solver->last_solve_ms();
    r.force = force_digest(r.stats, *sim);
    r.kernel = kernel_digest(r.stats.longitudinal);
    const bool measured = k > 0;  // step 1 is the bootstrap (set-up)
    if (measured) {
      out.measured_wall_s += r.wall_ms * 1e-3;
      ++out.measured_steps;
    } else {
      out.setup_s = seconds_since(t0);
      setup_metrics = registry.snapshot();
    }
    out.steps.push_back(std::move(r));
    out.measured.push_back(measured);
  }
  out.wall_s = seconds_since(t0);
  sim.reset();
  // Counters of the measured steps only; gauges as the episode left them.
  out.metrics.add(registry.snapshot());
  out.metrics.subtract(setup_metrics);
  if (traced) {
    spans.stop();
    BD_CHECK_MSG(spans.write_chrome_json(span_json),
                 "cannot write " << span_json);
  }
  return out;
}

/// Per-job state the factory and on_step share. Written only by the lane
/// that holds the job; read by the main thread after wait_all().
struct JobSlot {
  core::Simulation* sim = nullptr;
  TimedSolver* solver = nullptr;
  double last_end_s = -1.0;
  std::vector<StepRecord> steps;
};

EpisodeResult run_fleet_episode(const Workload& w, const std::string& spool,
                                bool traced, const std::string& span_json) {
  EpisodeResult out;
  std::filesystem::remove_all(spool);
  telemetry::TraceSession& global_spans = telemetry::TraceSession::global();
  telemetry::MetricsRegistry::global().reset();
  if (traced) {
    global_spans.clear();
    global_spans.start();
  }

  std::vector<JobSlot> slots(w.sims.size());
  std::vector<core::SimulationFleet::JobId> ids;
  const Clock::time_point t0 = Clock::now();
  double end_s = 0.0;
  {
    core::FleetOptions options = w.options;
    options.spool_dir = spool;
    core::SimulationFleet fleet(options);
    for (std::size_t j = 0; j < w.sims.size(); ++j) {
      const Scenario& s = w.sims[j];
      JobSlot* slot = &slots[j];
      const std::size_t quantum = options.quantum_steps;
      core::FleetJobSpec spec;
      spec.name = "job" + std::to_string(j);
      spec.target_steps = s.steps;
      spec.fault_spec = "none";
      spec.factory = [s, slot, &global_spans] {
        std::unique_ptr<core::Simulation> sim =
            make_sim(s, &global_spans, &slot->solver);
        slot->sim = sim.get();
        return sim;
      };
      spec.on_step = [slot, j, quantum, t0](const core::StepStats& stats) {
        StepRecord r;
        r.job = static_cast<int>(j);
        r.stats = stats;
        r.end_s = seconds_since(t0);
        // Steps 2.. of a quantum run back to back on one lane; the first
        // step of a quantum also pays the job's resume, so it is not timed.
        if ((stats.step - 1) % static_cast<std::int64_t>(quantum) != 0) {
          r.wall_ms = (r.end_s - slot->last_end_s) * 1e3;
        }
        slot->last_end_s = r.end_s;
        r.solve_ms = slot->solver->last_solve_ms();
        r.force = force_digest(stats, *slot->sim);
        r.kernel = kernel_digest(stats.longitudinal);
        slot->steps.push_back(std::move(r));
      };
      ids.push_back(fleet.submit(std::move(spec)));
    }
    fleet.wait_all();
    end_s = seconds_since(t0);
    for (std::size_t j = 0; j < ids.size(); ++j) {
      const core::FleetJobStatus status = fleet.poll(ids[j]);
      if (status.state != core::FleetJobState::kDone) {
        out.failures.push_back("job" + std::to_string(j) + " ended in state " +
                               std::to_string(static_cast<int>(status.state)) +
                               ": " + status.error);
      }
      out.metrics.add(fleet.job_metrics(ids[j]));
    }
  }
  out.wall_s = seconds_since(t0);
  out.metrics.add(telemetry::MetricsRegistry::global().snapshot());
  if (traced) {
    global_spans.stop();
    BD_CHECK_MSG(global_spans.write_chrome_json(span_json),
                 "cannot write " << span_json);
    global_spans.clear();
  }
  std::filesystem::remove_all(spool);

  // Set-up ends when every job has finished its first step.
  for (const JobSlot& slot : slots) {
    for (const StepRecord& r : slot.steps) {
      if (r.stats.step == 1) out.setup_s = std::max(out.setup_s, r.end_s);
    }
  }
  for (JobSlot& slot : slots) {
    for (StepRecord& r : slot.steps) {
      const bool measured = r.stats.step > 1 && r.end_s > out.setup_s;
      out.measured_steps += measured;
      out.measured.push_back(measured);
      out.steps.push_back(std::move(r));
    }
  }
  out.measured_wall_s = end_s - out.setup_s;
  return out;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void print_episode(int episode, bool traced, const EpisodeResult& r) {
  for (std::size_t i = 0; i < r.steps.size(); ++i) {
    print_step(episode, traced, r.measured[i], r.steps[i]);
  }
  std::string failures = "[";
  for (const std::string& f : r.failures) {
    if (failures.size() > 1) failures += ',';
    failures += Json::quote(f);
  }
  failures += "]";
  Json()
      .str("type", "episode")
      .integer("episode", static_cast<std::uint64_t>(episode))
      .integer("traced", traced)
      .num("setup_s", r.setup_s)
      .num("wall_s", r.wall_s)
      .num("measured_wall_s", r.measured_wall_s)
      .num("peak_rss_mb", peak_rss_mb())
      .integer("measured_steps", r.measured_steps)
      .raw("failures", failures)
      .raw("metrics", r.metrics.json())
      .print();
  std::fflush(stdout);
}

/// Runs every scenario of the workload alone, once, and prints its
/// per-step digests: the reference fleet jobs are checked against, and
/// the generator of the expected digests.
void print_solo_digests(const Workload& w) {
  for (const Scenario& s : w.sims) {
    TimedSolver* solver = nullptr;
    std::unique_ptr<core::Simulation> sim = make_sim(s, nullptr, &solver);
    sim->initialize();
    std::string steps = "[";
    for (std::size_t k = 0; k < s.steps; ++k) {
      const core::StepStats stats = sim->step();
      if (steps.size() > 1) steps += ',';
      steps += "[\"" + force_digest(stats, *sim) + "\",\"" +
               kernel_digest(stats.longitudinal) + "\"]";
    }
    steps += "]";
    Json()
        .str("type", "digests")
        .str("scenario", s.key())
        .raw("steps", steps)
        .print();
  }
}

}  // namespace

int main(int argc, char** argv) {
  util::ArgParser args("stepbench", "Whole-step benchmark program");
  args.add_string("workload", "rigid-64",
                  "rigid-64 | evolving-64 | fleet-32x4");
  args.add_int("seed", 20170801, "bunch seed (fleet job j uses seed + j)");
  args.add_double("seconds", 10.0, "measure episodes for this long");
  args.add_string("span-json", "",
                  "after the timed episodes, run one traced episode and "
                  "write its chrome trace here");
  args.add_string("work-dir", ".", "directory for the fleet spool");
  args.add_flag("digests", "print each scenario's solo digests and exit");
  if (!args.parse(argc, argv)) return 0;

  try {
    const Workload w = make_workload(
        args.get_string("workload"),
        static_cast<std::uint64_t>(args.get_int("seed")));
    if (args.get_flag("digests")) {
      print_solo_digests(w);
      return 0;
    }

    std::string sims = "[";
    for (const Scenario& s : w.sims) {
      if (sims.size() > 1) sims += ',';
      sims += Json()
                  .str("key", s.key())
                  .integer("grid", s.grid)
                  .integer("particles", s.particles)
                  .integer("steps", s.steps)
                  .text();
    }
    sims += "]";
    Json()
        .str("type", "header")
        .str("workload", w.name)
        .str("build_type", STEPBENCH_BUILD_TYPE)
        .str("compiler", __VERSION__)
        .integer("hardware_threads", std::thread::hardware_concurrency())
        .integer("pool_threads", util::ThreadPool::global().num_threads())
        .str("simd_dispatch_level",
             simd::level_name(simd::active_level()))
        .integer("max_resident", w.options.max_resident)
        .integer("quantum_steps", w.fleet ? w.options.quantum_steps : 0)
        .raw("sims", sims)
        .print();

    const std::string spool =
        (std::filesystem::path(args.get_string("work-dir")) / "spool")
            .string();
    const double budget = args.get_double("seconds");
    const Clock::time_point start = Clock::now();
    int episode = 0;
    double last = 0.0;
    do {
      const EpisodeResult r =
          w.fleet ? run_fleet_episode(w, spool, false, "")
                  : run_solo_episode(w.sims.front(), false, "");
      print_episode(episode++, false, r);
      last = r.wall_s;
    } while (seconds_since(start) + last <= budget);

    const std::string span_json = args.get_string("span-json");
    if (!span_json.empty()) {
      const EpisodeResult r =
          w.fleet ? run_fleet_episode(w, spool, true, span_json)
                  : run_solo_episode(w.sims.front(), true, span_json);
      print_episode(episode++, true, r);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "stepbench: %s\n", e.what());
    return 1;
  }
  return 0;
}
