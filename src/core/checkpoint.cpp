#include "core/checkpoint.hpp"

#include "util/check.hpp"
#include "util/faultinject.hpp"
#include "util/serialize.hpp"
#include "util/telemetry.hpp"
#include "util/timer.hpp"

namespace bd::core {

namespace telemetry = util::telemetry;

namespace {

/// The config block's deposit byte. Deposition is TSC-only; the byte keeps
/// the value TSC had when the format also carried NGP (0) and CIC (1), so
/// existing checkpoints still load.
constexpr std::uint8_t kTscDeposit = 2;

/// Serialize one solver's state behind a length-prefixed frame, so solvers
/// can evolve their payloads without perturbing the outer layout.
void write_solver(util::BinaryWriter& out, const RpSolver& solver) {
  out.write_string(solver.name());
  util::BinaryWriter sub;
  solver.save_state(sub);
  out.write_bytes(sub.payload());
}

void read_solver(util::BinaryReader& in, RpSolver& solver,
                 const char* which) {
  const std::string name = in.read_string();
  BD_CHECK_MSG(name == solver.name(),
               which << " solver mismatch: checkpoint has '" << name
                     << "', simulation has '" << solver.name() << "'");
  const std::vector<std::byte> bytes = in.read_bytes();
  util::BinaryReader sub(bytes);
  solver.load_state(sub);
  BD_CHECK_MSG(sub.done(), which << " solver '" << name
                                 << "' left unread checkpoint state");
}

void write_config(util::BinaryWriter& out, const SimConfig& config) {
  out.write_u64(config.particles);
  out.write_u32(config.nx);
  out.write_u32(config.ny);
  out.write_f64(config.half_extent_x);
  out.write_f64(config.half_extent_y);
  out.write_f64(config.sub_width);
  out.write_u32(config.num_subregions);
  out.write_f64(config.tolerance);
  out.write_f64(config.dt);
  out.write_bool(config.rigid);
  out.write_bool(config.compute_transverse);
  out.write_u64(config.seed);
  out.write_u8(kTscDeposit);
}

void verify_config(util::BinaryReader& in, const SimConfig& config) {
#define BD_CKPT_FIELD(reader, field, cast)                                 \
  {                                                                        \
    const auto stored = in.reader();                                       \
    BD_CHECK_MSG(stored == cast(config.field),                             \
                 "checkpoint config mismatch on " #field ": checkpoint "   \
                     << stored << ", simulation " << cast(config.field));  \
  }
  BD_CKPT_FIELD(read_u64, particles, std::uint64_t)
  BD_CKPT_FIELD(read_u32, nx, std::uint32_t)
  BD_CKPT_FIELD(read_u32, ny, std::uint32_t)
  BD_CKPT_FIELD(read_f64, half_extent_x, double)
  BD_CKPT_FIELD(read_f64, half_extent_y, double)
  BD_CKPT_FIELD(read_f64, sub_width, double)
  BD_CKPT_FIELD(read_u32, num_subregions, std::uint32_t)
  BD_CKPT_FIELD(read_f64, tolerance, double)
  BD_CKPT_FIELD(read_f64, dt, double)
  BD_CKPT_FIELD(read_bool, rigid, bool)
  BD_CKPT_FIELD(read_bool, compute_transverse, bool)
  BD_CKPT_FIELD(read_u64, seed, std::uint64_t)
#undef BD_CKPT_FIELD
  const auto deposit = in.read_u8();
  BD_CHECK_MSG(deposit == kTscDeposit,
               "checkpoint config mismatch on deposit scheme");
}

void write_rng(util::BinaryWriter& out, const util::Rng::State& state) {
  for (std::uint64_t word : state.s) out.write_u64(word);
  out.write_bool(state.has_cached_normal);
  out.write_f64(state.cached_normal);
}

util::Rng::State read_rng(util::BinaryReader& in) {
  util::Rng::State state;
  for (std::uint64_t& word : state.s) word = in.read_u64();
  state.has_cached_normal = in.read_bool();
  state.cached_normal = in.read_f64();
  return state;
}

}  // namespace

void save_checkpoint(const Simulation& sim, const std::string& path) {
  // Attribute checkpoint telemetry (and any kCheckpointTruncate fault)
  // to the owning simulation when its targets are scoped (see
  // Simulation::set_telemetry).
  const telemetry::TelemetryScope scope(sim.metrics_, sim.trace_);
  const util::faultinject::FaultScope fault_scope(sim.fault_harness_);
  telemetry::TraceSpan span("checkpoint.save", "core");
  util::WallTimer timer;

  util::BinaryWriter out;
  write_config(out, sim.config_);
  out.write_i64(sim.step_);
  write_rng(out, sim.rng_.state());

  out.write_f64(sim.particles_.weight());
  out.write_f64_span(sim.particles_.s());
  out.write_f64_span(sim.particles_.y());
  out.write_f64_span(sim.particles_.ps());
  out.write_f64_span(sim.particles_.py());

  sim.history_.save(out);
  sim.health_monitor_.save(out);
  sim.ladder_.save(out);

  write_solver(out, *sim.solver_);
  out.write_bool(sim.transverse_solver_ != nullptr);
  if (sim.transverse_solver_) write_solver(out, *sim.transverse_solver_);
  out.write_u64(sim.fallback_solvers_.size());
  for (const auto& fallback : sim.fallback_solvers_) {
    write_solver(out, *fallback);
  }

  util::write_checked_file(path, kCheckpointMagic, kCheckpointVersion,
                           out.payload());

  telemetry::counter_add("checkpoint.saves");
  telemetry::gauge_set("checkpoint.bytes", static_cast<double>(out.size()));
  telemetry::histogram_record("checkpoint.save_ms", timer.seconds() * 1e3);
}

void restore_checkpoint(Simulation& sim, const std::string& path) {
  const telemetry::TelemetryScope scope(sim.metrics_, sim.trace_);
  const util::faultinject::FaultScope fault_scope(sim.fault_harness_);
  telemetry::TraceSpan span("checkpoint.restore", "core");
  util::WallTimer timer;

  std::uint32_t version = 0;
  const std::vector<std::byte> payload =
      util::read_checked_file(path, kCheckpointMagic, version);
  BD_CHECK_MSG(version == kCheckpointVersion,
               "unsupported checkpoint version " << version << " (expected "
                                                 << kCheckpointVersion
                                                 << ") in " << path);
  util::BinaryReader in(payload);

  verify_config(in, sim.config_);
  sim.step_ = in.read_i64();
  sim.rng_.set_state(read_rng(in));

  sim.particles_.set_weight(in.read_f64());
  // A same-config simulation already holds arrays of the right length
  // (resize is then a no-op, preserving allocations for the in-place
  // bit-identical resume); a fresh one gets sized here.
  sim.particles_.resize(sim.config_.particles);
  in.read_f64_into(sim.particles_.s());
  in.read_f64_into(sim.particles_.y());
  in.read_f64_into(sim.particles_.ps());
  in.read_f64_into(sim.particles_.py());

  sim.history_.load(in);
  sim.health_monitor_.load(in);
  sim.ladder_.load(in);

  read_solver(in, *sim.solver_, "primary");
  const bool has_transverse = in.read_bool();
  BD_CHECK_MSG(has_transverse == (sim.transverse_solver_ != nullptr),
               "checkpoint transverse-solver presence mismatch");
  if (has_transverse) read_solver(in, *sim.transverse_solver_, "transverse");
  const std::uint64_t fallbacks = in.read_u64();
  BD_CHECK_MSG(fallbacks == sim.fallback_solvers_.size(),
               "checkpoint fallback-solver count mismatch: checkpoint has "
                   << fallbacks << ", simulation has "
                   << sim.fallback_solvers_.size());
  for (auto& fallback : sim.fallback_solvers_) {
    read_solver(in, *fallback, "fallback");
  }

  BD_CHECK_MSG(in.done(), "checkpoint has "
                              << in.remaining()
                              << " trailing bytes — corrupt or newer file");

  // Forces are recomputed by the next step(); size the scratch arrays.
  sim.particle_force_s_.assign(sim.particles_.size(), 0.0);
  sim.particle_force_y_.assign(sim.particles_.size(), 0.0);
  sim.initialized_ = true;

  telemetry::counter_add("checkpoint.restores");
  telemetry::histogram_record("checkpoint.restore_ms", timer.seconds() * 1e3);
}

}  // namespace bd::core
