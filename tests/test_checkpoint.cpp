/// Checkpoint/restart: serialization primitives, the checked-file
/// container (CRC, truncation, atomic rename), full Simulation
/// save/restore including solver learned state, and seeded byte mutation
/// of the checkpoint and fleet-journal readers.

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <thread>

#include "baselines/heuristic.hpp"
#include "baselines/two_phase.hpp"
#include "core/checkpoint.hpp"
#include "core/fleet.hpp"
#include "core/predictive.hpp"
#include "core/simulation.hpp"
#include "quad/partition_set.hpp"
#include "simt/device.hpp"
#include "test_helpers.hpp"
#include "util/check.hpp"
#include "util/faultinject.hpp"
#include "util/rng.hpp"
#include "util/serialize.hpp"

namespace bd {
namespace {

using bd::testing::run_steps;

/// Temp file private to the running test: ctest runs the tests of one
/// binary as concurrent processes, so fixtures must not share a file.
std::string test_temp_path(const std::string& stem, const std::string& ext) {
  return ::testing::TempDir() + stem + "_" +
         ::testing::UnitTest::GetInstance()->current_test_info()->name() +
         ext;
}

TEST(Serialize, WriterReaderRoundTrip) {
  util::BinaryWriter out;
  out.write_u8(7);
  out.write_u32(0xDEADBEEFu);
  out.write_u64(1ull << 60);
  out.write_i64(-42);
  out.write_f64(3.14159);
  out.write_bool(true);
  out.write_string("predictive-rp");
  const std::vector<double> values{1.0, -2.5, 1e300, 0.0};
  out.write_f64_span(values);

  util::BinaryReader in(out.payload());
  EXPECT_EQ(in.read_u8(), 7);
  EXPECT_EQ(in.read_u32(), 0xDEADBEEFu);
  EXPECT_EQ(in.read_u64(), 1ull << 60);
  EXPECT_EQ(in.read_i64(), -42);
  EXPECT_DOUBLE_EQ(in.read_f64(), 3.14159);
  EXPECT_TRUE(in.read_bool());
  EXPECT_EQ(in.read_string(), "predictive-rp");
  EXPECT_EQ(in.read_f64_vector(), values);
  EXPECT_TRUE(in.done());
}

TEST(Serialize, ReaderOverrunThrows) {
  util::BinaryWriter out;
  out.write_u32(1);
  util::BinaryReader in(out.payload());
  in.read_u32();
  EXPECT_THROW(in.read_u32(), bd::CheckError);
}

TEST(Serialize, ReadIntoRequiresExactLength) {
  util::BinaryWriter out;
  out.write_f64_span(std::vector<double>{1.0, 2.0, 3.0});
  util::BinaryReader in(out.payload());
  std::vector<double> wrong(4);
  EXPECT_THROW(in.read_f64_into(wrong), bd::CheckError);
}

TEST(Serialize, PartitionSetEntryCountBeyondPayloadThrows) {
  // A solver checkpoint's partition set is read count-first. A count far
  // beyond the bytes left must be a CheckError before anything is sized
  // from it; sizing 2^40 entries would escape as an allocation error.
  util::BinaryWriter out;
  out.write_u64(std::uint64_t{1} << 40);
  out.write_f64_span(std::vector<double>{0.0, 1.0});
  util::BinaryReader in(out.payload());
  quad::PartitionSet set;
  EXPECT_THROW(quad::read_partition_set_nested(in, set), bd::CheckError);
}

TEST(Serialize, Crc32MatchesKnownVector) {
  // CRC-32("123456789") = 0xCBF43926 — the standard check value.
  const char* digits = "123456789";
  const auto bytes = std::as_bytes(std::span<const char>(digits, 9));
  EXPECT_EQ(util::crc32(bytes), 0xCBF43926u);
}

class CheckedFileTest : public ::testing::Test {
 protected:
  std::string path_ = test_temp_path("bd_checked_file_test", ".bin");
  void TearDown() override {
    std::remove(path_.c_str());
    std::remove((path_ + ".tmp").c_str());
    util::faultinject::clear();
  }

  std::vector<std::byte> payload() const {
    util::BinaryWriter out;
    out.write_string("some payload");
    out.write_u64(123456);
    return {out.payload().begin(), out.payload().end()};
  }
};

constexpr std::uint32_t kMagic = 0x54534554u;  // "TEST"

TEST_F(CheckedFileTest, RoundTrip) {
  util::write_checked_file(path_, kMagic, 3, payload());
  std::uint32_t version = 0;
  EXPECT_EQ(util::read_checked_file(path_, kMagic, version), payload());
  EXPECT_EQ(version, 3u);
}

TEST_F(CheckedFileTest, WrongMagicRejected) {
  util::write_checked_file(path_, kMagic, 1, payload());
  std::uint32_t version = 0;
  EXPECT_THROW(util::read_checked_file(path_, kMagic + 1, version),
               bd::CheckError);
}

TEST_F(CheckedFileTest, TruncationDetected) {
  util::write_checked_file(path_, kMagic, 1, payload());
  const auto full = std::filesystem::file_size(path_);
  std::filesystem::resize_file(path_, full - 5);
  std::uint32_t version = 0;
  EXPECT_THROW(util::read_checked_file(path_, kMagic, version),
               bd::CheckError);
}

TEST_F(CheckedFileTest, BitFlipDetectedByCrc) {
  util::write_checked_file(path_, kMagic, 1, payload());
  {
    std::fstream file(path_, std::ios::in | std::ios::out |
                                 std::ios::binary);
    file.seekp(-1, std::ios::end);  // flip a bit in the last payload byte
    const auto pos = file.tellp();
    file.seekg(pos);
    char byte = 0;
    file.get(byte);
    byte = static_cast<char>(byte ^ 0x01);
    file.seekp(pos);
    file.put(byte);
  }
  std::uint32_t version = 0;
  EXPECT_THROW(util::read_checked_file(path_, kMagic, version),
               bd::CheckError);
}

TEST_F(CheckedFileTest, TruncationFaultLeavesPreviousSnapshotIntact) {
  // First write succeeds; the injected mid-write crash on the second write
  // must throw *and* leave the original file fully readable (the atomic
  // tmp+rename contract).
  util::write_checked_file(path_, kMagic, 1, payload());

  util::BinaryWriter newer;
  newer.write_string("newer payload that must never land");
  util::faultinject::install("checkpoint_truncate");
  EXPECT_THROW(
      util::write_checked_file(path_, kMagic, 1, newer.payload()),
      bd::CheckError);
  util::faultinject::clear();

  std::uint32_t version = 0;
  EXPECT_EQ(util::read_checked_file(path_, kMagic, version), payload());
}

TEST_F(CheckedFileTest, ConcurrentWritersToSamePathNeverCorrupt) {
  // Two threads hammering the SAME destination path: per-writer tmp names
  // (pid + sequence) keep the writes from clobbering each other's staging
  // file, and the atomic rename guarantees the destination is always one
  // writer's complete, CRC-valid snapshot — never a torn mix.
  auto encode = [](std::uint64_t tag) {
    util::BinaryWriter out;
    out.write_string("writer payload");
    out.write_u64(tag);
    return std::vector<std::byte>(out.payload().begin(),
                                  out.payload().end());
  };
  constexpr int kRounds = 25;
  auto writer = [&](std::uint64_t tag) {
    for (int k = 0; k < kRounds; ++k) {
      util::write_checked_file(path_, kMagic, 1, encode(tag));
    }
  };
  std::thread a(writer, 1);
  std::thread b(writer, 2);
  a.join();
  b.join();

  std::uint32_t version = 0;
  const std::vector<std::byte> final =
      util::read_checked_file(path_, kMagic, version);
  EXPECT_TRUE(final == encode(1) || final == encode(2));
  // No staging files left behind.
  const auto dir = std::filesystem::path(path_).parent_path();
  const auto stem = std::filesystem::path(path_).filename().string();
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    EXPECT_EQ(name.find(stem + ".tmp"), std::string::npos)
        << "stray staging file: " << name;
  }
}

// ---------------------------------------------------------------------------
// Append-only CRC-framed journal (write-ahead log)
// ---------------------------------------------------------------------------

/// Corruption matrix for the journal framing, mirroring the checked-file
/// matrix above: round trip, torn tail (tolerated), mid-file damage
/// (loud failure).
class JournalFrameTest : public ::testing::Test {
 protected:
  std::string path_ = test_temp_path("bd_journal_frame_test", ".wal");
  void TearDown() override { std::remove(path_.c_str()); }

  static std::vector<std::byte> record(std::uint64_t tag) {
    util::BinaryWriter out;
    out.write_string("journal record");
    out.write_u64(tag);
    return {out.payload().begin(), out.payload().end()};
  }

  void flip_byte_at(std::int64_t offset_from_start) {
    std::fstream file(path_, std::ios::in | std::ios::out | std::ios::binary);
    file.seekg(offset_from_start);
    char byte = 0;
    file.get(byte);
    byte = static_cast<char>(byte ^ 0x01);
    file.seekp(offset_from_start);
    file.put(byte);
  }
};

TEST_F(JournalFrameTest, AppendReadRoundTrip) {
  util::append_journal_record(path_, record(1));
  util::append_journal_record(path_, record(2));
  util::append_journal_record(path_, record(3));
  const util::JournalReadResult result = util::read_journal_records(path_);
  EXPECT_FALSE(result.truncated_tail);
  ASSERT_EQ(result.records.size(), 3u);
  for (std::uint64_t i = 0; i < 3; ++i) {
    EXPECT_EQ(result.records[i], record(i + 1));
  }
}

TEST_F(JournalFrameTest, MissingFileYieldsNoRecords) {
  const util::JournalReadResult result = util::read_journal_records(path_);
  EXPECT_TRUE(result.records.empty());
  EXPECT_FALSE(result.truncated_tail);
}

TEST_F(JournalFrameTest, TruncatedTailHeaderTolerated) {
  // Crash after writing only part of the last frame *header*: the intact
  // prefix records survive and the tail is flagged, not fatal.
  util::append_journal_record(path_, record(1));
  util::append_journal_record(path_, record(2));
  const auto full = std::filesystem::file_size(path_);
  const auto last = record(2).size() + 12;  // frame header is 12 bytes
  std::filesystem::resize_file(path_, full - last + 5);
  const util::JournalReadResult result = util::read_journal_records(path_);
  EXPECT_TRUE(result.truncated_tail);
  ASSERT_EQ(result.records.size(), 1u);
  EXPECT_EQ(result.records[0], record(1));
}

TEST_F(JournalFrameTest, TruncatedTailPayloadTolerated) {
  // Crash mid-payload of the last frame.
  util::append_journal_record(path_, record(1));
  util::append_journal_record(path_, record(2));
  const auto full = std::filesystem::file_size(path_);
  std::filesystem::resize_file(path_, full - 3);
  const util::JournalReadResult result = util::read_journal_records(path_);
  EXPECT_TRUE(result.truncated_tail);
  ASSERT_EQ(result.records.size(), 1u);
  EXPECT_EQ(result.records[0], record(1));
}

TEST_F(JournalFrameTest, GarbageTailFrameTolerated) {
  // A torn write can land a full-length frame of garbage bytes: the CRC
  // catches it, and because it is the *last* frame it is tolerated.
  util::append_journal_record(path_, record(1));
  util::append_journal_record(path_, record(2));
  const auto full = std::filesystem::file_size(path_);
  flip_byte_at(static_cast<std::int64_t>(full) - 1);
  const util::JournalReadResult result = util::read_journal_records(path_);
  EXPECT_TRUE(result.truncated_tail);
  ASSERT_EQ(result.records.size(), 1u);
}

TEST_F(JournalFrameTest, MidFileCorruptionThrows) {
  // The same bit flip in a frame *followed by more records* is real
  // corruption, not a torn append — it must fail loudly.
  util::append_journal_record(path_, record(1));
  const auto first = std::filesystem::file_size(path_);
  util::append_journal_record(path_, record(2));
  flip_byte_at(static_cast<std::int64_t>(first) - 1);
  EXPECT_THROW(util::read_journal_records(path_), bd::CheckError);
}

TEST_F(JournalFrameTest, BadMarkerThrows) {
  util::append_journal_record(path_, record(1));
  flip_byte_at(0);
  EXPECT_THROW(util::read_journal_records(path_), bd::CheckError);
}

TEST_F(JournalFrameTest, EmptyPayloadRecordRoundTrips) {
  util::append_journal_record(path_, {});
  util::append_journal_record(path_, record(9));
  const util::JournalReadResult result = util::read_journal_records(path_);
  ASSERT_EQ(result.records.size(), 2u);
  EXPECT_TRUE(result.records[0].empty());
  EXPECT_EQ(result.records[1], record(9));
}

// ---------------------------------------------------------------------------
// Full-simulation checkpointing
// ---------------------------------------------------------------------------

core::SimConfig sim_config() {
  core::SimConfig config;
  config.particles = 5000;
  config.nx = 16;
  config.ny = 16;
  config.tolerance = 1e-5;
  config.rigid = false;  // exercise the push so phase space evolves
  return config;
}

std::unique_ptr<core::Simulation> make_sim(bool with_fallbacks = true) {
  auto sim = std::make_unique<core::Simulation>(
      sim_config(),
      std::make_unique<core::PredictiveSolver>(simt::tesla_k40()));
  if (with_fallbacks) {
    sim->add_fallback_solver(
        std::make_unique<baselines::HeuristicSolver>(simt::tesla_k40()));
    sim->add_fallback_solver(
        std::make_unique<baselines::TwoPhaseSolver>(simt::tesla_k40()));
  }
  return sim;
}

class CheckpointTest : public ::testing::Test {
 protected:
  std::string path_ = test_temp_path("bd_checkpoint_test", ".ckpt");
  void TearDown() override {
    std::remove(path_.c_str());
    std::remove((path_ + ".tmp").c_str());
  }
};

TEST_F(CheckpointTest, FreshObjectRestoreMatchesContinuedRun) {
  // Run A: 2 + 2 steps straight through. Run B: restore a fresh simulation
  // from A's step-2 snapshot, then 2 steps. Physics outputs and SIMT
  // KernelMetrics must agree bit-for-bit.
  auto a = make_sim();
  a->initialize();
  run_steps(*a, 2);
  core::save_checkpoint(*a, path_);
  const auto a_stats = run_steps(*a, 2);

  auto b = make_sim();
  core::restore_checkpoint(*b, path_);
  EXPECT_EQ(b->current_step(), 2);
  const auto b_stats = run_steps(*b, 2);

  ASSERT_EQ(a_stats.size(), b_stats.size());
  for (std::size_t k = 0; k < a_stats.size(); ++k) {
    const auto av = a_stats[k].longitudinal.values.data();
    const auto bv = b_stats[k].longitudinal.values.data();
    ASSERT_EQ(av.size(), bv.size());
    for (std::size_t i = 0; i < av.size(); ++i) {
      ASSERT_EQ(av[i], bv[i]) << "step " << k << " node " << i;
    }
    EXPECT_EQ(a_stats[k].longitudinal.fallback_items,
              b_stats[k].longitudinal.fallback_items);
    EXPECT_EQ(a_stats[k].longitudinal.kernel_intervals,
              b_stats[k].longitudinal.kernel_intervals);
    testing::expect_identical(a_stats[k].longitudinal.metrics,
                              b_stats[k].longitudinal.metrics);
  }
  // Particle phase space identical after the resumed steps.
  for (std::size_t i = 0; i < 100; ++i) {
    ASSERT_EQ(a->particles().s()[i], b->particles().s()[i]);
    ASSERT_EQ(a->particles().ps()[i], b->particles().ps()[i]);
  }
}

TEST_F(CheckpointTest, RestoreRejectsConfigMismatch) {
  auto a = make_sim();
  a->initialize();
  run_steps(*a, 1);
  core::save_checkpoint(*a, path_);

  core::SimConfig other = sim_config();
  other.tolerance = 1e-4;
  core::Simulation b(other,
                     std::make_unique<core::PredictiveSolver>(
                         simt::tesla_k40()));
  EXPECT_THROW(core::restore_checkpoint(b, path_), bd::CheckError);
}

TEST_F(CheckpointTest, RestoreRejectsSolverLineupMismatch) {
  auto a = make_sim(/*with_fallbacks=*/true);
  a->initialize();
  run_steps(*a, 1);
  core::save_checkpoint(*a, path_);

  auto b = make_sim(/*with_fallbacks=*/false);
  EXPECT_THROW(core::restore_checkpoint(*b, path_), bd::CheckError);

  core::Simulation c(sim_config(), std::make_unique<baselines::TwoPhaseSolver>(
                                       simt::tesla_k40()));
  EXPECT_THROW(core::restore_checkpoint(c, path_), bd::CheckError);
}

TEST_F(CheckpointTest, RestoreRejectsMissingFile) {
  auto sim = make_sim();
  EXPECT_THROW(
      core::restore_checkpoint(*sim, ::testing::TempDir() + "no_such.ckpt"),
      bd::CheckError);
}

TEST_F(CheckpointTest, ConcurrentSimsCheckpointIntoSameDirectory) {
  // Two simulations saving side by side into one directory (the fleet
  // spool shape): before tmp names carried a per-process/per-write suffix
  // both writers staged to "<path>.tmp" and could rename each other's
  // half-written file into place. Each checkpoint must restore to its own
  // simulation afterwards.
  const std::string path_a = ::testing::TempDir() + "bd_ckpt_dir_a.ckpt";
  const std::string path_b = ::testing::TempDir() + "bd_ckpt_dir_b.ckpt";

  auto sim_a = make_sim();
  auto sim_b = make_sim();
  sim_a->initialize();
  sim_b->initialize();
  run_steps(*sim_a, 2);
  run_steps(*sim_b, 3);

  constexpr int kRounds = 10;
  std::thread ta([&] {
    for (int k = 0; k < kRounds; ++k) core::save_checkpoint(*sim_a, path_a);
  });
  std::thread tb([&] {
    for (int k = 0; k < kRounds; ++k) core::save_checkpoint(*sim_b, path_b);
  });
  ta.join();
  tb.join();

  auto restored_a = make_sim();
  auto restored_b = make_sim();
  core::restore_checkpoint(*restored_a, path_a);
  core::restore_checkpoint(*restored_b, path_b);
  EXPECT_EQ(restored_a->current_step(), 2);
  EXPECT_EQ(restored_b->current_step(), 3);
  for (std::size_t i = 0; i < 100; ++i) {
    ASSERT_EQ(restored_a->particles().s()[i], sim_a->particles().s()[i]);
    ASSERT_EQ(restored_b->particles().s()[i], sim_b->particles().s()[i]);
  }
  std::remove(path_a.c_str());
  std::remove(path_b.c_str());
}

TEST_F(CheckpointTest, PeriodicOverwriteKeepsLatestSnapshot) {
  auto sim = make_sim();
  sim->initialize();
  for (int k = 0; k < 3; ++k) {
    run_steps(*sim, 1);
    core::save_checkpoint(*sim, path_);  // overwrite in place each step
  }
  auto restored = make_sim();
  core::restore_checkpoint(*restored, path_);
  EXPECT_EQ(restored->current_step(), 3);
}

// ---------------------------------------------------------------------------
// Seeded byte mutation of the input readers
// ---------------------------------------------------------------------------
//
// Corrupt bytes re-framed with a valid CRC get past the frame checks, so
// these loops drive restore_checkpoint's payload parsing and the fleet
// journal's record decoder on hostile input. Every input must either load
// or throw bd::CheckError — any other exception fails the test, and the
// asan preset turns memory errors into failures too.

/// Mutate `bytes` with 1–3 seeded operations: overwrite a random byte,
/// truncate, or set a likely length/count field — a little-endian u64 in
/// [1, 2^24) that fits the bytes after it — to a boundary value, where
/// size and overflow bugs hide.
std::vector<std::byte> mutate(std::vector<std::byte> bytes, util::Rng& rng) {
  const auto read_u64 = [&](std::size_t at) {
    std::uint64_t v = 0;
    for (int b = 7; b >= 0; --b) {
      v = (v << 8) | static_cast<std::uint8_t>(bytes[at + b]);
    }
    return v;
  };
  const std::uint64_t ops = 1 + rng.uniform_index(3);
  for (std::uint64_t op = 0; op < ops && !bytes.empty(); ++op) {
    const std::uint64_t choice = rng.uniform_index(8);
    if (choice == 0) {
      bytes.resize(rng.uniform_index(bytes.size()));
    } else if (choice < 4) {
      bytes[rng.uniform_index(bytes.size())] =
          static_cast<std::byte>(rng.uniform_index(256));
    } else {
      std::vector<std::size_t> counts;
      for (std::size_t at = 0; at + 8 <= bytes.size(); ++at) {
        const std::uint64_t v = read_u64(at);
        if (v >= 1 && v < (1u << 24) && v <= bytes.size() - at - 8) {
          counts.push_back(at);
        }
      }
      if (counts.empty()) continue;
      const std::size_t at = counts[rng.uniform_index(counts.size())];
      const std::uint64_t v = read_u64(at);
      const std::uint64_t values[] = {v + 1,          v - 1,
                                      0,              v << 32,
                                      (1ull << 61) + v, ~0ull,
                                      rng.bits()};
      std::uint64_t w = values[rng.uniform_index(std::size(values))];
      for (int b = 0; b < 8; ++b, w >>= 8) {
        bytes[at + b] = static_cast<std::byte>(w & 0xFFu);
      }
    }
  }
  return bytes;
}

TEST(ReaderFuzz, MutatedCheckpointsLoadOrThrowCheckError) {
  const std::string path = test_temp_path("bd_reader_fuzz", ".ckpt");
  // A small grid and bunch keep the float blocks short, so most count
  // mutations land in structure rather than in particle data.
  const auto make_small_sim = [] {
    core::SimConfig config = sim_config();
    config.particles = 256;
    config.nx = 8;
    config.ny = 8;
    auto sim = std::make_unique<core::Simulation>(
        config, std::make_unique<core::PredictiveSolver>(simt::tesla_k40()));
    sim->add_fallback_solver(
        std::make_unique<baselines::HeuristicSolver>(simt::tesla_k40()));
    return sim;
  };
  {
    util::faultinject::FaultHarness inert;  // immune to an ambient BD_FAULT
    auto sim = make_small_sim();
    sim->set_fault_harness(&inert);
    sim->initialize();
    run_steps(*sim, 3);  // a trained predictor: restore refits it
    core::save_checkpoint(*sim, path);
  }
  std::uint32_t version = 0;
  const std::vector<std::byte> payload =
      util::read_checked_file(path, core::kCheckpointMagic, version);

  util::Rng rng(20261017);
  std::size_t loaded = 0;
  for (int i = 0; i < 400; ++i) {
    util::write_checked_file(path, core::kCheckpointMagic, version,
                             mutate(payload, rng));
    auto sim = make_small_sim();
    try {
      core::restore_checkpoint(*sim, path);
      ++loaded;
    } catch (const bd::CheckError&) {
    } catch (const std::exception& e) {
      ADD_FAILURE() << "mutation " << i << " escaped as " << e.what();
    }
  }
  std::remove(path.c_str());
  // Most mutations land in float data and still load; the loop must
  // exercise both outcomes.
  EXPECT_GT(loaded, 0u);
  EXPECT_LT(loaded, 400u);
}

TEST(ReaderFuzz, MutatedJournalsLoadOrThrowCheckError) {
  const std::string dir = test_temp_path("bd_reader_fuzz", "_spool");
  const std::string journal = dir + "/fleet.journal";
  // One record of every kind, laid out as docs/ROBUSTNESS.md documents.
  std::vector<std::vector<std::byte>> records;
  const auto add = [&](std::uint8_t kind, const std::string& name,
                       const auto& fill) {
    util::BinaryWriter out;
    out.write_u8(kind);
    if (kind != 0 && kind != 9) out.write_string(name);
    fill(out);
    records.emplace_back(out.payload().begin(), out.payload().end());
  };
  const auto none = [](util::BinaryWriter&) {};
  add(0, "", [](util::BinaryWriter& o) { o.write_u32(1); });  // header
  for (const std::string name : {"a", "b", "c", "d", "e"}) {
    add(1, name, [](util::BinaryWriter& o) {  // submit
      o.write_u64(8);
      o.write_string("none");
      o.write_u32(3);
      o.write_u32(1);
    });
    add(2, name, none);  // start
  }
  const auto step_digest = [](std::uint64_t step) {
    return [step](util::BinaryWriter& o) {
      o.write_u64(step);
      o.write_u32(0xC0FFEEu);
    };
  };
  const auto attempts_error = [](util::BinaryWriter& o) {
    o.write_u32(1);
    o.write_string("boom");
  };
  add(3, "a", step_digest(2));  // checkpoint
  add(5, "a", attempts_error);  // fail_attempt
  add(10, "a", attempts_error); // retry_state
  add(3, "a", step_digest(4));
  add(4, "b", step_digest(8));  // complete
  add(6, "c", [](util::BinaryWriter& o) { o.write_string("setup"); });
  add(7, "d", attempts_error);  // quarantine
  add(8, "e", none);            // cancel
  add(9, "", none);             // shutdown

  util::Rng rng(1017);
  std::size_t loaded = 0;
  for (int i = 0; i < 400; ++i) {
    std::vector<std::vector<std::byte>> mutated = records;
    auto& victim = mutated[rng.uniform_index(mutated.size())];
    if (rng.uniform_index(4) == 0) {
      victim[0] = static_cast<std::byte>(rng.uniform_index(12));  // kind
    } else {
      victim = mutate(victim, rng);
    }
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    for (const auto& record : mutated) {
      util::append_journal_record(journal, record);
    }
    core::FleetOptions options;
    options.spool_dir = dir;
    try {
      core::SimulationFleet fleet(options);
      ++loaded;
    } catch (const bd::CheckError&) {
    } catch (const std::exception& e) {
      ADD_FAILURE() << "mutation " << i << " escaped as " << e.what();
    }
  }
  std::filesystem::remove_all(dir);
  EXPECT_GT(loaded, 0u);
  EXPECT_LT(loaded, 400u);
}

}  // namespace
}  // namespace bd
