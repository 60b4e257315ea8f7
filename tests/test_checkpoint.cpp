/// Checkpoint/restart: serialization primitives, the checked-file
/// container (CRC, truncation, atomic rename), and full Simulation
/// save/restore including solver learned state.

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <thread>

#include "baselines/heuristic.hpp"
#include "baselines/two_phase.hpp"
#include "core/checkpoint.hpp"
#include "core/predictive.hpp"
#include "core/simulation.hpp"
#include "simt/device.hpp"
#include "test_helpers.hpp"
#include "util/check.hpp"
#include "util/faultinject.hpp"
#include "util/serialize.hpp"

namespace bd {
namespace {

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

TEST(Serialize, NestedF64RoundTrip) {
  const std::vector<std::vector<double>> partitions{
      {0.0, 1.0, 2.0}, {}, {5.5}};
  util::BinaryWriter out;
  util::write_nested_f64(out, partitions);
  util::BinaryReader in(out.payload());
  EXPECT_EQ(util::read_nested_f64(in), partitions);
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
  a->run(2);
  core::save_checkpoint(*a, path_);
  const auto a_stats = a->run(2);

  auto b = make_sim();
  core::restore_checkpoint(*b, path_);
  EXPECT_EQ(b->current_step(), 2);
  const auto b_stats = b->run(2);

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
  a->run(1);
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
  a->run(1);
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
  sim_a->run(2);
  sim_b->run(3);

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
    sim->run(1);
    core::save_checkpoint(*sim, path_);  // overwrite in place each step
  }
  auto restored = make_sim();
  core::restore_checkpoint(*restored, path_);
  EXPECT_EQ(restored->current_step(), 3);
}

}  // namespace
}  // namespace bd
