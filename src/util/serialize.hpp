#pragma once
/// \file serialize.hpp
/// Versioned, checksummed binary serialization for checkpoint/restart.
///
/// A checkpoint is a *checked file*:
///
///   [magic u32][version u32][payload_size u64][crc32 u32][payload bytes]
///
/// written atomically (temp file + rename) so a crash mid-write can never
/// corrupt the previous snapshot, and validated on read (magic, size and
/// CRC32 of the payload) so a truncated or bit-flipped file raises
/// bd::CheckError instead of resurrecting garbage state.
///
/// BinaryWriter/BinaryReader provide the typed little-endian payload
/// encoding. Every read is bounds-checked; running off the end of a
/// payload throws bd::CheckError. All multi-byte values are encoded
/// little-endian regardless of host order, so snapshots are portable.

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace bd::util {

/// CRC-32 (IEEE 802.3 polynomial, the zlib/PNG flavor) of `data`.
/// Chain blocks by feeding the previous result as `seed`.
std::uint32_t crc32(std::span<const std::byte> data, std::uint32_t seed = 0);

/// Append-only typed encoder for a checkpoint payload.
class BinaryWriter {
 public:
  void write_u8(std::uint8_t v);
  void write_u32(std::uint32_t v);
  void write_u64(std::uint64_t v);
  void write_i64(std::int64_t v);
  void write_f64(double v);
  void write_bool(bool v);
  /// Length-prefixed UTF-8 string.
  void write_string(std::string_view s);
  /// Length-prefixed array of doubles (bit-exact, NaN-safe).
  void write_f64_span(std::span<const double> values);
  /// Length-prefixed raw byte block (for nested / opaque payloads).
  void write_bytes(std::span<const std::byte> bytes);

  std::span<const std::byte> payload() const { return buffer_; }
  std::size_t size() const { return buffer_.size(); }

 private:
  std::vector<std::byte> buffer_;
};

/// Bounds-checked typed decoder over a payload. Reads must mirror the
/// writes exactly; any overrun or length mismatch throws bd::CheckError.
class BinaryReader {
 public:
  explicit BinaryReader(std::span<const std::byte> payload)
      : payload_(payload) {}

  std::uint8_t read_u8();
  std::uint32_t read_u32();
  std::uint64_t read_u64();
  std::int64_t read_i64();
  double read_f64();
  bool read_bool();
  std::string read_string();
  /// Read a length-prefixed f64 array into a fresh vector.
  std::vector<double> read_f64_vector();
  /// Read a length-prefixed f64 array into `out`; the stored length must
  /// equal out.size() (in-place restore without reallocation).
  void read_f64_into(std::span<double> out);
  /// Read a length-prefixed raw byte block.
  std::vector<std::byte> read_bytes();

  std::size_t remaining() const { return payload_.size() - offset_; }
  bool done() const { return remaining() == 0; }

 private:
  const std::byte* take(std::size_t n);

  std::span<const std::byte> payload_;
  std::size_t offset_ = 0;
};

/// Atomically write a checked file: the header+payload go to a unique
/// `path + ".tmp.<pid>.<seq>"` sibling first and are renamed over `path`
/// only once fully flushed, so `path` always holds either the previous
/// snapshot or the complete new one — and concurrent writers (two sims
/// checkpointing into one directory, or two processes sharing a spool)
/// can never clobber each other's in-flight temp file.
/// Throws bd::CheckError on I/O failure (the previous file is untouched
/// and the temp file is removed).
void write_checked_file(const std::string& path, std::uint32_t magic,
                        std::uint32_t version,
                        std::span<const std::byte> payload);

/// Read and validate a checked file: magic, declared payload size and
/// CRC32 must all match or bd::CheckError is thrown. Returns the payload;
/// `version_out` receives the stored format version (callers dispatch on
/// it — see docs/ROBUSTNESS.md for the version policy).
std::vector<std::byte> read_checked_file(const std::string& path,
                                         std::uint32_t magic,
                                         std::uint32_t& version_out);

// ---------------------------------------------------------------------------
// Append-only CRC-framed journal (write-ahead log)
// ---------------------------------------------------------------------------
//
// A journal is a sequence of independently validated record frames:
//
//   [marker u32][payload_size u32][crc32 u32][payload bytes]
//
// appended (and flushed) one frame at a time, so a crash mid-append can
// only ever damage the *last* frame. Readers therefore tolerate a
// truncated or corrupt tail frame — the torn write a crash leaves behind
// — but treat any damaged frame *followed by more bytes* as real
// corruption and throw. The payload encoding is the caller's
// (BinaryWriter/BinaryReader); see docs/ROBUSTNESS.md for the fleet
// journal's record layout.

/// Frame marker "BDJL" (little-endian on disk).
inline constexpr std::uint32_t kJournalMarker = 0x4C4A4442u;

/// Append one framed record to the journal at `path` (created when
/// missing) and flush it. Throws bd::CheckError on I/O failure.
void append_journal_record(const std::string& path,
                           std::span<const std::byte> payload);

/// Every record payload recovered from a journal, in append order.
struct JournalReadResult {
  std::vector<std::vector<std::byte>> records;
  /// True when the file ended in a torn frame (crash mid-append). The
  /// complete prefix in `records` is still valid.
  bool truncated_tail = false;
};

/// Read and validate a journal. A missing file yields zero records; a
/// torn tail frame sets `truncated_tail`; a damaged frame with more data
/// after it throws bd::CheckError naming the byte offset.
JournalReadResult read_journal_records(const std::string& path);

/// Atomically replace the journal at `path` with exactly `records` (one
/// frame per payload, in order), staged and renamed like
/// write_checked_file: a crash mid-rewrite leaves the old journal intact.
/// Throws bd::CheckError on I/O failure.
void rewrite_journal(const std::string& path,
                     std::span<const BinaryWriter> records);

/// Remove the staging files that crashed writers left in `dir`: names
/// ending in `.tmp.<pid>` or `.tmp.<pid>.<seq>` whose pid is verifiably
/// dead (`kill(pid, 0)` fails with ESRCH). Files of live or foreign
/// owners and other names are kept. Best effort: scans at most 1024
/// directory entries and skips any it cannot stat or remove. Returns the
/// number removed.
std::uint64_t remove_dead_staging_files(const std::string& dir);

}  // namespace bd::util
