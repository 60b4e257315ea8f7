#include "util/serialize.hpp"

#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>

#include "util/check.hpp"
#include "util/faultinject.hpp"

namespace bd::util {

namespace {

/// CRC-32 lookup table for the reflected IEEE polynomial 0xEDB88320.
const std::uint32_t* crc_table() {
  static const auto table = [] {
    static std::uint32_t t[256];
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int bit = 0; bit < 8; ++bit) {
        c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      t[i] = c;
    }
    return t;
  }();
  return table;
}

}  // namespace

std::uint32_t crc32(std::span<const std::byte> data, std::uint32_t seed) {
  const std::uint32_t* table = crc_table();
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
  for (std::byte b : data) {
    c = table[(c ^ static_cast<std::uint8_t>(b)) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

// ---------------------------------------------------------------------------
// BinaryWriter
// ---------------------------------------------------------------------------

void BinaryWriter::write_u8(std::uint8_t v) {
  buffer_.push_back(static_cast<std::byte>(v));
}

void BinaryWriter::write_u32(std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    buffer_.push_back(static_cast<std::byte>((v >> (8 * i)) & 0xFFu));
  }
}

void BinaryWriter::write_u64(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    buffer_.push_back(static_cast<std::byte>((v >> (8 * i)) & 0xFFu));
  }
}

void BinaryWriter::write_i64(std::int64_t v) {
  write_u64(static_cast<std::uint64_t>(v));
}

void BinaryWriter::write_f64(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  write_u64(bits);
}

void BinaryWriter::write_bool(bool v) { write_u8(v ? 1 : 0); }

void BinaryWriter::write_string(std::string_view s) {
  write_u64(s.size());
  for (char c : s) buffer_.push_back(static_cast<std::byte>(c));
}

void BinaryWriter::write_f64_span(std::span<const double> values) {
  write_u64(values.size());
  for (double v : values) write_f64(v);
}

void BinaryWriter::write_bytes(std::span<const std::byte> bytes) {
  write_u64(bytes.size());
  buffer_.insert(buffer_.end(), bytes.begin(), bytes.end());
}

// ---------------------------------------------------------------------------
// BinaryReader
// ---------------------------------------------------------------------------

const std::byte* BinaryReader::take(std::size_t n) {
  BD_CHECK_MSG(remaining() >= n, "truncated payload: need "
                                     << n << " bytes, have " << remaining());
  const std::byte* p = payload_.data() + offset_;
  offset_ += n;
  return p;
}

std::uint8_t BinaryReader::read_u8() {
  return static_cast<std::uint8_t>(*take(1));
}

std::uint32_t BinaryReader::read_u32() {
  const std::byte* p = take(4);
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(static_cast<std::uint8_t>(p[i])) << (8 * i);
  }
  return v;
}

std::uint64_t BinaryReader::read_u64() {
  const std::byte* p = take(8);
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(static_cast<std::uint8_t>(p[i])) << (8 * i);
  }
  return v;
}

std::int64_t BinaryReader::read_i64() {
  return static_cast<std::int64_t>(read_u64());
}

double BinaryReader::read_f64() {
  const std::uint64_t bits = read_u64();
  double v = 0.0;
  std::memcpy(&v, &bits, sizeof v);
  return v;
}

bool BinaryReader::read_bool() { return read_u8() != 0; }

std::string BinaryReader::read_string() {
  const std::uint64_t n = read_u64();
  BD_CHECK_MSG(n <= remaining(), "truncated payload: string of " << n
                                     << " bytes, have " << remaining());
  const std::byte* p = take(static_cast<std::size_t>(n));
  return std::string(reinterpret_cast<const char*>(p),
                     static_cast<std::size_t>(n));
}

std::vector<double> BinaryReader::read_f64_vector() {
  const std::uint64_t n = read_u64();
  // Divide rather than multiply: a corrupt n * 8 can wrap past the check.
  BD_CHECK_MSG(n <= remaining() / sizeof(double),
               "truncated payload: f64 array of " << n << " elements");
  std::vector<double> out(static_cast<std::size_t>(n));
  for (double& v : out) v = read_f64();
  return out;
}

void BinaryReader::read_f64_into(std::span<double> out) {
  const std::uint64_t n = read_u64();
  BD_CHECK_MSG(n == out.size(), "f64 array size mismatch: stored "
                                    << n << ", expected " << out.size());
  for (double& v : out) v = read_f64();
}

std::vector<std::byte> BinaryReader::read_bytes() {
  const std::uint64_t n = read_u64();
  BD_CHECK_MSG(n <= remaining(), "truncated payload: byte block of " << n
                                     << " bytes, have " << remaining());
  const std::byte* p = take(static_cast<std::size_t>(n));
  return std::vector<std::byte>(p, p + n);
}

// ---------------------------------------------------------------------------
// Checked files
// ---------------------------------------------------------------------------

namespace {

struct FileCloser {
  void operator()(std::FILE* f) const {
    if (f) std::fclose(f);
  }
};
using FileHandle = std::unique_ptr<std::FILE, FileCloser>;

void append_bytes(std::vector<std::byte>& out, const BinaryWriter& in) {
  const auto bytes = in.payload();
  out.insert(out.end(), bytes.begin(), bytes.end());
}

void append_header(std::vector<std::byte>& out, std::uint32_t magic,
                   std::uint32_t version, std::uint64_t payload_size,
                   std::uint32_t crc) {
  BinaryWriter header;
  header.write_u32(magic);
  header.write_u32(version);
  header.write_u64(payload_size);
  header.write_u32(crc);
  append_bytes(out, header);
}

/// Journal frame header: marker, payload size, payload CRC.
BinaryWriter journal_frame(std::span<const std::byte> payload) {
  BinaryWriter frame;
  frame.write_u32(kJournalMarker);
  frame.write_u32(static_cast<std::uint32_t>(payload.size()));
  frame.write_u32(crc32(payload));
  return frame;
}

constexpr std::string_view kStageTag = ".tmp.";

/// Write `bytes` to a fresh staging sibling of `path` and return its
/// name. The name must be unique per process *and* per writer: two sims
/// checkpointing into the same directory (or two processes sharing a
/// spool) must never write the same staging file, or one rename
/// publishes the other's half-written bytes. Staging in the destination
/// directory keeps the final rename atomic. On a short write the stage is
/// removed and bd::CheckError thrown.
std::string write_stage(const std::string& path,
                        std::span<const std::byte> bytes) {
  static std::atomic<std::uint64_t> g_stage_seq{0};
  const std::uint64_t seq =
      g_stage_seq.fetch_add(1, std::memory_order_relaxed) + 1;
  const std::string tmp = path + std::string(kStageTag) +
                          std::to_string(static_cast<long>(::getpid())) + "." +
                          std::to_string(seq);
  FileHandle f(std::fopen(tmp.c_str(), "wb"));
  BD_CHECK_MSG(f != nullptr, "cannot open " << tmp << " for writing");
  const std::size_t written =
      std::fwrite(bytes.data(), 1, bytes.size(), f.get());
  if (written != bytes.size() || std::fflush(f.get()) != 0) {
    f.reset();
    std::remove(tmp.c_str());
    BD_CHECK_MSG(false, "short write to " << tmp);
  }
  return tmp;
}

/// Stage `bytes` and rename the stage over `path`.
void replace_file(const std::string& path, std::span<const std::byte> bytes) {
  const std::string tmp = write_stage(path, bytes);
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    BD_CHECK_MSG(false, "cannot rename " << tmp << " over " << path);
  }
}

/// The pid of a staging file name (`….tmp.<pid>` or `….tmp.<pid>.<seq>`),
/// or 0 when `name` is not one.
long staging_pid(const std::string& name) {
  const auto tag = name.rfind(kStageTag);
  if (tag == std::string::npos) return 0;
  const std::string rest = name.substr(tag + kStageTag.size());
  const auto dot = rest.find('.');
  const std::string pid = rest.substr(0, dot);
  const std::string seq = dot == std::string::npos ? "" : rest.substr(dot + 1);
  const auto digits = [](const std::string& s) {
    return s.find_first_not_of("0123456789") == std::string::npos;
  };
  if (pid.empty() || pid.size() > 9 || !digits(pid)) return 0;
  if (dot != std::string::npos && (seq.empty() || !digits(seq))) return 0;
  return std::strtol(pid.c_str(), nullptr, 10);
}

}  // namespace

void write_checked_file(const std::string& path, std::uint32_t magic,
                        std::uint32_t version,
                        std::span<const std::byte> payload) {
  std::vector<std::byte> file;
  file.reserve(payload.size() + 20);
  append_header(file, magic, version, payload.size(), crc32(payload));
  file.insert(file.end(), payload.begin(), payload.end());

  // Deterministic crash-mid-write fault: flush only a prefix of the stage
  // and bail before the rename — the previous snapshot must survive.
  if (faultinject::enabled() &&
      faultinject::fire(faultinject::FaultClass::kCheckpointTruncate, -1)
          .has_value()) {
    const std::string tmp =
        write_stage(path, std::span(file).first(file.size() / 2));
    std::remove(tmp.c_str());
    BD_CHECK_MSG(false, "fault injected: checkpoint write to "
                            << path << " truncated mid-file");
  }
  replace_file(path, file);
}

std::vector<std::byte> read_checked_file(const std::string& path,
                                         std::uint32_t magic,
                                         std::uint32_t& version_out) {
  FileHandle f(std::fopen(path.c_str(), "rb"));
  BD_CHECK_MSG(f != nullptr, "cannot open checkpoint file: " << path);
  std::vector<std::byte> file;
  std::byte chunk[65536];
  std::size_t n = 0;
  while ((n = std::fread(chunk, 1, sizeof chunk, f.get())) > 0) {
    file.insert(file.end(), chunk, chunk + n);
  }
  BD_CHECK_MSG(std::ferror(f.get()) == 0, "read error on " << path);

  constexpr std::size_t kHeaderSize = 20;  // magic + version + size + crc
  BD_CHECK_MSG(file.size() >= kHeaderSize,
               path << ": too short to be a checkpoint (" << file.size()
                    << " bytes)");
  BinaryReader header(std::span<const std::byte>(file.data(), kHeaderSize));
  const std::uint32_t stored_magic = header.read_u32();
  BD_CHECK_MSG(stored_magic == magic,
               path << ": bad magic 0x" << std::hex << stored_magic
                    << ", expected 0x" << magic);
  version_out = header.read_u32();
  const std::uint64_t payload_size = header.read_u64();
  const std::uint32_t stored_crc = header.read_u32();
  BD_CHECK_MSG(file.size() - kHeaderSize == payload_size,
               path << ": truncated payload — header declares " << payload_size
                    << " bytes, file holds " << (file.size() - kHeaderSize));
  const std::span<const std::byte> payload(file.data() + kHeaderSize,
                                           static_cast<std::size_t>(payload_size));
  const std::uint32_t actual_crc = crc32(payload);
  BD_CHECK_MSG(actual_crc == stored_crc,
               path << ": CRC mismatch — stored 0x" << std::hex << stored_crc
                    << ", computed 0x" << actual_crc);
  return std::vector<std::byte>(payload.begin(), payload.end());
}

// ---------------------------------------------------------------------------
// Append-only CRC-framed journal
// ---------------------------------------------------------------------------

void append_journal_record(const std::string& path,
                           std::span<const std::byte> payload) {
  const BinaryWriter frame = journal_frame(payload);
  FileHandle f(std::fopen(path.c_str(), "ab"));
  BD_CHECK_MSG(f != nullptr, "cannot open journal " << path << " for append");
  const auto header = frame.payload();
  const bool ok =
      std::fwrite(header.data(), 1, header.size(), f.get()) == header.size() &&
      (payload.empty() ||
       std::fwrite(payload.data(), 1, payload.size(), f.get()) ==
           payload.size()) &&
      std::fflush(f.get()) == 0;
  BD_CHECK_MSG(ok, "short append to journal " << path);
}

JournalReadResult read_journal_records(const std::string& path) {
  JournalReadResult result;
  FileHandle f(std::fopen(path.c_str(), "rb"));
  if (f == nullptr) return result;  // no journal yet: zero records
  std::vector<std::byte> file;
  std::byte chunk[65536];
  std::size_t n = 0;
  while ((n = std::fread(chunk, 1, sizeof chunk, f.get())) > 0) {
    file.insert(file.end(), chunk, chunk + n);
  }
  BD_CHECK_MSG(std::ferror(f.get()) == 0, "read error on journal " << path);

  constexpr std::size_t kFrameHeader = 12;  // marker + size + crc
  std::size_t offset = 0;
  while (offset < file.size()) {
    // A frame that cannot fully fit in the remaining bytes is a torn tail
    // append — tolerated. Anything else inconsistent is corruption.
    if (file.size() - offset < kFrameHeader) {
      result.truncated_tail = true;
      break;
    }
    BinaryReader header(
        std::span<const std::byte>(file.data() + offset, kFrameHeader));
    const std::uint32_t marker = header.read_u32();
    BD_CHECK_MSG(marker == kJournalMarker,
                 path << ": bad journal frame marker 0x" << std::hex << marker
                      << " at byte offset " << std::dec << offset);
    const std::uint32_t size = header.read_u32();
    const std::uint32_t stored_crc = header.read_u32();
    if (file.size() - offset - kFrameHeader < size) {
      result.truncated_tail = true;
      break;
    }
    const std::span<const std::byte> payload(file.data() + offset +
                                                 kFrameHeader,
                                             size);
    const std::uint32_t actual_crc = crc32(payload);
    if (actual_crc != stored_crc) {
      // A torn write can flush a full-length frame with garbage bytes; a
      // CRC mismatch on the very last frame is that case. Mid-file, it is
      // corruption and must fail loudly.
      if (offset + kFrameHeader + size == file.size()) {
        result.truncated_tail = true;
        break;
      }
      BD_CHECK_MSG(false, path << ": journal frame CRC mismatch at byte offset "
                               << offset << " — stored 0x" << std::hex
                               << stored_crc << ", computed 0x" << actual_crc);
    }
    result.records.emplace_back(payload.begin(), payload.end());
    offset += kFrameHeader + size;
  }
  return result;
}

void rewrite_journal(const std::string& path,
                     std::span<const BinaryWriter> records) {
  std::vector<std::byte> file;
  for (const BinaryWriter& record : records) {
    append_bytes(file, journal_frame(record.payload()));
    append_bytes(file, record);
  }
  replace_file(path, file);
}

std::uint64_t remove_dead_staging_files(const std::string& dir) {
  namespace fs = std::filesystem;
  constexpr std::size_t kScanCap = 1024;
  std::uint64_t removed = 0;
  std::size_t scanned = 0;
  std::error_code ec;
  for (fs::directory_iterator it(dir, ec), end; !ec && it != end;
       it.increment(ec)) {
    if (++scanned > kScanCap) break;
    std::error_code entry_ec;
    if (!it->is_regular_file(entry_ec)) continue;
    const long pid = staging_pid(it->path().filename().string());
    if (pid <= 0 || pid == static_cast<long>(::getpid())) continue;
    errno = 0;
    if (::kill(static_cast<pid_t>(pid), 0) == 0 || errno != ESRCH) {
      continue;  // alive, or not ours to judge: keep the stage
    }
    if (fs::remove(it->path(), entry_ec)) ++removed;
  }
  return removed;
}

}  // namespace bd::util
