#include "util/telemetry.hpp"

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <sstream>
#include <thread>
#include <vector>

#include "util/table.hpp"

namespace bd::util::telemetry {

namespace {

/// JSON string escaper for names/args we do not control byte-for-byte.
std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string format_number(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

}  // namespace

// ---------------------------------------------------------------------------
// Histogram buckets
// ---------------------------------------------------------------------------

std::size_t histogram_bucket_index(double value) {
  if (!(value >= 1.0)) return 0;  // < 1, negative, NaN
  int exp = 0;
  // frexp: value = m * 2^exp with m in [0.5, 1) — so value lies in
  // [2^(exp-1), 2^exp) and the bucket index is exactly exp.
  std::frexp(value, &exp);
  if (exp < 1) return 0;
  const auto b = static_cast<std::size_t>(exp);
  return b < kHistogramBuckets ? b : kHistogramBuckets - 1;
}

// ---------------------------------------------------------------------------
// MetricsRegistry
// ---------------------------------------------------------------------------

namespace {
enum class MetricKind { kCounter, kGauge, kHistogram };

struct Cell {
  MetricKind kind = MetricKind::kCounter;
  std::uint64_t counter = 0;
  double gauge = 0.0;
  std::uint64_t gauge_seq = 0;  // registry write sequence; highest wins
  HistogramSnapshot hist;
};
}  // namespace

namespace {
/// Unique ids for registry/session instances. Ids are never reused, so a
/// thread-local (id → shard/lane) cache entry can never alias a new
/// instance that happens to be allocated at a destroyed one's address.
std::atomic<std::uint64_t> g_instance_ids{0};

std::uint64_t next_instance_id() {
  return g_instance_ids.fetch_add(1, std::memory_order_relaxed) + 1;
}

/// Small per-thread most-recent-first cache of (instance id → storage).
/// Entries for destroyed instances are harmless (their ids never match
/// again) and are evicted by the size cap.
struct InstanceCache {
  struct Entry {
    std::uint64_t id;
    void* storage;
  };
  std::vector<Entry> entries;

  void* find(std::uint64_t id) {
    for (std::size_t i = 0; i < entries.size(); ++i) {
      if (entries[i].id != id) continue;
      if (i != 0) std::swap(entries[0], entries[i]);
      return entries[0].storage;
    }
    return nullptr;
  }

  void remember(std::uint64_t id, void* storage) {
    entries.insert(entries.begin(), Entry{id, storage});
    if (entries.size() > 16) entries.pop_back();
  }
};
}  // namespace

/// One thread's private metric storage. The mutex is only ever contended
/// by snapshot()/reset() — the owning thread is the sole writer.
struct MetricsRegistry::Shard {
  std::mutex mu;
  std::map<std::string, Cell, std::less<>> cells;
};

struct MetricsRegistry::Impl {
  const std::uint64_t id = next_instance_id();
  std::mutex mu;  // guards shards/by_thread (the containers, not contents)
  std::vector<std::unique_ptr<Shard>> shards;
  std::map<std::thread::id, Shard*> by_thread;
  std::atomic<std::uint64_t> gauge_seq{0};
};

MetricsRegistry::MetricsRegistry() : impl_(std::make_unique<Impl>()) {}
MetricsRegistry::~MetricsRegistry() = default;

MetricsRegistry& MetricsRegistry::global() {
  static MetricsRegistry* instance = new MetricsRegistry();  // never destroyed
  return *instance;
}

MetricsRegistry::Shard& MetricsRegistry::local_shard() const {
  thread_local InstanceCache cache;
  if (void* hit = cache.find(impl_->id)) return *static_cast<Shard*>(hit);
  Shard* shard = nullptr;
  {
    std::lock_guard<std::mutex> lk(impl_->mu);
    Shard*& slot = impl_->by_thread[std::this_thread::get_id()];
    if (slot == nullptr) {
      impl_->shards.push_back(std::make_unique<Shard>());
      slot = impl_->shards.back().get();  // registry owns it for its lifetime
    }
    shard = slot;
  }
  cache.remember(impl_->id, shard);
  return *shard;
}

void MetricsRegistry::counter_add(std::string_view name, std::uint64_t delta) {
  Shard& shard = local_shard();
  std::lock_guard<std::mutex> lk(shard.mu);
  auto it = shard.cells.find(name);
  if (it == shard.cells.end()) {
    it = shard.cells.emplace(std::string(name), Cell{}).first;
    it->second.kind = MetricKind::kCounter;
  }
  it->second.counter += delta;
}

void MetricsRegistry::gauge_set(std::string_view name, double value) {
  const std::uint64_t seq =
      impl_->gauge_seq.fetch_add(1, std::memory_order_relaxed) + 1;
  Shard& shard = local_shard();
  std::lock_guard<std::mutex> lk(shard.mu);
  auto it = shard.cells.find(name);
  if (it == shard.cells.end()) {
    it = shard.cells.emplace(std::string(name), Cell{}).first;
    it->second.kind = MetricKind::kGauge;
  }
  it->second.gauge = value;
  it->second.gauge_seq = seq;
}

void MetricsRegistry::histogram_record(std::string_view name, double value) {
  Shard& shard = local_shard();
  std::lock_guard<std::mutex> lk(shard.mu);
  auto it = shard.cells.find(name);
  if (it == shard.cells.end()) {
    it = shard.cells.emplace(std::string(name), Cell{}).first;
    it->second.kind = MetricKind::kHistogram;
  }
  HistogramSnapshot& h = it->second.hist;
  if (h.count == 0 || value < h.min) h.min = value;
  if (h.count == 0 || value > h.max) h.max = value;
  ++h.count;
  h.sum += value;
  ++h.buckets[histogram_bucket_index(value)];
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  MetricsSnapshot snap;
  // Shards are merged in creation order; counters and bucket counts are
  // integer sums (order-independent), gauges resolve by write sequence,
  // and histogram double-sums see a fixed merge order — so a deterministic
  // program produces a deterministic snapshot.
  std::vector<Shard*> shards;
  {
    std::lock_guard<std::mutex> lk(impl_->mu);
    shards.reserve(impl_->shards.size());
    for (const auto& s : impl_->shards) shards.push_back(s.get());
  }
  std::map<std::string, std::uint64_t> gauge_seqs;
  for (Shard* shard : shards) {
    std::lock_guard<std::mutex> lk(shard->mu);
    for (const auto& [name, cell] : shard->cells) {
      switch (cell.kind) {
        case MetricKind::kCounter:
          snap.counters[name] += cell.counter;
          break;
        case MetricKind::kGauge: {
          auto [it, inserted] = gauge_seqs.emplace(name, cell.gauge_seq);
          if (inserted || cell.gauge_seq >= it->second) {
            it->second = cell.gauge_seq;
            snap.gauges[name] = cell.gauge;
          }
          break;
        }
        case MetricKind::kHistogram: {
          HistogramSnapshot& h = snap.histograms[name];
          const HistogramSnapshot& other = cell.hist;
          if (other.count == 0) break;
          if (h.count == 0 || other.min < h.min) h.min = other.min;
          if (h.count == 0 || other.max > h.max) h.max = other.max;
          h.count += other.count;
          h.sum += other.sum;
          for (std::size_t b = 0; b < kHistogramBuckets; ++b) {
            h.buckets[b] += other.buckets[b];
          }
          break;
        }
      }
    }
  }
  return snap;
}

void MetricsRegistry::reset() {
  std::vector<Shard*> shards;
  {
    std::lock_guard<std::mutex> lk(impl_->mu);
    for (const auto& s : impl_->shards) shards.push_back(s.get());
  }
  for (Shard* shard : shards) {
    std::lock_guard<std::mutex> lk(shard->mu);
    shard->cells.clear();
  }
}

std::string MetricsRegistry::summary() const {
  const MetricsSnapshot snap = snapshot();
  ConsoleTable table({"metric", "kind", "count", "value/sum", "mean", "min",
                      "max"});
  for (const auto& [name, value] : snap.counters) {
    table.cell(name).cell("counter").cell(std::int64_t(value))
        .cell(std::int64_t(value)).cell("-").cell("-").cell("-");
    table.end_row();
  }
  for (const auto& [name, value] : snap.gauges) {
    table.cell(name).cell("gauge").cell("-").cell(format_number(value))
        .cell("-").cell("-").cell("-");
    table.end_row();
  }
  for (const auto& [name, h] : snap.histograms) {
    table.cell(name).cell("histogram").cell(std::int64_t(h.count))
        .cell(format_number(h.sum)).cell(format_number(h.mean()))
        .cell(format_number(h.min)).cell(format_number(h.max));
    table.end_row();
  }
  return table.str();
}

// ---------------------------------------------------------------------------
// TelemetryScope
// ---------------------------------------------------------------------------

namespace {
thread_local MetricsRegistry* tls_metrics = nullptr;
thread_local TraceSession* tls_trace = nullptr;
}  // namespace

TelemetryScope::TelemetryScope(MetricsRegistry* metrics, TraceSession* trace)
    : prev_metrics_(tls_metrics), prev_trace_(tls_trace) {
  if (metrics != nullptr) tls_metrics = metrics;
  if (trace != nullptr) tls_trace = trace;
}

TelemetryScope::~TelemetryScope() {
  tls_metrics = prev_metrics_;
  tls_trace = prev_trace_;
}

MetricsRegistry* scoped_metrics() { return tls_metrics; }
TraceSession* scoped_trace() { return tls_trace; }

MetricsRegistry& current_metrics() {
  return tls_metrics != nullptr ? *tls_metrics : MetricsRegistry::global();
}

TraceSession& current_trace() {
  return tls_trace != nullptr ? *tls_trace : TraceSession::global();
}

void counter_add(std::string_view name, std::uint64_t delta) {
  current_metrics().counter_add(name, delta);
}
void gauge_set(std::string_view name, double value) {
  current_metrics().gauge_set(name, value);
}
void histogram_record(std::string_view name, double value) {
  current_metrics().histogram_record(name, value);
}

// ---------------------------------------------------------------------------
// TraceSession
// ---------------------------------------------------------------------------

/// One thread's span storage lane. Like metric shards, lanes are owned by
/// the session and outlive their thread (pool rebuilds keep their data).
struct TraceSession::Lane {
  std::mutex mu;
  std::uint32_t tid = 0;
  std::string thread_name;
  std::vector<TraceEvent> events;
};

struct TraceSession::Impl {
  const std::uint64_t id = next_instance_id();
  std::atomic<bool> enabled{false};
  std::chrono::steady_clock::time_point epoch;
  mutable std::mutex mu;  // guards lanes vector, output path, flushed flag
  std::vector<std::unique_ptr<Lane>> lanes;
  std::map<std::thread::id, Lane*> by_thread;
  std::uint32_t next_tid = 1;
  std::string output_path;
  bool flushed = false;
};

TraceSession::TraceSession() : impl_(std::make_unique<Impl>()) {
  impl_->epoch = std::chrono::steady_clock::now();
}

TraceSession::~TraceSession() = default;

TraceSession& TraceSession::global() {
  static TraceSession* instance = new TraceSession();  // never destroyed
  static std::once_flag bootstrapped;
  std::call_once(bootstrapped, [] {
    if (const char* path = std::getenv("BD_TRACE"); path && *path) {
      instance->set_output_path(path);
      instance->start();
      std::atexit([] { TraceSession::global().flush(); });
    }
  });
  return *instance;
}

namespace {
// Captured during static initialization, which runs on the process's main
// thread — lane naming must not depend on which thread records first.
const std::thread::id g_main_thread_id = std::this_thread::get_id();
}  // namespace

TraceSession::Lane& TraceSession::local_lane() const {
  thread_local InstanceCache cache;
  if (void* hit = cache.find(impl_->id)) return *static_cast<Lane*>(hit);
  Lane* lane = nullptr;
  {
    std::lock_guard<std::mutex> lk(impl_->mu);
    Lane*& slot = impl_->by_thread[std::this_thread::get_id()];
    if (slot == nullptr) {
      auto owned = std::make_unique<Lane>();
      owned->tid = impl_->next_tid++;
      if (std::this_thread::get_id() == g_main_thread_id) {
        owned->thread_name = "main";
      }
      slot = owned.get();  // session owns it for its lifetime
      impl_->lanes.push_back(std::move(owned));
    }
    lane = slot;
  }
  cache.remember(impl_->id, lane);
  return *lane;
}

bool TraceSession::enabled() const {
  return impl_->enabled.load(std::memory_order_relaxed);
}

void TraceSession::start() {
  impl_->enabled.store(true, std::memory_order_relaxed);
}

void TraceSession::stop() {
  impl_->enabled.store(false, std::memory_order_relaxed);
}

void TraceSession::clear() {
  std::vector<Lane*> lanes;
  {
    std::lock_guard<std::mutex> lk(impl_->mu);
    for (const auto& l : impl_->lanes) lanes.push_back(l.get());
  }
  for (Lane* lane : lanes) {
    std::lock_guard<std::mutex> lk(lane->mu);
    lane->events.clear();
  }
}

void TraceSession::set_output_path(std::string path) {
  std::lock_guard<std::mutex> lk(impl_->mu);
  impl_->output_path = std::move(path);
  impl_->flushed = false;
}

double TraceSession::now_us() const {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - impl_->epoch)
      .count();
}

void TraceSession::set_current_thread_name(std::string name) {
  Lane& lane = local_lane();
  std::lock_guard<std::mutex> lk(lane.mu);
  lane.thread_name = std::move(name);
}

void TraceSession::record_complete(std::string name, const char* category,
                                   double ts_us, double dur_us,
                                   std::string args) {
  Lane& lane = local_lane();
  std::lock_guard<std::mutex> lk(lane.mu);
  lane.events.push_back(TraceEvent{std::move(name), category, ts_us, dur_us,
                                   std::move(args)});
}

std::size_t TraceSession::event_count() const {
  std::size_t n = 0;
  std::vector<Lane*> lanes;
  {
    std::lock_guard<std::mutex> lk(impl_->mu);
    for (const auto& l : impl_->lanes) lanes.push_back(l.get());
  }
  for (Lane* lane : lanes) {
    std::lock_guard<std::mutex> lk(lane->mu);
    n += lane->events.size();
  }
  return n;
}

std::string TraceSession::chrome_json() const {
  std::vector<Lane*> lanes;
  {
    std::lock_guard<std::mutex> lk(impl_->mu);
    for (const auto& l : impl_->lanes) lanes.push_back(l.get());
  }
  std::ostringstream os;
  os << "{\"traceEvents\":[";
  bool first = true;
  char buf[64];
  for (Lane* lane : lanes) {
    std::lock_guard<std::mutex> lk(lane->mu);
    if (!lane->thread_name.empty()) {
      os << (first ? "" : ",");
      first = false;
      os << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":"
         << lane->tid << ",\"args\":{\"name\":\""
         << json_escape(lane->thread_name) << "\"}}";
    }
    for (const TraceEvent& e : lane->events) {
      os << (first ? "" : ",");
      first = false;
      os << "\n{\"name\":\"" << json_escape(e.name) << "\",\"cat\":\""
         << json_escape(e.category) << "\",\"ph\":\"X\",\"pid\":1,\"tid\":"
         << lane->tid;
      std::snprintf(buf, sizeof(buf), ",\"ts\":%.3f,\"dur\":%.3f", e.ts_us,
                    e.dur_us);
      os << buf;
      if (!e.args.empty()) os << ",\"args\":{" << e.args << "}";
      os << "}";
    }
  }
  os << "\n],\"displayTimeUnit\":\"ms\"}\n";
  return os.str();
}

bool TraceSession::write_chrome_json(const std::string& path) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::string json = chrome_json();
  const bool ok = std::fwrite(json.data(), 1, json.size(), f) == json.size();
  return std::fclose(f) == 0 && ok;
}

namespace {
struct SpanAggregate {
  const char* category = "";
  std::uint64_t count = 0;
  double total_us = 0.0;
  double min_us = 0.0;
  double max_us = 0.0;
};

std::map<std::string, SpanAggregate> aggregate_spans(
    const std::vector<std::vector<TraceEvent>>& per_lane) {
  std::map<std::string, SpanAggregate> agg;
  for (const auto& events : per_lane) {
    for (const TraceEvent& e : events) {
      SpanAggregate& a = agg[e.name];
      a.category = e.category;
      if (a.count == 0 || e.dur_us < a.min_us) a.min_us = e.dur_us;
      if (a.count == 0 || e.dur_us > a.max_us) a.max_us = e.dur_us;
      ++a.count;
      a.total_us += e.dur_us;
    }
  }
  return agg;
}
}  // namespace

std::string TraceSession::summary() const {
  std::vector<Lane*> lanes;
  {
    std::lock_guard<std::mutex> lk(impl_->mu);
    for (const auto& l : impl_->lanes) lanes.push_back(l.get());
  }
  std::vector<std::vector<TraceEvent>> per_lane;
  for (Lane* lane : lanes) {
    std::lock_guard<std::mutex> lk(lane->mu);
    per_lane.push_back(lane->events);
  }
  ConsoleTable table(
      {"span", "cat", "count", "total ms", "mean ms", "min ms", "max ms"});
  for (const auto& [name, a] : aggregate_spans(per_lane)) {
    table.cell(name).cell(a.category).cell(std::int64_t(a.count))
        .cell(a.total_us / 1e3, 3)
        .cell(a.total_us / 1e3 / static_cast<double>(a.count), 3)
        .cell(a.min_us / 1e3, 3).cell(a.max_us / 1e3, 3);
    table.end_row();
  }
  return table.str();
}

void TraceSession::flush() {
  std::string path;
  {
    std::lock_guard<std::mutex> lk(impl_->mu);
    if (impl_->flushed || impl_->output_path.empty()) return;
    impl_->flushed = true;
    path = impl_->output_path;
  }
  if (!write_chrome_json(path)) {
    std::fprintf(stderr, "telemetry: cannot write trace to %s\n",
                 path.c_str());
    return;
  }
  std::fprintf(stderr, "\ntelemetry: wrote %zu trace events to %s\n",
               event_count(), path.c_str());
  std::fputs(summary().c_str(), stderr);
}

// ---------------------------------------------------------------------------
// TraceSpan
// ---------------------------------------------------------------------------

TraceSpan::TraceSpan(const char* name, const char* category)
    : session_(&current_trace()),
      active_(session_->enabled()),
      name_(name),
      category_(category) {
  if (active_) start_us_ = session_->now_us();
}

TraceSpan::~TraceSpan() {
  if (!active_) return;
  const double end_us = session_->now_us();
  session_->record_complete(name_, category_, start_us_, end_us - start_us_,
                            std::move(args_));
}

void TraceSpan::arg(const char* key, double value) {
  if (!active_) return;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", value);
  if (!args_.empty()) args_ += ',';
  args_ += '"';
  args_ += json_escape(key);
  args_ += "\":";
  args_ += buf;
}

void TraceSpan::arg(const char* key, std::uint64_t value) {
  if (!active_) return;
  if (!args_.empty()) args_ += ',';
  args_ += '"';
  args_ += json_escape(key);
  args_ += "\":";
  args_ += std::to_string(value);
}

void TraceSpan::arg(const char* key, std::int64_t value) {
  if (!active_) return;
  if (!args_.empty()) args_ += ',';
  args_ += '"';
  args_ += json_escape(key);
  args_ += "\":";
  args_ += std::to_string(value);
}

void TraceSpan::arg(const char* key, const char* value) {
  if (!active_) return;
  if (!args_.empty()) args_ += ',';
  args_ += '"';
  args_ += json_escape(key);
  args_ += "\":\"";
  args_ += json_escape(value);
  args_ += '"';
}

}  // namespace bd::util::telemetry
