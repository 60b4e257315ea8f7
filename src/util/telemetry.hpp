#pragma once
/// \file telemetry.hpp
/// Observability: a metrics registry and a span tracer.
///
/// The paper's whole argument is quantitative — per-phase wall time,
/// forecast quality, cluster balance — so every subsystem reports into one
/// uniform substrate instead of ad-hoc timers:
///
///  * **MetricsRegistry** — named counters (monotonic u64), gauges
///    (last-written double) and histograms (fixed log-2 buckets). Updates
///    go to per-thread shards (one uncontended mutex each); a snapshot
///    merges the shards in a deterministic order, so integer aggregates are
///    bit-identical for any thread count (see docs/METRICS.md).
///
///  * **TraceSession** — nestable wall-clock spans (`BD_TRACE_SPAN("x")`)
///    recorded per thread and exported as (a) a per-name aggregate table /
///    CSV via util/table, and (b) Chrome `trace_events` JSON that
///    `chrome://tracing` and https://ui.perfetto.dev load directly,
///    including the thread-pool worker lanes of util/parallel.
///
/// Both are ordinary instantiable classes; `global()` returns the
/// process-wide default instance the free functions and the `BD_TRACE`
/// bootstrap use. Code that must keep several simulations'
/// telemetry apart (core/fleet) creates one registry/session per
/// simulation and routes the existing call sites to it with a
/// **TelemetryScope** — a thread-local RAII override picked up by the free
/// functions and by TraceSpan, and propagated to pool workers for the
/// duration of each parallel job (util/parallel). Every instance owns its
/// own shards, lanes, clock epoch and gauge write sequence, so concurrent
/// simulations can never interleave metrics — in particular the "last
/// write wins" gauge rule is resolved per registry, not process-wide.
///
/// Capture is off by default and costs one relaxed atomic load per
/// would-be span. Turn it on with the `BD_TRACE=out.json` environment
/// variable (every binary; the file and a summary are emitted at exit) or
/// the `--trace=out.json` flag that util/cli adds to every ArgParser
/// binary. Metrics are always on; they are a handful of shard updates per
/// solver step, not per-particle work.
///
/// Span and metric *names* are literal strings by convention — the CI
/// consistency check (tools/check_docs.sh) greps them out of the source
/// and requires each one to be documented in docs/METRICS.md.

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>

namespace bd::util::telemetry {

// ---------------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------------

/// Number of log-2 histogram buckets. Bucket 0 holds values < 1 (and any
/// non-finite ones); bucket b in [1, kHistogramBuckets-2] holds
/// [2^(b-1), 2^b); the last bucket holds everything at or above
/// 2^(kHistogramBuckets-2).
inline constexpr std::size_t kHistogramBuckets = 40;

/// Bucket index for a value (see kHistogramBuckets for the edges).
std::size_t histogram_bucket_index(double value);

/// Merged state of one histogram.
struct HistogramSnapshot {
  std::uint64_t count = 0;  ///< total recorded values
  double sum = 0.0;         ///< sum of recorded values
  double min = 0.0;         ///< smallest recorded value (0 if count == 0)
  double max = 0.0;         ///< largest recorded value (0 if count == 0)
  std::array<std::uint64_t, kHistogramBuckets> buckets{};

  double mean() const { return count ? sum / static_cast<double>(count) : 0.0; }
};

/// A deterministic merge of every per-thread shard at one point in time.
/// Maps are keyed by metric name (sorted), so iteration order — and the
/// rendered summaries — are reproducible.
struct MetricsSnapshot {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, HistogramSnapshot> histograms;
};

/// Metrics registry. All methods are thread-safe; updates touch only the
/// calling thread's shard of this instance (one uncontended mutex), so
/// concurrent writers never contend with each other. Instances are
/// independent: each owns its shards and its gauge write sequence.
class MetricsRegistry {
 public:
  MetricsRegistry();
  ~MetricsRegistry();
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// The process-wide default instance (never destroyed — safe from
  /// atexit hooks).
  static MetricsRegistry& global();

  /// Add `delta` to counter `name` (creates it at 0 on first use).
  void counter_add(std::string_view name, std::uint64_t delta = 1);

  /// Set gauge `name` to `value` (last write across all threads wins;
  /// "last" is defined by this registry's write sequence, so the merge is
  /// deterministic for a deterministic program order and independent
  /// registries never perturb each other's gauges).
  void gauge_set(std::string_view name, double value);

  /// Record `value` into histogram `name`.
  void histogram_record(std::string_view name, double value);

  /// Merge every shard (in shard-creation order) into one snapshot.
  MetricsSnapshot snapshot() const;

  /// Zero every metric in every shard (shards themselves persist).
  void reset();

  /// Aligned-text summary of all metrics, rendered with util::ConsoleTable.
  std::string summary() const;

 private:
  struct Shard;
  struct Impl;
  Shard& local_shard() const;

  std::unique_ptr<Impl> impl_;
};

/// Convenience free functions on the *current* registry — the innermost
/// TelemetryScope override on this thread, else the global instance (these
/// exact spellings are what tools/check_docs.sh greps for).
void counter_add(std::string_view name, std::uint64_t delta = 1);
void gauge_set(std::string_view name, double value);
void histogram_record(std::string_view name, double value);

// ---------------------------------------------------------------------------
// Tracing
// ---------------------------------------------------------------------------

/// One finished span, as stored per thread.
struct TraceEvent {
  std::string name;      ///< span name ("sim.deposit", "simt.launch", ...)
  const char* category;  ///< coarse grouping ("sim", "simt", "pool", ...)
  double ts_us;          ///< start, microseconds since session epoch
  double dur_us;         ///< duration in microseconds
  std::string args;      ///< pre-rendered JSON object body ("" = no args)
};

/// Span capture session. Disabled by default; when disabled, spans cost
/// one relaxed atomic load and record nothing. Instances are independent
/// (own lanes, own clock epoch); TraceSpan records into the innermost
/// TelemetryScope session on the current thread, else the global one.
class TraceSession {
 public:
  TraceSession();
  ~TraceSession();
  TraceSession(const TraceSession&) = delete;
  TraceSession& operator=(const TraceSession&) = delete;

  /// The process-wide default instance. First call also bootstraps from
  /// the BD_TRACE environment variable: if set (to an output path),
  /// capture starts immediately and an atexit hook writes the JSON file
  /// plus a per-name summary (to stderr) when the process ends.
  static TraceSession& global();

  /// Whether spans are being recorded.
  bool enabled() const;

  /// Start capturing (idempotent).
  void start();

  /// Stop capturing (already-recorded events are kept until clear()).
  void stop();

  /// Drop all recorded events (thread ids and names are kept).
  void clear();

  /// Where the atexit hook (or flush()) writes the chrome-trace JSON.
  void set_output_path(std::string path);

  /// Microseconds since the session epoch (process-wide monotonic clock).
  double now_us() const;

  /// Name the calling thread in the exported trace ("pool-worker-3", ...).
  void set_current_thread_name(std::string name);

  /// Record one complete span on the calling thread's lane. `args` must be
  /// empty or a JSON object body without the surrounding braces
  /// (`"k":1,"s":"v"`). Used by TraceSpan; callable directly for
  /// out-of-band events.
  void record_complete(std::string name, const char* category, double ts_us,
                       double dur_us, std::string args);

  /// All events of all threads in (thread, record) order.
  std::size_t event_count() const;

  /// Chrome `trace_events` JSON document (JSON Object Format: a
  /// {"traceEvents": [...], "displayTimeUnit": "ms"} object with "X"
  /// complete events and "M" thread_name metadata).
  std::string chrome_json() const;

  /// Write chrome_json() to `path`; returns false on I/O failure.
  bool write_chrome_json(const std::string& path) const;

  /// Per-span-name aggregate (count, total/mean/min/max ms) as an aligned
  /// text table via util::ConsoleTable.
  std::string summary() const;

  /// Write the JSON file (if an output path is set) and print the summary
  /// table to stderr. Called by the BD_TRACE atexit hook; idempotent.
  void flush();

 private:
  struct Lane;
  struct Impl;
  Lane& local_lane() const;

  std::unique_ptr<Impl> impl_;
};

// ---------------------------------------------------------------------------
// Scoped injection
// ---------------------------------------------------------------------------

/// Thread-local RAII override of the registry/session the free functions
/// and TraceSpan use. A null pointer keeps the previous target for that
/// slot (so a scope can redirect metrics without touching tracing).
/// Scopes nest; each destructor restores what it replaced. util/parallel
/// snapshots the submitting thread's scope into every pool job and
/// installs it on the participating workers, so a simulation whose
/// telemetry is scoped stays scoped across its own parallel loops.
class TelemetryScope {
 public:
  TelemetryScope(MetricsRegistry* metrics, TraceSession* trace);
  ~TelemetryScope();

  TelemetryScope(const TelemetryScope&) = delete;
  TelemetryScope& operator=(const TelemetryScope&) = delete;

 private:
  MetricsRegistry* prev_metrics_;
  TraceSession* prev_trace_;
};

/// The innermost scoped override on this thread (nullptr = none).
MetricsRegistry* scoped_metrics();
TraceSession* scoped_trace();

/// The registry/session the free functions and TraceSpan resolve to:
/// the scoped override when one is installed, else the global instance.
MetricsRegistry& current_metrics();
TraceSession& current_trace();

/// RAII span: records [construction, destruction) on the calling thread
/// when the current TraceSession (scoped else global) is enabled; a no-op
/// otherwise. The session is resolved once at construction. Name and
/// category must outlive the span (string literals in practice).
class TraceSpan {
 public:
  explicit TraceSpan(const char* name, const char* category = "bd");
  ~TraceSpan();

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  /// Attach an argument shown in the trace viewer's span details.
  void arg(const char* key, double value);
  void arg(const char* key, std::uint64_t value);
  void arg(const char* key, std::int64_t value);
  void arg(const char* key, const char* value);

 private:
  TraceSession* session_;  ///< resolved at construction (scoped else global)
  bool active_;
  double start_us_ = 0.0;
  const char* name_;
  const char* category_;
  std::string args_;
};

}  // namespace bd::util::telemetry

/// Shorthand for a scoped span with a unique local name.
#define BD_TRACE_SPAN_CONCAT2(a, b) a##b
#define BD_TRACE_SPAN_CONCAT(a, b) BD_TRACE_SPAN_CONCAT2(a, b)
#define BD_TRACE_SPAN(...)                                   \
  ::bd::util::telemetry::TraceSpan BD_TRACE_SPAN_CONCAT(     \
      bd_trace_span_, __LINE__)(__VA_ARGS__)
