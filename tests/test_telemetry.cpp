/// Tests for util/telemetry: histogram bucket edges, deterministic shard
/// merging, span nesting, and well-formed chrome trace_events JSON.

#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "util/parallel.hpp"
#include "util/telemetry.hpp"

namespace bd::util::telemetry {
namespace {

// ---------------------------------------------------------------------------
// A minimal JSON parser — just enough to validate and walk the trace export.
// ---------------------------------------------------------------------------

struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject } kind =
      Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string str;
  std::vector<JsonValue> array;
  std::map<std::string, JsonValue> object;

  const JsonValue& at(const std::string& key) const {
    auto it = object.find(key);
    if (it == object.end()) {
      static const JsonValue null;
      return null;
    }
    return it->second;
  }
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  bool parse(JsonValue& out) {
    skip_ws();
    if (!parse_value(out)) return false;
    skip_ws();
    return pos_ == text_.size();  // no trailing garbage
  }

 private:
  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool consume(char c) {
    skip_ws();
    if (pos_ >= text_.size() || text_[pos_] != c) return false;
    ++pos_;
    return true;
  }

  bool parse_value(JsonValue& out) {
    skip_ws();
    if (pos_ >= text_.size()) return false;
    const char c = text_[pos_];
    if (c == '{') return parse_object(out);
    if (c == '[') return parse_array(out);
    if (c == '"') {
      out.kind = JsonValue::Kind::kString;
      return parse_string(out.str);
    }
    if (c == 't' || c == 'f') return parse_literal(out);
    if (c == 'n') return parse_literal(out);
    return parse_number(out);
  }

  bool parse_object(JsonValue& out) {
    out.kind = JsonValue::Kind::kObject;
    if (!consume('{')) return false;
    skip_ws();
    if (consume('}')) return true;
    while (true) {
      std::string key;
      if (!parse_string(key)) return false;
      if (!consume(':')) return false;
      JsonValue value;
      if (!parse_value(value)) return false;
      out.object.emplace(std::move(key), std::move(value));
      if (consume(',')) continue;
      return consume('}');
    }
  }

  bool parse_array(JsonValue& out) {
    out.kind = JsonValue::Kind::kArray;
    if (!consume('[')) return false;
    skip_ws();
    if (consume(']')) return true;
    while (true) {
      JsonValue value;
      if (!parse_value(value)) return false;
      out.array.push_back(std::move(value));
      if (consume(',')) continue;
      return consume(']');
    }
  }

  bool parse_string(std::string& out) {
    skip_ws();
    if (pos_ >= text_.size() || text_[pos_] != '"') return false;
    ++pos_;
    out.clear();
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return true;
      if (c == '\\') {
        if (pos_ >= text_.size()) return false;
        const char esc = text_[pos_++];
        switch (esc) {
          case '"': out.push_back('"'); break;
          case '\\': out.push_back('\\'); break;
          case '/': out.push_back('/'); break;
          case 'b': out.push_back('\b'); break;
          case 'f': out.push_back('\f'); break;
          case 'n': out.push_back('\n'); break;
          case 'r': out.push_back('\r'); break;
          case 't': out.push_back('\t'); break;
          case 'u': {
            if (pos_ + 4 > text_.size()) return false;
            pos_ += 4;  // keep the validator simple: skip the code point
            out.push_back('?');
            break;
          }
          default: return false;
        }
      } else {
        out.push_back(c);
      }
    }
    return false;  // unterminated
  }

  bool parse_number(JsonValue& out) {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) return false;
    out.kind = JsonValue::Kind::kNumber;
    out.number = std::stod(text_.substr(start, pos_ - start));
    return true;
  }

  bool parse_literal(JsonValue& out) {
    auto match = [&](const char* lit) {
      const std::size_t n = std::string(lit).size();
      if (text_.compare(pos_, n, lit) != 0) return false;
      pos_ += n;
      return true;
    };
    if (match("true")) {
      out.kind = JsonValue::Kind::kBool;
      out.boolean = true;
      return true;
    }
    if (match("false")) {
      out.kind = JsonValue::Kind::kBool;
      out.boolean = false;
      return true;
    }
    if (match("null")) {
      out.kind = JsonValue::Kind::kNull;
      return true;
    }
    return false;
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

// ---------------------------------------------------------------------------
// Histogram buckets
// ---------------------------------------------------------------------------

TEST(HistogramBuckets, EdgesFollowLog2Rule) {
  // Bucket 0: everything below 1 (and non-finite values).
  EXPECT_EQ(histogram_bucket_index(0.0), 0u);
  EXPECT_EQ(histogram_bucket_index(0.5), 0u);
  EXPECT_EQ(histogram_bucket_index(0.999), 0u);
  EXPECT_EQ(histogram_bucket_index(-5.0), 0u);
  EXPECT_EQ(histogram_bucket_index(std::numeric_limits<double>::quiet_NaN()),
            0u);

  // Bucket b holds [2^(b-1), 2^b).
  EXPECT_EQ(histogram_bucket_index(1.0), 1u);
  EXPECT_EQ(histogram_bucket_index(1.999), 1u);
  EXPECT_EQ(histogram_bucket_index(2.0), 2u);
  EXPECT_EQ(histogram_bucket_index(3.999), 2u);
  EXPECT_EQ(histogram_bucket_index(4.0), 3u);
  EXPECT_EQ(histogram_bucket_index(1024.0), 11u);
  EXPECT_EQ(histogram_bucket_index(1048576.0), 21u);

  // Everything huge (but finite) saturates into the last bucket;
  // non-finite values join bucket 0 with the other outliers.
  EXPECT_EQ(histogram_bucket_index(1e300), kHistogramBuckets - 1);
  EXPECT_EQ(histogram_bucket_index(std::numeric_limits<double>::infinity()),
            0u);
}

TEST(HistogramBuckets, LowerBoundsRoundTrip) {
  // Bucket b >= 1 holds [2^(b-1), 2^b): its inclusive lower bound is
  // 2^(b-1).
  for (std::size_t b = 1; b + 1 < kHistogramBuckets; ++b) {
    const double lo = std::ldexp(1.0, static_cast<int>(b) - 1);
    EXPECT_EQ(histogram_bucket_index(lo), b) << "bucket " << b;
    // Just below the lower bound must land one bucket earlier.
    EXPECT_EQ(histogram_bucket_index(std::nextafter(lo, 0.0)), b - 1)
        << "bucket " << b;
  }
}

// ---------------------------------------------------------------------------
// MetricsRegistry
// ---------------------------------------------------------------------------

TEST(MetricsRegistry, CounterGaugeHistogramBasics) {
  MetricsRegistry& reg = MetricsRegistry::global();
  reg.reset();

  counter_add("t.basic.counter");
  counter_add("t.basic.counter", 41);
  gauge_set("t.basic.gauge", 3.5);
  gauge_set("t.basic.gauge", -1.25);  // last write wins
  histogram_record("t.basic.hist", 2.0);
  histogram_record("t.basic.hist", 6.0);
  histogram_record("t.basic.hist", 0.25);

  const MetricsSnapshot snap = reg.snapshot();
  EXPECT_EQ(snap.counters.at("t.basic.counter"), 42u);
  EXPECT_EQ(snap.gauges.at("t.basic.gauge"), -1.25);

  const HistogramSnapshot& h = snap.histograms.at("t.basic.hist");
  EXPECT_EQ(h.count, 3u);
  EXPECT_EQ(h.sum, 8.25);
  EXPECT_EQ(h.min, 0.25);
  EXPECT_EQ(h.max, 6.0);
  EXPECT_EQ(h.mean(), 8.25 / 3.0);
  EXPECT_EQ(h.buckets[0], 1u);  // 0.25
  EXPECT_EQ(h.buckets[2], 1u);  // 2.0
  EXPECT_EQ(h.buckets[3], 1u);  // 6.0

  reg.reset();
  const MetricsSnapshot zeroed = reg.snapshot();
  EXPECT_EQ(zeroed.counters.count("t.basic.counter"), 0u);
  EXPECT_EQ(zeroed.gauges.count("t.basic.gauge"), 0u);
  EXPECT_EQ(zeroed.histograms.count("t.basic.hist"), 0u);
}

TEST(MetricsRegistry, ShardMergeIsDeterministicAcrossThreadCounts) {
  MetricsRegistry& reg = MetricsRegistry::global();

  auto run = [&](unsigned threads) {
    ThreadPool::set_global_threads(threads);
    reg.reset();
    parallel_for(0, 20000, [&](std::size_t i) {
      counter_add("t.merge.items");
      counter_add("t.merge.weight", i % 7);
      // Small integers: double sums are exact, so even the floating-point
      // aggregates must match bit-for-bit across thread counts.
      histogram_record("t.merge.hist", static_cast<double>(i % 257));
    });
    MetricsSnapshot snap = reg.snapshot();
    ThreadPool::set_global_threads(0);  // restore the configured default
    return snap;
  };

  const MetricsSnapshot serial = run(1);
  const MetricsSnapshot parallel = run(8);

  EXPECT_EQ(serial.counters.at("t.merge.items"), 20000u);
  EXPECT_EQ(parallel.counters.at("t.merge.items"), 20000u);
  EXPECT_EQ(serial.counters.at("t.merge.weight"),
            parallel.counters.at("t.merge.weight"));

  const HistogramSnapshot& hs = serial.histograms.at("t.merge.hist");
  const HistogramSnapshot& hp = parallel.histograms.at("t.merge.hist");
  EXPECT_EQ(hs.count, hp.count);
  EXPECT_EQ(hs.sum, hp.sum);
  EXPECT_EQ(hs.min, hp.min);
  EXPECT_EQ(hs.max, hp.max);
  EXPECT_EQ(hs.buckets, hp.buckets);
  reg.reset();
}

TEST(MetricsRegistry, SummariesRenderEveryMetric) {
  MetricsRegistry& reg = MetricsRegistry::global();
  reg.reset();
  counter_add("t.render.counter", 7);
  gauge_set("t.render.gauge", 1.5);
  histogram_record("t.render.hist", 3.0);

  const std::string text = reg.summary();
  for (const char* name :
       {"t.render.counter", "t.render.gauge", "t.render.hist"}) {
    EXPECT_NE(text.find(name), std::string::npos) << name;
  }
  reg.reset();
}

// ---------------------------------------------------------------------------
// TraceSession / TraceSpan
// ---------------------------------------------------------------------------

TEST(TraceSession, DisabledSpansRecordNothing) {
  TraceSession& session = TraceSession::global();
  session.stop();
  session.clear();
  {
    TraceSpan span("t.disabled", "test");
    span.arg("k", 1.0);  // must be a harmless no-op
  }
  EXPECT_EQ(session.event_count(), 0u);
}

TEST(TraceSession, SpansNestAndExportWellFormedChromeJson) {
  TraceSession& session = TraceSession::global();
  session.clear();
  session.start();
  {
    TraceSpan outer("t.outer", "test");
    outer.arg("step", static_cast<std::int64_t>(3));
    {
      TraceSpan inner("t.inner", "test");
      inner.arg("what", "needs \"escaping\"\n");
      volatile double sink = 0.0;
      for (int i = 0; i < 1000; ++i) sink = sink + 1.0;
    }
  }
  session.record_complete("t.oob", "test", session.now_us(), 1.0, "\"n\":1");
  session.stop();
  EXPECT_EQ(session.event_count(), 3u);

  const std::string json = session.chrome_json();
  JsonValue doc;
  ASSERT_TRUE(JsonParser(json).parse(doc)) << json;
  ASSERT_EQ(doc.kind, JsonValue::Kind::kObject);
  EXPECT_EQ(doc.at("displayTimeUnit").str, "ms");

  const JsonValue& events = doc.at("traceEvents");
  ASSERT_EQ(events.kind, JsonValue::Kind::kArray);

  const JsonValue* outer = nullptr;
  const JsonValue* inner = nullptr;
  const JsonValue* oob = nullptr;
  for (const JsonValue& e : events.array) {
    if (e.at("ph").str != "X") continue;
    EXPECT_EQ(e.at("pid").number, 1.0);
    EXPECT_GT(e.at("tid").number, 0.0);
    EXPECT_GE(e.at("dur").number, 0.0);
    if (e.at("name").str == "t.outer") outer = &e;
    if (e.at("name").str == "t.inner") inner = &e;
    if (e.at("name").str == "t.oob") oob = &e;
  }
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(inner, nullptr);
  ASSERT_NE(oob, nullptr);

  // Same thread; the inner span nests strictly inside the outer one.
  EXPECT_EQ(outer->at("tid").number, inner->at("tid").number);
  const double outer_end = outer->at("ts").number + outer->at("dur").number;
  const double inner_end = inner->at("ts").number + inner->at("dur").number;
  EXPECT_GE(inner->at("ts").number, outer->at("ts").number);
  EXPECT_LE(inner_end, outer_end);

  // Args survive the round trip, including string escaping.
  EXPECT_EQ(outer->at("args").at("step").number, 3.0);
  EXPECT_EQ(inner->at("args").at("what").str, "needs \"escaping\"\n");
  EXPECT_EQ(oob->at("args").at("n").number, 1.0);

  session.clear();
}

TEST(TraceSession, WorkerLanesAreNamedInMetadata) {
  TraceSession& session = TraceSession::global();
  session.clear();
  session.start();
  {
    ThreadPool pool(3);
    pool.for_chunks(0, 3000, 1, [&](std::size_t, std::size_t) {
      volatile double sink = 0.0;
      for (int i = 0; i < 200; ++i) sink = sink + 1.0;
    });
    // Leave the scope so the pool joins its workers: each one names its
    // lane at startup, which may not have been scheduled yet on a busy
    // single-core host.
  }
  session.stop();

  const std::string json = session.chrome_json();
  JsonValue doc;
  ASSERT_TRUE(JsonParser(json).parse(doc));
  bool saw_worker_name = false;
  for (const JsonValue& e : doc.at("traceEvents").array) {
    if (e.at("ph").str != "M") continue;
    EXPECT_EQ(e.at("name").str, "thread_name");
    if (e.at("args").at("name").str.rfind("pool-worker-", 0) == 0) {
      saw_worker_name = true;
    }
  }
  EXPECT_TRUE(saw_worker_name);
  session.clear();
}

TEST(TraceSession, SummaryAggregatesPerName) {
  TraceSession& session = TraceSession::global();
  session.clear();
  session.start();
  for (int i = 0; i < 3; ++i) {
    TraceSpan span("t.repeat", "test");
  }
  session.stop();

  const std::string text = session.summary();
  EXPECT_NE(text.find("t.repeat"), std::string::npos);
  session.clear();
}

// ---------------------------------------------------------------------------
// Instance independence + TelemetryScope
// ---------------------------------------------------------------------------

TEST(MetricsRegistry, InstancesAreIndependent) {
  MetricsRegistry a;
  MetricsRegistry b;
  a.counter_add("t.inst.counter", 2);
  b.counter_add("t.inst.counter", 40);
  // The "last write wins" gauge rule resolves per registry: b writing
  // later (process-wide) must not override a's own last write.
  a.gauge_set("t.inst.gauge", 1.0);
  b.gauge_set("t.inst.gauge", 99.0);
  a.gauge_set("t.inst.gauge", 2.0);
  b.gauge_set("t.inst.gauge", 98.0);

  const MetricsSnapshot sa = a.snapshot();
  const MetricsSnapshot sb = b.snapshot();
  EXPECT_EQ(sa.counters.at("t.inst.counter"), 2u);
  EXPECT_EQ(sb.counters.at("t.inst.counter"), 40u);
  EXPECT_EQ(sa.gauges.at("t.inst.gauge"), 2.0);
  EXPECT_EQ(sb.gauges.at("t.inst.gauge"), 98.0);

  a.reset();
  EXPECT_EQ(a.snapshot().counters.count("t.inst.counter"), 0u);
  EXPECT_EQ(b.snapshot().counters.at("t.inst.counter"), 40u);
}

TEST(TelemetryScope, RoutesFreeFunctionsAndRestores) {
  MetricsRegistry local;
  MetricsRegistry& global = MetricsRegistry::global();
  global.reset();
  counter_add("t.scope.out");
  {
    TelemetryScope scope(&local, nullptr);
    EXPECT_EQ(scoped_metrics(), &local);
    EXPECT_EQ(&current_metrics(), &local);
    counter_add("t.scope.in", 3);
  }
  EXPECT_EQ(scoped_metrics(), nullptr);
  EXPECT_EQ(&current_metrics(), &global);
  counter_add("t.scope.out");

  const MetricsSnapshot inner = local.snapshot();
  const MetricsSnapshot outer = global.snapshot();
  EXPECT_EQ(inner.counters.at("t.scope.in"), 3u);
  EXPECT_EQ(inner.counters.count("t.scope.out"), 0u);
  EXPECT_EQ(outer.counters.at("t.scope.out"), 2u);
  EXPECT_EQ(outer.counters.count("t.scope.in"), 0u);
  global.reset();
}

TEST(TelemetryScope, ScopesNestAndNullKeepsPreviousTarget) {
  MetricsRegistry a;
  MetricsRegistry b;
  {
    TelemetryScope sa(&a, nullptr);
    {
      TelemetryScope keep(nullptr, nullptr);  // null = keep routing to a
      counter_add("t.nest.x");
      {
        TelemetryScope sb(&b, nullptr);
        counter_add("t.nest.y");
      }
      counter_add("t.nest.x");
    }
  }
  EXPECT_EQ(a.snapshot().counters.at("t.nest.x"), 2u);
  EXPECT_EQ(a.snapshot().counters.count("t.nest.y"), 0u);
  EXPECT_EQ(b.snapshot().counters.at("t.nest.y"), 1u);
}

TEST(TelemetryScope, PropagatesToPoolWorkers) {
  MetricsRegistry local;
  MetricsRegistry& global = MetricsRegistry::global();
  global.reset();
  ThreadPool::set_global_threads(4);
  {
    TelemetryScope scope(&local, nullptr);
    parallel_for(0, 20000,
                 [](std::size_t) { counter_add("t.scope.pool"); });
  }
  ThreadPool::set_global_threads(0);
  // Every worker update landed in the scoped registry, none in the global
  // one — the pool snapshots the submitting thread's scope into the job.
  EXPECT_EQ(local.snapshot().counters.at("t.scope.pool"), 20000u);
  EXPECT_EQ(global.snapshot().counters.count("t.scope.pool"), 0u);
  global.reset();
}

TEST(TraceSession, InstancesRecordIndependently) {
  TraceSession a;
  TraceSession b;
  a.start();
  b.start();
  {
    TelemetryScope scope(nullptr, &a);
    TraceSpan span("t.inst.a", "test");
  }
  {
    TelemetryScope scope(nullptr, &b);
    TraceSpan span("t.inst.b", "test");
  }
  a.stop();
  b.stop();
  EXPECT_EQ(a.event_count(), 1u);
  EXPECT_EQ(b.event_count(), 1u);
  EXPECT_NE(a.chrome_json().find("t.inst.a"), std::string::npos);
  EXPECT_EQ(a.chrome_json().find("t.inst.b"), std::string::npos);
  EXPECT_NE(b.chrome_json().find("t.inst.b"), std::string::npos);
}

TEST(TraceSession, SpanResolvesSessionAtConstruction) {
  // A span constructed inside a scope must record into that session even
  // if the scope ends before the span does.
  TraceSession local;
  local.start();
  std::unique_ptr<TraceSpan> span;
  {
    TelemetryScope scope(nullptr, &local);
    span = std::make_unique<TraceSpan>("t.resolve", "test");
  }
  span.reset();  // destroyed outside the scope
  local.stop();
  EXPECT_EQ(local.event_count(), 1u);
}

TEST(TraceSession, WriteChromeJsonProducesAFile) {
  TraceSession& session = TraceSession::global();
  session.clear();
  session.start();
  { TraceSpan span("t.file", "test"); }
  session.stop();

  const std::string path = ::testing::TempDir() + "bd_trace_test.json";
  ASSERT_TRUE(session.write_chrome_json(path));

  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::string contents;
  char buf[4096];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) contents.append(buf, n);
  std::fclose(f);
  std::remove(path.c_str());

  JsonValue doc;
  EXPECT_TRUE(JsonParser(contents).parse(doc));
  session.clear();
}

}  // namespace
}  // namespace bd::util::telemetry
