// Tests for the trace/telemetry subsystem (utils/trace.*): scope nesting
// and ordering, counter arithmetic, chrome-JSON well-formedness (parsed
// back by a minimal JSON reader), the `off` level recording nothing, the
// per-kernel GEMM FLOP counters matching the analytic 2*m*k*n counts, and
// a concurrent scopes+counters hammer that the tsan build re-runs.

#include <cctype>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "tensor/gemm.h"
#include "utils/parallel.h"
#include "utils/trace.h"

namespace pmmrec {
namespace {

std::string ReadFile(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr) << path;
  if (f == nullptr) return "";
  std::string out;
  char buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) out.append(buf, n);
  std::fclose(f);
  return out;
}

// --- Minimal JSON reader (validation only) -----------------------------------
// Recursive-descent pass over the full grammar; returns false on any
// syntax error. Enough to prove the exporters emit well-formed JSON that
// a real consumer (Perfetto) can load.

struct JsonReader {
  const std::string& s;
  size_t pos = 0;

  void SkipWs() {
    while (pos < s.size() && (s[pos] == ' ' || s[pos] == '\n' ||
                              s[pos] == '\t' || s[pos] == '\r')) {
      ++pos;
    }
  }
  bool Literal(const char* lit) {
    const size_t len = std::string(lit).size();
    if (s.compare(pos, len, lit) != 0) return false;
    pos += len;
    return true;
  }
  bool String() {
    if (pos >= s.size() || s[pos] != '"') return false;
    ++pos;
    while (pos < s.size() && s[pos] != '"') {
      if (s[pos] == '\\') {
        ++pos;
        if (pos >= s.size()) return false;
      }
      ++pos;
    }
    if (pos >= s.size()) return false;
    ++pos;  // Closing quote.
    return true;
  }
  bool Number() {
    const size_t start = pos;
    if (pos < s.size() && (s[pos] == '-' || s[pos] == '+')) ++pos;
    bool digits = false;
    while (pos < s.size() && (std::isdigit(s[pos]) || s[pos] == '.' ||
                              s[pos] == 'e' || s[pos] == 'E' ||
                              s[pos] == '-' || s[pos] == '+')) {
      digits = digits || std::isdigit(s[pos]);
      ++pos;
    }
    return digits && pos > start;
  }
  bool Value() {
    SkipWs();
    if (pos >= s.size()) return false;
    switch (s[pos]) {
      case '{': return Object();
      case '[': return Array();
      case '"': return String();
      case 't': return Literal("true");
      case 'f': return Literal("false");
      case 'n': return Literal("null");
      default: return Number();
    }
  }
  bool Object() {
    if (s[pos] != '{') return false;
    ++pos;
    SkipWs();
    if (pos < s.size() && s[pos] == '}') { ++pos; return true; }
    for (;;) {
      SkipWs();
      if (!String()) return false;
      SkipWs();
      if (pos >= s.size() || s[pos] != ':') return false;
      ++pos;
      if (!Value()) return false;
      SkipWs();
      if (pos < s.size() && s[pos] == ',') { ++pos; continue; }
      break;
    }
    SkipWs();
    if (pos >= s.size() || s[pos] != '}') return false;
    ++pos;
    return true;
  }
  bool Array() {
    if (s[pos] != '[') return false;
    ++pos;
    SkipWs();
    if (pos < s.size() && s[pos] == ']') { ++pos; return true; }
    for (;;) {
      if (!Value()) return false;
      SkipWs();
      if (pos < s.size() && s[pos] == ',') { ++pos; continue; }
      break;
    }
    SkipWs();
    if (pos >= s.size() || s[pos] != ']') return false;
    ++pos;
    return true;
  }
  bool Document() {
    if (!Value()) return false;
    SkipWs();
    return pos == s.size();
  }
};

bool IsValidJson(const std::string& text) {
  JsonReader reader{text};
  return reader.Document();
}

TEST(JsonReaderTest, SelfCheck) {
  EXPECT_TRUE(IsValidJson("{\"a\": [1, 2.5, -3e4], \"b\": \"x\\\"y\"}"));
  EXPECT_TRUE(IsValidJson("[]"));
  EXPECT_FALSE(IsValidJson("{\"a\": }"));
  EXPECT_FALSE(IsValidJson("{\"a\": 1"));
  EXPECT_FALSE(IsValidJson("{\"a\": 1} extra"));
}

// --- Levels ------------------------------------------------------------------

TEST(TraceLevelTest, GuardRestoresAndEnabledIsOrdered) {
  const trace::Level before = trace::GetLevel();
  {
    trace::LevelGuard guard(trace::Level::kEpoch);
    EXPECT_EQ(trace::GetLevel(), trace::Level::kEpoch);
    EXPECT_TRUE(trace::Enabled(trace::Level::kEpoch));
    EXPECT_FALSE(trace::Enabled(trace::Level::kOp));
  }
  EXPECT_EQ(trace::GetLevel(), before);
}

// --- Scopes ------------------------------------------------------------------

TEST(TraceScopeTest, NestedScopesRecordContainedOrderedEvents) {
  trace::LevelGuard guard(trace::Level::kOp);
  trace::ResetForTest();
  {
    PMM_TRACE_SCOPE("outer");
    {
      PMM_TRACE_SCOPE("inner");
    }
  }
  const std::vector<trace::Event> events = trace::SnapshotEvents();
  ASSERT_EQ(events.size(), 2u);
  // Chronological by start time: outer opened first.
  EXPECT_STREQ(events[0].name, "outer");
  EXPECT_STREQ(events[1].name, "inner");
  EXPECT_LE(events[0].start_ns, events[1].start_ns);
  // Containment: inner closed before outer.
  EXPECT_GE(events[0].start_ns + events[0].dur_ns,
            events[1].start_ns + events[1].dur_ns);
  // Both on the recording (this) thread.
  EXPECT_EQ(events[0].tid, events[1].tid);
  EXPECT_EQ(trace::DroppedEvents(), 0u);
}

TEST(TraceScopeTest, EpochScopeRecordsAtEpochLevelOnly) {
  trace::LevelGuard guard(trace::Level::kEpoch);
  trace::ResetForTest();
  {
    PMM_TRACE_SCOPE("op_only");  // op level: suppressed at epoch.
    PMM_TRACE_SCOPE_AT("epoch_scope", kEpoch, nullptr);
  }
  const std::vector<trace::Event> events = trace::SnapshotEvents();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_STREQ(events[0].name, "epoch_scope");
}

TEST(TraceScopeTest, DurationCounterAccumulatesNs) {
  trace::LevelGuard guard(trace::Level::kEpoch);
  trace::ResetForTest();
  {
    PMM_TRACE_SCOPE_AT("timed", kEpoch, "trace_test.timed.ns");
  }
  {
    PMM_TRACE_SCOPE_AT("timed", kEpoch, "trace_test.timed.ns");
  }
  const std::vector<trace::Event> events = trace::SnapshotEvents();
  ASSERT_EQ(events.size(), 2u);
  const uint64_t total = events[0].dur_ns + events[1].dur_ns;
  EXPECT_EQ(trace::Counter::Get("trace_test.timed.ns").value(), total);
}

// --- Counters ----------------------------------------------------------------

TEST(TraceCounterTest, AddAndSnapshotArithmetic) {
  trace::LevelGuard guard(trace::Level::kEpoch);
  trace::ResetForTest();
  trace::Counter& counter = trace::Counter::Get("trace_test.arith");
  EXPECT_EQ(counter.value(), 0u);
  counter.Add(3);
  counter.Add(39);
  EXPECT_EQ(counter.value(), 42u);
  // Get interns: same object for the same name.
  EXPECT_EQ(&trace::Counter::Get("trace_test.arith"), &counter);

  PMM_TRACE_COUNT("trace_test.arith", 8);
  EXPECT_EQ(counter.value(), 50u);

  bool found = false;
  for (const auto& [name, value] : trace::CounterSnapshot()) {
    if (name == "trace_test.arith") {
      found = true;
      EXPECT_EQ(value, 50u);
    }
  }
  EXPECT_TRUE(found);

  trace::ResetCounters();
  EXPECT_EQ(counter.value(), 0u);
}

TEST(TraceCounterTest, SnapshotIsSortedByName) {
  trace::LevelGuard guard(trace::Level::kEpoch);
  trace::Counter::Get("trace_test.zz").Add(1);
  trace::Counter::Get("trace_test.aa").Add(1);
  const auto snapshot = trace::CounterSnapshot();
  for (size_t i = 1; i < snapshot.size(); ++i) {
    EXPECT_LT(snapshot[i - 1].first, snapshot[i].first);
  }
}

// --- Off level ---------------------------------------------------------------

TEST(TraceOffTest, OffLevelRecordsNoEventsAndMovesNoCounters) {
  trace::LevelGuard guard(trace::Level::kOff);
  trace::ResetForTest();
  const uint64_t before = trace::Counter::Get("trace_test.off").value();
  for (int i = 0; i < 100; ++i) {
    PMM_TRACE_SCOPE("off_scope");
    PMM_TRACE_SCOPE_AT("off_epoch", kEpoch, "trace_test.off.ns");
    PMM_TRACE_COUNT("trace_test.off", 1);
  }
  EXPECT_EQ(trace::NumBufferedEvents(), 0);
  EXPECT_EQ(trace::Counter::Get("trace_test.off").value(), before);
  EXPECT_EQ(trace::Counter::Get("trace_test.off.ns").value(), 0u);
  EXPECT_EQ(trace::SummaryTable(), "");
}

// --- GEMM FLOP counters ------------------------------------------------------

TEST(TraceGemmTest, FlopCountersMatchAnalytic2MKN) {
  trace::LevelGuard guard(trace::Level::kEpoch);
  trace::ResetForTest();
  // One small-path shape and one blocked-path shape; the dispatch-level
  // counters must report the analytic count either way.
  const struct { int64_t m, k, n; } shapes[] = {{7, 9, 11}, {129, 65, 130}};
  uint64_t expected_flops = 0;
  uint64_t expected_calls = 0;
  for (const auto& s : shapes) {
    std::vector<float> a(static_cast<size_t>(s.m * s.k), 1.0f);
    std::vector<float> b(static_cast<size_t>(s.k * s.n), 1.0f);
    std::vector<float> c(static_cast<size_t>(s.m * s.n), 0.0f);
    gemm::GemmNN(a.data(), b.data(), c.data(), s.m, s.k, s.n, s.k, s.n, s.n);
    // B reinterpreted as [n, k] for NT; same element count.
    gemm::GemmNT(a.data(), b.data(), c.data(), s.m, s.k, s.n, s.k, s.k, s.n);
    // A reinterpreted as [k, m] for TN.
    gemm::GemmTN(a.data(), b.data(), c.data(), s.m, s.k, s.n, s.m, s.n, s.n);
    expected_flops += static_cast<uint64_t>(2 * s.m * s.k * s.n);
    expected_calls += 1;
  }
  EXPECT_EQ(trace::Counter::Get("gemm.nn.flops").value(), expected_flops);
  EXPECT_EQ(trace::Counter::Get("gemm.nt.flops").value(), expected_flops);
  EXPECT_EQ(trace::Counter::Get("gemm.tn.flops").value(), expected_flops);
  EXPECT_EQ(trace::Counter::Get("gemm.nn.calls").value(), expected_calls);
  EXPECT_EQ(trace::Counter::Get("gemm.nt.calls").value(), expected_calls);
  EXPECT_EQ(trace::Counter::Get("gemm.tn.calls").value(), expected_calls);
  // Every call took exactly one dispatch path.
  const uint64_t dispatched =
      trace::Counter::Get("gemm.dispatch.small").value() +
      trace::Counter::Get("gemm.dispatch.blocked").value() +
      trace::Counter::Get("gemm.dispatch.reference").value();
  EXPECT_EQ(dispatched, 3 * expected_calls);
}

// --- Export ------------------------------------------------------------------

TEST(TraceExportTest, ChromeTraceAndTelemetryAreWellFormedJson) {
  trace::LevelGuard guard(trace::Level::kOp);
  trace::ResetForTest();
  {
    PMM_TRACE_SCOPE("export \"quoted\" name");  // Exercises escaping.
    PMM_TRACE_SCOPE("export_inner");
    PMM_TRACE_COUNT("trace_test.export", 5);
  }
  trace::RecordEpochRow("epoch0", {{"loss", 1.25}, {"hr10", 0.5}});

  const std::string dir = ::testing::TempDir();
  const std::string chrome_path = dir + "/pmmrec_trace_test.json";
  ASSERT_TRUE(trace::WriteChromeTrace(chrome_path).ok());
  const std::string chrome = ReadFile(chrome_path);
  EXPECT_TRUE(IsValidJson(chrome)) << chrome;
  EXPECT_NE(chrome.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(chrome.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(chrome.find("\"ph\":\"C\""), std::string::npos);
  EXPECT_NE(chrome.find("export_inner"), std::string::npos);

  const std::string telemetry_path = trace::TelemetryPathFor(chrome_path);
  EXPECT_EQ(telemetry_path, dir + "/pmmrec_trace_test.telemetry.json");
  ASSERT_TRUE(trace::WriteTelemetry(telemetry_path).ok());
  const std::string telemetry = ReadFile(telemetry_path);
  EXPECT_TRUE(IsValidJson(telemetry)) << telemetry;
  EXPECT_NE(telemetry.find("\"counters\""), std::string::npos);
  EXPECT_NE(telemetry.find("\"trace_test.export\": 5"), std::string::npos);
  EXPECT_NE(telemetry.find("\"epochs\""), std::string::npos);
  EXPECT_NE(telemetry.find("\"label\": \"epoch0\""), std::string::npos);

  std::remove(chrome_path.c_str());
  std::remove(telemetry_path.c_str());
}

TEST(TraceExportTest, TelemetryPathDerivation) {
  EXPECT_EQ(trace::TelemetryPathFor("trace.json"), "trace.telemetry.json");
  EXPECT_EQ(trace::TelemetryPathFor("out/t.json"), "out/t.telemetry.json");
  EXPECT_EQ(trace::TelemetryPathFor("trace"), "trace.telemetry.json");
}

TEST(TraceExportTest, SummaryTableListsScopesAndCounters) {
  trace::LevelGuard guard(trace::Level::kOp);
  trace::ResetForTest();
  {
    PMM_TRACE_SCOPE("summary_scope");
    PMM_TRACE_COUNT("trace_test.summary", 7);
  }
  const std::string summary = trace::SummaryTable();
  EXPECT_NE(summary.find("summary_scope"), std::string::npos);
  EXPECT_NE(summary.find("trace_test.summary"), std::string::npos);
  EXPECT_NE(summary.find("7"), std::string::npos);
}

// --- Histograms --------------------------------------------------------------

TEST(TraceHistogramTest, BucketGridIsExactBelowKSubAndMonotoneAbove) {
  // Values below kSub each get their own exact bucket.
  for (uint64_t v = 0; v < trace::Histogram::kSub; ++v) {
    const int idx = trace::Histogram::BucketIndex(v);
    EXPECT_EQ(idx, static_cast<int>(v));
    EXPECT_EQ(trace::Histogram::BucketUpperBound(idx), v);
  }
  // Above that: every value lands in a bucket whose upper bound covers it,
  // indices are monotone in the value, and the relative bucket width stays
  // within the documented 1/kSub bound.
  int prev_idx = -1;
  for (const uint64_t v :
       {uint64_t{8}, uint64_t{9}, uint64_t{100}, uint64_t{1000},
        uint64_t{4096}, uint64_t{123456}, uint64_t{1} << 20,
        (uint64_t{1} << 40) + 17}) {
    const int idx = trace::Histogram::BucketIndex(v);
    const uint64_t upper = trace::Histogram::BucketUpperBound(idx);
    EXPECT_GE(upper, v) << "value " << v;
    EXPECT_GT(idx, prev_idx) << "value " << v;
    prev_idx = idx;
    // Upper bound overestimates by at most one sub-bucket width.
    EXPECT_LE(static_cast<double>(upper - v),
              static_cast<double>(v) / trace::Histogram::kSub + 1.0)
        << "value " << v;
  }
}

TEST(TraceHistogramTest, PercentilesOnKnownDistribution) {
  trace::Histogram hist("trace_test.standalone");
  EXPECT_EQ(hist.PercentileUpperBound(50), 0u);  // Empty -> 0.
  for (uint64_t v = 1; v <= 100; ++v) hist.Observe(v);
  EXPECT_EQ(hist.count(), 100u);
  EXPECT_EQ(hist.sum(), 5050u);
  EXPECT_DOUBLE_EQ(hist.Mean(), 50.5);
  // Each percentile's reported upper bound must cover the true value and
  // overshoot by at most one bucket width (12.5%).
  const struct { double p; uint64_t truth; } cases[] = {
      {0, 1}, {50, 50}, {95, 95}, {99, 99}, {100, 100}};
  for (const auto& c : cases) {
    const uint64_t got = hist.PercentileUpperBound(c.p);
    EXPECT_GE(got, c.truth) << "p" << c.p;
    EXPECT_LE(static_cast<double>(got),
              static_cast<double>(c.truth) * (1.0 + 1.0 / 8 ) + 1.0)
        << "p" << c.p;
  }
  hist.Reset();
  EXPECT_EQ(hist.count(), 0u);
  EXPECT_EQ(hist.sum(), 0u);
  EXPECT_EQ(hist.PercentileUpperBound(99), 0u);
}

TEST(TraceHistogramTest, ObserveMacroRespectsLevelGate) {
  {
    trace::LevelGuard guard(trace::Level::kOff);
    trace::ResetForTest();
    PMM_TRACE_OBSERVE("trace_test.gated_hist", 7);
    EXPECT_EQ(trace::Histogram::Get("trace_test.gated_hist").count(), 0u);
  }
  {
    trace::LevelGuard guard(trace::Level::kEpoch);
    trace::ResetForTest();
    for (int i = 0; i < 5; ++i) PMM_TRACE_OBSERVE("trace_test.gated_hist", 7);
    EXPECT_EQ(trace::Histogram::Get("trace_test.gated_hist").count(), 5u);
    EXPECT_EQ(trace::Histogram::Get("trace_test.gated_hist").sum(), 35u);
  }
}

TEST(TraceHistogramTest, SnapshotExportAndSummaryIncludeHistograms) {
  trace::LevelGuard guard(trace::Level::kEpoch);
  trace::ResetForTest();
  for (uint64_t v = 1; v <= 64; ++v) {
    PMM_TRACE_OBSERVE("trace_test.latency_us", v * 10);
  }
  const std::vector<trace::HistogramStats> snapshot =
      trace::HistogramSnapshot();
  ASSERT_EQ(snapshot.size(), 1u);
  EXPECT_EQ(snapshot[0].name, "trace_test.latency_us");
  EXPECT_EQ(snapshot[0].count, 64u);
  EXPECT_GE(snapshot[0].p95, snapshot[0].p50);
  EXPECT_GE(snapshot[0].p99, snapshot[0].p95);

  const std::string path =
      std::string(::testing::TempDir()) + "/pmmrec_hist_test.telemetry.json";
  ASSERT_TRUE(trace::WriteTelemetry(path).ok());
  const std::string telemetry = ReadFile(path);
  EXPECT_TRUE(IsValidJson(telemetry)) << telemetry;
  EXPECT_NE(telemetry.find("\"histograms\""), std::string::npos);
  EXPECT_NE(telemetry.find("\"trace_test.latency_us\""), std::string::npos);
  EXPECT_NE(telemetry.find("\"p99\""), std::string::npos);
  std::remove(path.c_str());

  const std::string summary = trace::SummaryTable();
  EXPECT_NE(summary.find("Latency histograms"), std::string::npos);
  EXPECT_NE(summary.find("trace_test.latency_us"), std::string::npos);

  // ResetForTest clears registered histograms along with counters.
  trace::ResetForTest();
  EXPECT_EQ(trace::Histogram::Get("trace_test.latency_us").count(), 0u);
  EXPECT_TRUE(trace::HistogramSnapshot().empty());
}

// --- Concurrency (tsan) ------------------------------------------------------

TEST(TraceConcurrencyTest, ScopesAndCountersFromParallelForWorkers) {
  trace::LevelGuard guard(trace::Level::kOp);
  NumThreadsGuard threads(8);
  trace::ResetForTest();
  constexpr int64_t kIters = 4000;
  ParallelFor(0, kIters, /*grain=*/1, [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) {
      PMM_TRACE_SCOPE("concurrent_scope");
      PMM_TRACE_COUNT("trace_test.concurrent", 2);
    }
  });
  EXPECT_EQ(trace::Counter::Get("trace_test.concurrent").value(),
            static_cast<uint64_t>(2 * kIters));
  // One event per index, spread across the participating threads; the
  // per-thread rings are far larger than kIters, so nothing dropped.
  EXPECT_EQ(trace::NumBufferedEvents(), kIters);
  EXPECT_EQ(trace::DroppedEvents(), 0u);
  const std::vector<trace::Event> events = trace::SnapshotEvents();
  ASSERT_EQ(events.size(), static_cast<size_t>(kIters));
  for (const trace::Event& e : events) {
    EXPECT_STREQ(e.name, "concurrent_scope");
  }
}

TEST(TraceConcurrencyTest, RawThreadsHammerOneCounter) {
  trace::LevelGuard guard(trace::Level::kEpoch);
  trace::ResetForTest();
  constexpr int kThreads = 8;
  constexpr int kAddsPerThread = 100000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([] {
      trace::Counter& counter = trace::Counter::Get("trace_test.hammer");
      for (int i = 0; i < kAddsPerThread; ++i) counter.Add(1);
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(trace::Counter::Get("trace_test.hammer").value(),
            static_cast<uint64_t>(kThreads) * kAddsPerThread);
}

TEST(TraceConcurrencyTest, ConcurrentExportWhileRecording) {
  trace::LevelGuard guard(trace::Level::kOp);
  trace::ResetForTest();
  // One thread records scopes while another snapshots and aggregates —
  // the pattern the at-exit exporter relies on being safe.
  std::thread recorder([] {
    for (int i = 0; i < 2000; ++i) {
      PMM_TRACE_SCOPE("export_race");
      PMM_TRACE_COUNT("trace_test.export_race", 1);
    }
  });
  for (int i = 0; i < 20; ++i) {
    (void)trace::SnapshotEvents();
    (void)trace::CounterSnapshot();
    (void)trace::NumBufferedEvents();
  }
  recorder.join();
  EXPECT_EQ(trace::Counter::Get("trace_test.export_race").value(), 2000u);
}

TEST(TraceConcurrencyTest, RawThreadsHammerOneHistogram) {
  trace::LevelGuard guard(trace::Level::kEpoch);
  trace::ResetForTest();
  constexpr int kThreads = 8;
  constexpr int kObservesPerThread = 50000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t] {
      trace::Histogram& hist =
          trace::Histogram::Get("trace_test.hammer_hist");
      for (int i = 0; i < kObservesPerThread; ++i) {
        hist.Observe(static_cast<uint64_t>(t * 1000 + i % 100));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  trace::Histogram& hist = trace::Histogram::Get("trace_test.hammer_hist");
  EXPECT_EQ(hist.count(),
            static_cast<uint64_t>(kThreads) * kObservesPerThread);
  // Percentile queries concurrent with observers are exercised above; here
  // the quiesced bucket totals must account for every observation.
  EXPECT_EQ(hist.PercentileUpperBound(100) >= 7000u, true);
}

}  // namespace
}  // namespace pmmrec
