#ifndef PMMREC_UTILS_TRACE_H_
#define PMMREC_UTILS_TRACE_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "utils/status.h"

namespace pmmrec {
namespace trace {

// Op-level tracing and runtime counters (see DESIGN.md "Observability").
//
// Two primitives:
//  - TraceScope: an RAII timed event. Closed scopes land in a fixed-size
//    thread-local ring buffer (no locks shared between threads on the
//    record path beyond the buffer's own uncontended mutex) and export as
//    chrome://tracing "X" (complete) events that Perfetto renders as a
//    per-thread flame chart.
//  - Counter: a named process-wide monotonic counter (relaxed atomic adds),
//    used for arena hit rates, GEMM kernel dispatch counts and FLOPs,
//    thread-pool wait/run time, batcher and evaluator throughput.
//
// Levels (PMMREC_TRACE_LEVEL = off | epoch | op, default off):
//  - off:   every macro is a single relaxed atomic load plus an untaken
//           branch; no buffer is ever allocated, no clock is read, and no
//           counter moves. Tracing can never change numerical results at
//           any level — instrumentation only reads clocks and bumps
//           counters, it never touches tensor math.
//  - epoch: counters and coarse per-epoch scopes (training epochs, full
//           evaluation passes) are live.
//  - op:    additionally records per-op scopes (MatMul forward/backward,
//           loss terms, per-case evaluation).
//
// Export: set PMMREC_TRACE=path (or call SetExportPath) and the process
// writes a chrome://tracing JSON to `path` at exit, plus a flat telemetry
// JSON (counters + per-epoch rows) to the derived *.telemetry.json path.
// `pmmrec_cli --trace path` does the same and prints SummaryTable().
//
// Compile-time kill switch: building with -DPMMREC_TRACE_DISABLED turns
// every macro into a true no-op (no atomic load either).

enum class Level { kOff = 0, kEpoch = 1, kOp = 2 };

namespace internal {
// < 0 means "not yet resolved from the environment".
extern std::atomic<int> g_level;
// Cold path: resolves PMMREC_TRACE_LEVEL / PMMREC_TRACE and registers the
// at-exit exporter. Returns the resolved level value.
int ResolveLevel();
}  // namespace internal

inline bool Enabled(Level at) {
  int level = internal::g_level.load(std::memory_order_relaxed);
  if (level < 0) level = internal::ResolveLevel();
  return level >= static_cast<int>(at);
}

Level GetLevel();
void SetLevel(Level level);

// RAII level override for tests.
class LevelGuard {
 public:
  explicit LevelGuard(Level level) : previous_(GetLevel()) { SetLevel(level); }
  ~LevelGuard() { SetLevel(previous_); }

  LevelGuard(const LevelGuard&) = delete;
  LevelGuard& operator=(const LevelGuard&) = delete;

 private:
  Level previous_;
};

// Monotonic nanoseconds since the first trace clock read in this process.
uint64_t NowNs();

// --- Counters ----------------------------------------------------------------

// Named monotonic counter. Instances live forever in a process-wide
// registry; Get() interns by name, so distinct call sites naming the same
// counter share one value. Adds are relaxed atomic increments.
class Counter {
 public:
  static Counter& Get(const std::string& name);

  void Add(uint64_t delta) { value_.fetch_add(delta, std::memory_order_relaxed); }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }
  const std::string& name() const { return name_; }
  // Zeroes the counter (ResetCounters and per-section benchmarking only —
  // counters are otherwise monotonic).
  void Reset() { value_.store(0, std::memory_order_relaxed); }

  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

 private:
  explicit Counter(std::string name) : name_(std::move(name)) {}

  const std::string name_;
  std::atomic<uint64_t> value_{0};
};

// All counters, sorted by name. Counters that never fired are absent.
std::vector<std::pair<std::string, uint64_t>> CounterSnapshot();
// Zeroes every registered counter (tests, per-section benchmarking).
void ResetCounters();

// --- Histograms --------------------------------------------------------------

// Named fixed-bucket log-linear histogram for latency-style distributions
// (the serving subsystem records request latency, queue wait and batch
// size through these; see DESIGN.md "Serving subsystem").
//
// Bucket layout: values below kSub get one exact bucket each; every
// power-of-two octave above that is split into kSub linear sub-buckets,
// giving a fixed <= 1/kSub (12.5%) relative width everywhere. Buckets are
// relaxed-atomic counters, so Observe() is lock-free and safe from any
// thread; percentile queries are reporting-only and may run concurrently
// with observers. Units are the caller's choice (the serve histograms use
// microseconds) — the bucket grid is unit-agnostic.
class Histogram {
 public:
  static constexpr int kSubBits = 3;
  static constexpr int kSub = 1 << kSubBits;  // Sub-buckets per octave.
  static constexpr int kOctaves = 48;         // Covers values < 2^48.
  static constexpr int kNumBuckets = kSub + (kOctaves - kSubBits) * kSub;

  // Interns by name in a process-wide registry, like Counter::Get.
  static Histogram& Get(const std::string& name);
  // Standalone instance (benches/tests); not registered for export.
  explicit Histogram(std::string name) : name_(std::move(name)) {}

  void Observe(uint64_t value);
  uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  uint64_t sum() const { return sum_.load(std::memory_order_relaxed); }
  double Mean() const;
  // Inclusive upper bound of the bucket containing the p-th percentile
  // (p in [0, 100]); 0 when the histogram is empty. Reported bounds
  // overestimate the true percentile by at most one bucket width.
  uint64_t PercentileUpperBound(double p) const;
  const std::string& name() const { return name_; }
  // Zeroes all buckets (tests, per-section benchmarking).
  void Reset();

  // Bucket grid, exposed for tests: the index a value lands in and that
  // bucket's inclusive upper bound.
  static int BucketIndex(uint64_t value);
  static uint64_t BucketUpperBound(int index);

  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

 private:
  const std::string name_;
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_{0};
  std::atomic<uint64_t> buckets_[kNumBuckets] = {};
};

// Point-in-time stats of one registered histogram (telemetry export).
struct HistogramStats {
  std::string name;
  uint64_t count = 0;
  double mean = 0;
  uint64_t p50 = 0, p95 = 0, p99 = 0;
};

// All registered histograms with at least one observation, sorted by name.
std::vector<HistogramStats> HistogramSnapshot();
// Zeroes every registered histogram (tests, per-section benchmarking).
void ResetHistograms();

// --- Events ------------------------------------------------------------------

// One closed scope, as stored in the ring buffer. `name` must be a string
// literal (or otherwise outlive the process) — the buffer stores the
// pointer, not a copy.
struct Event {
  const char* name;
  uint64_t start_ns;
  uint64_t dur_ns;
  uint32_t tid;  // Small sequential id assigned per recording thread.
};

// Appends a complete event to the calling thread's ring buffer, allocating
// and registering the buffer on first use. When the ring is full the
// oldest event is overwritten (see DroppedEvents()).
void RecordComplete(const char* name, uint64_t start_ns, uint64_t dur_ns);

// RAII timed scope. Costs one Enabled() check when tracing is below
// `level`; otherwise two clock reads plus one ring-buffer store. When
// `duration_counter` is non-null and the level is at least kEpoch, the
// scope's duration is also added (in ns) to that counter — that is how
// per-loss-term and per-phase timings reach the flat telemetry export
// without parsing the event stream.
class TraceScope {
 public:
  explicit TraceScope(const char* name, Level level = Level::kOp,
                      const char* duration_counter = nullptr)
      : name_(name),
        record_event_(Enabled(level)),
        counter_(Enabled(Level::kEpoch) ? duration_counter : nullptr) {
    if (record_event_ || counter_ != nullptr) start_ns_ = NowNs();
  }

  ~TraceScope() {
    if (!record_event_ && counter_ == nullptr) return;
    const uint64_t dur = NowNs() - start_ns_;
    if (record_event_) RecordComplete(name_, start_ns_, dur);
    if (counter_ != nullptr) Counter::Get(counter_).Add(dur);
  }

  TraceScope(const TraceScope&) = delete;
  TraceScope& operator=(const TraceScope&) = delete;

 private:
  const char* name_;
  const bool record_event_;
  const char* counter_;
  uint64_t start_ns_ = 0;
};

// --- Introspection (tests, summary) ------------------------------------------

// Number of thread-local ring buffers ever allocated. Stays 0 for the
// whole process when no event is recorded — the "off costs nothing"
// guarantee the overhead test pins down.
int64_t NumThreadBuffers();
// Events currently buffered across all threads.
int64_t NumBufferedEvents();
// Events lost to ring-buffer wraparound.
uint64_t DroppedEvents();
// Drops buffered events (buffers stay allocated and registered).
void ClearEvents();

// Chronological (by start time) copy of every buffered event.
std::vector<Event> SnapshotEvents();

// --- Per-epoch telemetry rows ------------------------------------------------

// A flat row of named numeric fields, one per training epoch (or any
// other periodic checkpoint). Rows are kept in arrival order and written
// verbatim into the telemetry JSON.
void RecordEpochRow(const std::string& label,
                    std::vector<std::pair<std::string, double>> fields);
int64_t NumEpochRows();
void ClearEpochRows();

// --- Export ------------------------------------------------------------------

// chrome://tracing / Perfetto "traceEvents" JSON: all buffered events plus
// one terminal "C" (counter) sample per counter and thread-name metadata.
Status WriteChromeTrace(const std::string& path);
// Flat JSON: {"counters": {...}, "epochs": [...], "dropped_events": N}.
Status WriteTelemetry(const std::string& path);

// Export destination; empty when neither PMMREC_TRACE nor SetExportPath
// configured one.
std::string ExportPath();
void SetExportPath(const std::string& path);
// "trace.json" -> "trace.telemetry.json" (non-.json paths get the suffix
// appended).
std::string TelemetryPathFor(const std::string& chrome_path);

// Writes both files to the configured path. Returns Ok and does nothing
// when no path is configured. Idempotent with the at-exit hook: whichever
// runs first wins, the other becomes a no-op.
Status ExportConfigured();

// Human-readable summary: per-scope totals (count, total ms, mean us) and
// every counter. Empty string when nothing was recorded.
std::string SummaryTable();

// Full reset: events, counters, epoch rows (buffers stay allocated).
void ResetForTest();

}  // namespace trace
}  // namespace pmmrec

// --- Macros ------------------------------------------------------------------
// PMM_TRACE_SCOPE(name): op-level timed scope.
// PMM_TRACE_SCOPE_AT(name, level, counter): scope with explicit level and
//   an optional ".ns" duration counter (pass nullptr for none).
// PMM_TRACE_COUNT(name, delta): add to a named counter (epoch level and
//   up). The counter is interned once per call site via a local static,
//   so `name` must evaluate to the same string on every execution of
//   that site — for runtime-varying names call Counter::Get directly.
// PMM_TRACE_OBSERVE(name, value): record one sample into a named
//   histogram (epoch level and up). Same static-interning rule as
//   PMM_TRACE_COUNT.

#ifndef PMMREC_TRACE_DISABLED

#define PMM_TRACE_CONCAT_INNER(a, b) a##b
#define PMM_TRACE_CONCAT(a, b) PMM_TRACE_CONCAT_INNER(a, b)

#define PMM_TRACE_SCOPE(name)                                       \
  ::pmmrec::trace::TraceScope PMM_TRACE_CONCAT(pmm_trace_scope_,    \
                                               __LINE__)(name)

#define PMM_TRACE_SCOPE_AT(name, level, counter)                    \
  ::pmmrec::trace::TraceScope PMM_TRACE_CONCAT(pmm_trace_scope_,    \
                                               __LINE__)(           \
      name, ::pmmrec::trace::Level::level, counter)

#define PMM_TRACE_COUNT(name, delta)                                       \
  do {                                                                     \
    if (::pmmrec::trace::Enabled(::pmmrec::trace::Level::kEpoch)) {        \
      static ::pmmrec::trace::Counter& pmm_trace_counter_ =                \
          ::pmmrec::trace::Counter::Get(name);                             \
      pmm_trace_counter_.Add(static_cast<uint64_t>(delta));                \
    }                                                                      \
  } while (0)

#define PMM_TRACE_OBSERVE(name, value)                                     \
  do {                                                                     \
    if (::pmmrec::trace::Enabled(::pmmrec::trace::Level::kEpoch)) {        \
      static ::pmmrec::trace::Histogram& pmm_trace_hist_ =                 \
          ::pmmrec::trace::Histogram::Get(name);                           \
      pmm_trace_hist_.Observe(static_cast<uint64_t>(value));               \
    }                                                                      \
  } while (0)

#else  // PMMREC_TRACE_DISABLED

#define PMM_TRACE_SCOPE(name) ((void)0)
#define PMM_TRACE_SCOPE_AT(name, level, counter) ((void)0)
#define PMM_TRACE_COUNT(name, delta) ((void)0)
#define PMM_TRACE_OBSERVE(name, value) ((void)0)

#endif  // PMMREC_TRACE_DISABLED

#endif  // PMMREC_UTILS_TRACE_H_
