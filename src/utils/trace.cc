#include "utils/trace.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "utils/table.h"

namespace pmmrec {
namespace trace {
namespace {

// Per-thread ring capacity. 32k events x 32 bytes = 1 MiB per recording
// thread; at op level a training step lands well under this, and overflow
// degrades gracefully (oldest events drop, DroppedEvents() reports it).
constexpr size_t kRingCapacity = 1 << 15;

struct ThreadBuffer {
  // Guards ring/next/recorded. Uncontended on the record path (only the
  // owning thread records); taken by other threads only during export,
  // clearing, and introspection, which makes those safe to run while
  // worker threads are alive.
  std::mutex mu;
  std::vector<Event> ring;
  size_t next = 0;
  uint64_t recorded = 0;
  uint32_t tid = 0;
};

struct BufferRegistry {
  std::mutex mu;
  // shared_ptr: the registry keeps buffers alive after their owning
  // thread exits, so export at process exit sees every thread's events.
  std::vector<std::shared_ptr<ThreadBuffer>> buffers;
};

// Leaked: recording threads may outlive static destruction.
BufferRegistry& Registry() {
  static BufferRegistry* registry = new BufferRegistry();
  return *registry;
}

thread_local std::shared_ptr<ThreadBuffer> t_buffer;

ThreadBuffer* GetThreadBuffer() {
  if (t_buffer == nullptr) {
    auto buffer = std::make_shared<ThreadBuffer>();
    BufferRegistry& registry = Registry();
    std::lock_guard<std::mutex> lock(registry.mu);
    buffer->tid = static_cast<uint32_t>(registry.buffers.size());
    registry.buffers.push_back(buffer);
    t_buffer = std::move(buffer);
  }
  return t_buffer.get();
}

struct CounterRegistry {
  std::mutex mu;
  std::unordered_map<std::string, Counter*> by_name;  // Values leaked.
};

CounterRegistry& Counters() {
  static CounterRegistry* registry = new CounterRegistry();
  return *registry;
}

struct HistogramRegistry {
  std::mutex mu;
  std::unordered_map<std::string, Histogram*> by_name;  // Values leaked.
};

HistogramRegistry& Histograms() {
  static HistogramRegistry* registry = new HistogramRegistry();
  return *registry;
}

struct EpochRow {
  std::string label;
  std::vector<std::pair<std::string, double>> fields;
};

struct EpochRowStore {
  std::mutex mu;
  std::vector<EpochRow> rows;
};

EpochRowStore& EpochRows() {
  static EpochRowStore* store = new EpochRowStore();
  return *store;
}

std::mutex g_export_mu;
std::string* g_export_path = nullptr;  // Guarded by g_export_mu; leaked.
bool g_export_path_resolved = false;   // Env read happened.
bool g_exported = false;               // ExportConfigured already ran.
std::once_flag g_atexit_once;

void ExportAtExit() {
  const Status st = ExportConfigured();
  if (!st.ok()) {
    std::fprintf(stderr, "[W] trace export failed: %s\n",
                 st.ToString().c_str());
  }
}

void RegisterAtExitExporter() {
  std::call_once(g_atexit_once, [] { std::atexit(ExportAtExit); });
}

// Minimal JSON string escaping for event/counter names and labels.
std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
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

}  // namespace

namespace internal {

std::atomic<int> g_level{-1};

int ResolveLevel() {
  int level = static_cast<int>(Level::kOff);
  if (const char* env = std::getenv("PMMREC_TRACE_LEVEL")) {
    if (std::strcmp(env, "epoch") == 0) {
      level = static_cast<int>(Level::kEpoch);
    } else if (std::strcmp(env, "op") == 0) {
      level = static_cast<int>(Level::kOp);
    } else if (std::strcmp(env, "off") != 0) {
      std::fprintf(stderr, "[W] unknown PMMREC_TRACE_LEVEL '%s' (want off, "
                   "epoch, or op); tracing stays off\n", env);
    }
  } else if (std::getenv("PMMREC_TRACE") != nullptr) {
    // A trace path with no explicit level means the user wants a trace.
    level = static_cast<int>(Level::kOp);
  }
  // Benign race: concurrent resolvers store the same value.
  g_level.store(level, std::memory_order_relaxed);
  if (level > static_cast<int>(Level::kOff)) RegisterAtExitExporter();
  return level;
}

}  // namespace internal

Level GetLevel() {
  int level = internal::g_level.load(std::memory_order_relaxed);
  if (level < 0) level = internal::ResolveLevel();
  return static_cast<Level>(level);
}

void SetLevel(Level level) {
  internal::g_level.store(static_cast<int>(level), std::memory_order_relaxed);
  if (level != Level::kOff && !ExportPath().empty()) RegisterAtExitExporter();
}

uint64_t NowNs() {
  using Clock = std::chrono::steady_clock;
  static const Clock::time_point base = Clock::now();
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - base)
          .count());
}

// --- Counters ----------------------------------------------------------------

Counter& Counter::Get(const std::string& name) {
  CounterRegistry& registry = Counters();
  std::lock_guard<std::mutex> lock(registry.mu);
  auto it = registry.by_name.find(name);
  if (it == registry.by_name.end()) {
    it = registry.by_name.emplace(name, new Counter(name)).first;
  }
  return *it->second;
}

std::vector<std::pair<std::string, uint64_t>> CounterSnapshot() {
  std::vector<std::pair<std::string, uint64_t>> snapshot;
  {
    CounterRegistry& registry = Counters();
    std::lock_guard<std::mutex> lock(registry.mu);
    snapshot.reserve(registry.by_name.size());
    for (const auto& [name, counter] : registry.by_name) {
      // Interned-but-never-fired counters (and reset ones) stay out of the
      // snapshot, so exports and summaries only show what actually ran.
      const uint64_t value = counter->value();
      if (value != 0) snapshot.emplace_back(name, value);
    }
  }
  std::sort(snapshot.begin(), snapshot.end());
  return snapshot;
}

void ResetCounters() {
  CounterRegistry& registry = Counters();
  std::lock_guard<std::mutex> lock(registry.mu);
  for (auto& [name, counter] : registry.by_name) counter->Reset();
}

// --- Histograms --------------------------------------------------------------

Histogram& Histogram::Get(const std::string& name) {
  HistogramRegistry& registry = Histograms();
  std::lock_guard<std::mutex> lock(registry.mu);
  auto it = registry.by_name.find(name);
  if (it == registry.by_name.end()) {
    it = registry.by_name.emplace(name, new Histogram(name)).first;
  }
  return *it->second;
}

int Histogram::BucketIndex(uint64_t value) {
  if (value < static_cast<uint64_t>(kSub)) return static_cast<int>(value);
  // Octave = position of the highest set bit; values past the grid clamp
  // into the top bucket.
  int octave = std::bit_width(value) - 1;
  if (octave >= kOctaves) return kNumBuckets - 1;
  const int sub = static_cast<int>((value >> (octave - kSubBits)) &
                                   static_cast<uint64_t>(kSub - 1));
  return kSub + (octave - kSubBits) * kSub + sub;
}

uint64_t Histogram::BucketUpperBound(int index) {
  if (index < kSub) return static_cast<uint64_t>(index);
  const int octave = (index - kSub) / kSub + kSubBits;
  const int sub = (index - kSub) % kSub;
  const uint64_t base = uint64_t{1} << octave;
  const uint64_t step = uint64_t{1} << (octave - kSubBits);
  return base + static_cast<uint64_t>(sub + 1) * step - 1;
}

void Histogram::Observe(uint64_t value) {
  buckets_[BucketIndex(value)].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(value, std::memory_order_relaxed);
}

double Histogram::Mean() const {
  const uint64_t n = count();
  return n == 0 ? 0.0 : static_cast<double>(sum()) / static_cast<double>(n);
}

uint64_t Histogram::PercentileUpperBound(double p) const {
  // Reporting path: relaxed bucket reads may tear against concurrent
  // observers, which only shifts the estimate by in-flight samples.
  uint64_t total = 0;
  uint64_t counts[kNumBuckets];
  for (int b = 0; b < kNumBuckets; ++b) {
    counts[b] = buckets_[b].load(std::memory_order_relaxed);
    total += counts[b];
  }
  if (total == 0) return 0;
  const double clamped = std::min(100.0, std::max(0.0, p));
  const uint64_t rank = std::max<uint64_t>(
      1, static_cast<uint64_t>(
             std::ceil(clamped / 100.0 * static_cast<double>(total))));
  uint64_t cumulative = 0;
  for (int b = 0; b < kNumBuckets; ++b) {
    cumulative += counts[b];
    if (cumulative >= rank) return BucketUpperBound(b);
  }
  return BucketUpperBound(kNumBuckets - 1);
}

void Histogram::Reset() {
  for (int b = 0; b < kNumBuckets; ++b) {
    buckets_[b].store(0, std::memory_order_relaxed);
  }
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
}

std::vector<HistogramStats> HistogramSnapshot() {
  std::vector<HistogramStats> snapshot;
  {
    HistogramRegistry& registry = Histograms();
    std::lock_guard<std::mutex> lock(registry.mu);
    snapshot.reserve(registry.by_name.size());
    for (const auto& [name, hist] : registry.by_name) {
      // Like counters: histograms that never observed stay out of exports.
      if (hist->count() == 0) continue;
      HistogramStats stats;
      stats.name = name;
      stats.count = hist->count();
      stats.mean = hist->Mean();
      stats.p50 = hist->PercentileUpperBound(50);
      stats.p95 = hist->PercentileUpperBound(95);
      stats.p99 = hist->PercentileUpperBound(99);
      snapshot.push_back(std::move(stats));
    }
  }
  std::sort(snapshot.begin(), snapshot.end(),
            [](const HistogramStats& a, const HistogramStats& b) {
              return a.name < b.name;
            });
  return snapshot;
}

void ResetHistograms() {
  HistogramRegistry& registry = Histograms();
  std::lock_guard<std::mutex> lock(registry.mu);
  for (auto& [name, hist] : registry.by_name) hist->Reset();
}

// --- Events ------------------------------------------------------------------

void RecordComplete(const char* name, uint64_t start_ns, uint64_t dur_ns) {
  ThreadBuffer* buffer = GetThreadBuffer();
  std::lock_guard<std::mutex> lock(buffer->mu);
  if (buffer->ring.empty()) buffer->ring.resize(kRingCapacity);
  buffer->ring[buffer->next] = Event{name, start_ns, dur_ns, buffer->tid};
  buffer->next = (buffer->next + 1) % kRingCapacity;
  ++buffer->recorded;
}

int64_t NumThreadBuffers() {
  BufferRegistry& registry = Registry();
  std::lock_guard<std::mutex> lock(registry.mu);
  return static_cast<int64_t>(registry.buffers.size());
}

int64_t NumBufferedEvents() {
  int64_t total = 0;
  BufferRegistry& registry = Registry();
  std::lock_guard<std::mutex> lock(registry.mu);
  for (const auto& buffer : registry.buffers) {
    std::lock_guard<std::mutex> buffer_lock(buffer->mu);
    total += static_cast<int64_t>(
        std::min<uint64_t>(buffer->recorded, kRingCapacity));
  }
  return total;
}

uint64_t DroppedEvents() {
  uint64_t dropped = 0;
  BufferRegistry& registry = Registry();
  std::lock_guard<std::mutex> lock(registry.mu);
  for (const auto& buffer : registry.buffers) {
    std::lock_guard<std::mutex> buffer_lock(buffer->mu);
    if (buffer->recorded > kRingCapacity) {
      dropped += buffer->recorded - kRingCapacity;
    }
  }
  return dropped;
}

void ClearEvents() {
  BufferRegistry& registry = Registry();
  std::lock_guard<std::mutex> lock(registry.mu);
  for (const auto& buffer : registry.buffers) {
    std::lock_guard<std::mutex> buffer_lock(buffer->mu);
    buffer->next = 0;
    buffer->recorded = 0;
  }
}

std::vector<Event> SnapshotEvents() {
  std::vector<Event> events;
  {
    BufferRegistry& registry = Registry();
    std::lock_guard<std::mutex> lock(registry.mu);
    for (const auto& buffer : registry.buffers) {
      std::lock_guard<std::mutex> buffer_lock(buffer->mu);
      const uint64_t count = std::min<uint64_t>(buffer->recorded,
                                                kRingCapacity);
      // Oldest first: when wrapped, the oldest surviving event sits at
      // `next` (the slot the next record would overwrite).
      const size_t start = buffer->recorded > kRingCapacity ? buffer->next : 0;
      for (uint64_t i = 0; i < count; ++i) {
        events.push_back(buffer->ring[(start + i) % kRingCapacity]);
      }
    }
  }
  std::stable_sort(events.begin(), events.end(),
                   [](const Event& a, const Event& b) {
                     return a.start_ns < b.start_ns;
                   });
  return events;
}

// --- Per-epoch telemetry rows ------------------------------------------------

void RecordEpochRow(const std::string& label,
                    std::vector<std::pair<std::string, double>> fields) {
  EpochRowStore& store = EpochRows();
  std::lock_guard<std::mutex> lock(store.mu);
  store.rows.push_back(EpochRow{label, std::move(fields)});
}

int64_t NumEpochRows() {
  EpochRowStore& store = EpochRows();
  std::lock_guard<std::mutex> lock(store.mu);
  return static_cast<int64_t>(store.rows.size());
}

void ClearEpochRows() {
  EpochRowStore& store = EpochRows();
  std::lock_guard<std::mutex> lock(store.mu);
  store.rows.clear();
}

// --- Export ------------------------------------------------------------------

std::string ExportPath() {
  std::lock_guard<std::mutex> lock(g_export_mu);
  if (!g_export_path_resolved) {
    g_export_path_resolved = true;
    if (g_export_path == nullptr) {
      if (const char* env = std::getenv("PMMREC_TRACE")) {
        if (env[0] != '\0') g_export_path = new std::string(env);
      }
    }
  }
  return g_export_path != nullptr ? *g_export_path : std::string();
}

void SetExportPath(const std::string& path) {
  {
    std::lock_guard<std::mutex> lock(g_export_mu);
    g_export_path_resolved = true;
    if (g_export_path == nullptr) {
      g_export_path = new std::string(path);
    } else {
      *g_export_path = path;
    }
    g_exported = false;
  }
  if (!path.empty() && GetLevel() != Level::kOff) RegisterAtExitExporter();
}

std::string TelemetryPathFor(const std::string& chrome_path) {
  constexpr const char kJsonSuffix[] = ".json";
  const size_t suffix_len = sizeof(kJsonSuffix) - 1;
  if (chrome_path.size() > suffix_len &&
      chrome_path.compare(chrome_path.size() - suffix_len, suffix_len,
                          kJsonSuffix) == 0) {
    return chrome_path.substr(0, chrome_path.size() - suffix_len) +
           ".telemetry.json";
  }
  return chrome_path + ".telemetry.json";
}

Status WriteChromeTrace(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return Status::IoError("cannot open trace output: " + path);
  }
  const std::vector<Event> events = SnapshotEvents();
  const auto counters = CounterSnapshot();
  std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
  bool first = true;
  auto comma = [&] {
    if (!first) std::fprintf(f, ",\n");
    first = false;
  };
  // Thread-name metadata so Perfetto labels each track.
  std::vector<uint32_t> tids;
  for (const Event& e : events) {
    if (std::find(tids.begin(), tids.end(), e.tid) == tids.end()) {
      tids.push_back(e.tid);
    }
  }
  std::sort(tids.begin(), tids.end());
  for (uint32_t tid : tids) {
    comma();
    std::fprintf(f,
                 "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,"
                 "\"tid\":%u,\"args\":{\"name\":\"pmmrec-%u\"}}",
                 tid, tid);
  }
  uint64_t max_end_ns = 0;
  for (const Event& e : events) {
    comma();
    max_end_ns = std::max(max_end_ns, e.start_ns + e.dur_ns);
    // ts/dur are microseconds in the chrome trace format.
    std::fprintf(f,
                 "{\"name\":\"%s\",\"ph\":\"X\",\"cat\":\"pmmrec\","
                 "\"pid\":1,\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f}",
                 JsonEscape(e.name).c_str(), e.tid,
                 static_cast<double>(e.start_ns) / 1e3,
                 static_cast<double>(e.dur_ns) / 1e3);
  }
  // One terminal counter sample each, so counter totals are visible on
  // the trace timeline as well as in the telemetry file.
  for (const auto& [name, value] : counters) {
    comma();
    std::fprintf(f,
                 "{\"name\":\"%s\",\"ph\":\"C\",\"pid\":1,\"ts\":%.3f,"
                 "\"args\":{\"value\":%llu}}",
                 JsonEscape(name).c_str(),
                 static_cast<double>(max_end_ns) / 1e3,
                 static_cast<unsigned long long>(value));
  }
  std::fprintf(f, "\n]}\n");
  std::fclose(f);
  return Status::Ok();
}

Status WriteTelemetry(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return Status::IoError("cannot open telemetry output: " + path);
  }
  std::fprintf(f, "{\n  \"counters\": {");
  const auto counters = CounterSnapshot();
  for (size_t i = 0; i < counters.size(); ++i) {
    std::fprintf(f, "%s\n    \"%s\": %llu", i == 0 ? "" : ",",
                 JsonEscape(counters[i].first).c_str(),
                 static_cast<unsigned long long>(counters[i].second));
  }
  std::fprintf(f, "\n  },\n  \"histograms\": {");
  const auto histograms = HistogramSnapshot();
  for (size_t i = 0; i < histograms.size(); ++i) {
    const HistogramStats& h = histograms[i];
    std::fprintf(f,
                 "%s\n    \"%s\": {\"count\": %llu, \"mean\": %.3f, "
                 "\"p50\": %llu, \"p95\": %llu, \"p99\": %llu}",
                 i == 0 ? "" : ",", JsonEscape(h.name).c_str(),
                 static_cast<unsigned long long>(h.count), h.mean,
                 static_cast<unsigned long long>(h.p50),
                 static_cast<unsigned long long>(h.p95),
                 static_cast<unsigned long long>(h.p99));
  }
  std::fprintf(f, "\n  },\n  \"epochs\": [");
  {
    EpochRowStore& store = EpochRows();
    std::lock_guard<std::mutex> lock(store.mu);
    for (size_t i = 0; i < store.rows.size(); ++i) {
      const EpochRow& row = store.rows[i];
      std::fprintf(f, "%s\n    {\"label\": \"%s\"", i == 0 ? "" : ",",
                   JsonEscape(row.label).c_str());
      for (const auto& [name, value] : row.fields) {
        std::fprintf(f, ", \"%s\": %.17g", JsonEscape(name).c_str(), value);
      }
      std::fprintf(f, "}");
    }
  }
  std::fprintf(f, "\n  ],\n  \"dropped_events\": %llu\n}\n",
               static_cast<unsigned long long>(DroppedEvents()));
  std::fclose(f);
  return Status::Ok();
}

Status ExportConfigured() {
  std::string path;
  {
    // ExportPath() takes g_export_mu itself; resolve first, then claim.
    path = ExportPath();
    std::lock_guard<std::mutex> lock(g_export_mu);
    if (g_exported || path.empty()) return Status::Ok();
    g_exported = true;
  }
  Status st = WriteChromeTrace(path);
  if (!st.ok()) return st;
  return WriteTelemetry(TelemetryPathFor(path));
}

std::string SummaryTable() {
  const std::vector<Event> events = SnapshotEvents();
  const auto counters = CounterSnapshot();
  const auto histograms = HistogramSnapshot();
  if (events.empty() && counters.empty() && histograms.empty()) {
    return std::string();
  }

  std::string out;
  if (!events.empty()) {
    struct ScopeAgg {
      uint64_t count = 0;
      uint64_t total_ns = 0;
    };
    // Aggregate by name; names are interned literals, but distinct call
    // sites may share a name, so key on the string value.
    std::unordered_map<std::string, ScopeAgg> agg;
    for (const Event& e : events) {
      ScopeAgg& a = agg[e.name];
      ++a.count;
      a.total_ns += e.dur_ns;
    }
    std::vector<std::pair<std::string, ScopeAgg>> sorted(agg.begin(),
                                                         agg.end());
    std::sort(sorted.begin(), sorted.end(), [](const auto& a, const auto& b) {
      return a.second.total_ns > b.second.total_ns;
    });
    Table table({"scope", "count", "total ms", "mean us"});
    table.SetTitle("Trace scopes (buffered events)");
    for (const auto& [name, a] : sorted) {
      table.AddRow({name, std::to_string(a.count),
                    Table::Fmt(static_cast<double>(a.total_ns) / 1e6, 3),
                    Table::Fmt(static_cast<double>(a.total_ns) /
                                   (1e3 * static_cast<double>(a.count)),
                               2)});
    }
    out += table.ToString();
  }
  if (!counters.empty()) {
    Table table({"counter", "value"});
    table.SetTitle("Runtime counters");
    for (const auto& [name, value] : counters) {
      table.AddRow({name, std::to_string(value)});
    }
    if (!out.empty()) out += "\n";
    out += table.ToString();
  }
  if (!histograms.empty()) {
    Table table({"histogram", "count", "mean", "p50", "p95", "p99"});
    table.SetTitle("Latency histograms (bucket upper bounds)");
    for (const HistogramStats& h : histograms) {
      table.AddRow({h.name, std::to_string(h.count), Table::Fmt(h.mean, 1),
                    std::to_string(h.p50), std::to_string(h.p95),
                    std::to_string(h.p99)});
    }
    if (!out.empty()) out += "\n";
    out += table.ToString();
  }
  const uint64_t dropped = DroppedEvents();
  if (dropped > 0) {
    out += "\n(" + std::to_string(dropped) +
           " events dropped to ring-buffer wraparound)\n";
  }
  return out;
}

void ResetForTest() {
  ClearEvents();
  ResetCounters();
  ResetHistograms();
  ClearEpochRows();
}

}  // namespace trace
}  // namespace pmmrec
