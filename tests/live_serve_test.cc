// Versioned-serving-snapshot suite (DESIGN.md "Versioned serving
// snapshots"): snapshot lifetime under the pin/publish/retire protocol,
// catalogue hot-add incrementality and reachability, live-vs-strict
// bitwise identity across every serving mode, multi-domain brokering, and
// a live broker serving bit-exact responses while a LiveUpdater publishes
// new versions from another thread. Runs under the `live` ctest label
// (and in CI under tsan and asan on top of the default config).

#include <atomic>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/pmmrec.h"
#include "core/serving.h"
#include "core/trainer.h"
#include "data/generator.h"
#include "serve/broker.h"
#include "tests/test_util.h"
#include "utils/trace.h"

namespace pmmrec {
namespace {

// Deterministic row-independent stand-in encoder for cache-level tests:
// row id -> [0.25*id + 0, ..., 0.25*id + 3]. Optionally counts the rows
// it is asked to encode, which is how the hot-add tests prove the reuse
// path skipped the base snapshot's fully-covered chunks.
ItemTableCache::ChunkEncoder CountingEncoder(std::atomic<int64_t>* rows) {
  return [rows](const std::vector<int32_t>& ids) {
    if (rows != nullptr) {
      rows->fetch_add(static_cast<int64_t>(ids.size()),
                      std::memory_order_relaxed);
    }
    const int64_t n = static_cast<int64_t>(ids.size());
    Tensor t = Tensor::Zeros(Shape{n, 4});
    for (int64_t i = 0; i < n; ++i) {
      for (int64_t d = 0; d < 4; ++d) {
        t.data()[i * 4 + d] =
            0.25f * static_cast<float>(ids[static_cast<size_t>(i)]) +
            static_cast<float>(d);
      }
    }
    return std::vector<Tensor>{std::move(t)};
  };
}

uint64_t CounterValue(const std::string& name) {
  for (const auto& [counter, value] : trace::CounterSnapshot()) {
    if (counter == name) return value;
  }
  return 0;
}

uint64_t HistogramCount(const std::string& name) {
  for (const trace::HistogramStats& h : trace::HistogramSnapshot()) {
    if (h.name == name) return h.count;
  }
  return 0;
}

TEST(LiveServeTest, RetiredSnapshotFreedOnlyAfterLastPinDrops) {
  // Lifecycle counters (serve.snapshot.*) register at epoch level.
  trace::LevelGuard trace_guard(trace::Level::kEpoch);
  ItemTableCache cache;
  ASSERT_TRUE(cache.Ensure(10, CountingEncoder(nullptr)));

  // An in-flight batch: pinned v1, still being answered.
  std::shared_ptr<const ServingSnapshot> pin = cache.Pin();
  ASSERT_NE(pin, nullptr);
  std::weak_ptr<const ServingSnapshot> watch = pin;
  const uint64_t v1 = pin->version;

  const uint64_t retired_before = CounterValue("serve.snapshot.retired");
  cache.Invalidate();
  ASSERT_TRUE(cache.Ensure(10, CountingEncoder(nullptr)));  // publishes v2

  // v2 is current, but retiring v1 must not free it: the in-flight batch
  // still reads it. The shared_ptr refcount is the RCU grace period.
  EXPECT_EQ(cache.Pin()->version, v1 + 1);
  EXPECT_FALSE(watch.expired());
  EXPECT_EQ(CounterValue("serve.snapshot.retired"), retired_before);
  EXPECT_EQ(pin->version, v1);
  EXPECT_EQ(pin->num_items, 10);

  // The batch finishes: the last pin drops and only now is v1 freed.
  pin.reset();
  EXPECT_TRUE(watch.expired());
  EXPECT_EQ(CounterValue("serve.snapshot.retired"), retired_before + 1);
}

TEST(LiveServeTest, HotAddEncodesOnlyBoundaryChunkAndTail) {
  // Lifecycle counters (serve.snapshot.*) register at epoch level.
  trace::LevelGuard trace_guard(trace::Level::kEpoch);
  const auto no_finish = [](ServingSnapshot*) {};
  std::atomic<int64_t> rows{0};
  ItemTableCache cache;
  const std::shared_ptr<const ServingSnapshot> base =
      cache.Publish(100, CountingEncoder(&rows), no_finish);
  ASSERT_NE(base, nullptr);
  EXPECT_EQ(rows.load(), 100);

  // Hot-add 30 rows at the same param version. With kChunk = 64, the base
  // covers chunk [0, 64) fully and [64, 100) partially, so only the
  // boundary chunk plus the new tail — ids [64, 130) — may be re-encoded.
  const uint64_t hot_before = CounterValue("serve.snapshot.hot_add_rows");
  rows.store(0);
  const std::shared_ptr<const ServingSnapshot> grown =
      cache.Publish(130, CountingEncoder(&rows), no_finish);
  ASSERT_NE(grown, nullptr);
  EXPECT_EQ(rows.load(), 130 - ItemTableCache::kChunk);
  EXPECT_EQ(CounterValue("serve.snapshot.hot_add_rows"), hot_before + 30);
  EXPECT_EQ(grown->num_items, 130);
  EXPECT_EQ(grown->version, base->version + 1);
  EXPECT_EQ(base->num_items, 100);  // the retired snapshot is untouched

  // The incrementally built table is bitwise a from-scratch encode.
  ItemTableCache fresh;
  const std::shared_ptr<const ServingSnapshot> full =
      fresh.Publish(130, CountingEncoder(nullptr), no_finish);
  ASSERT_EQ(grown->table_data(0).size(), full->table_data(0).size());
  EXPECT_EQ(std::memcmp(grown->table_data(0).data(),
                        full->table_data(0).data(),
                        grown->table_data(0).size() * sizeof(float)),
            0);

  // Invalidate() (a model-identity change) must block row reuse: the next
  // publish re-encodes everything even though the catalogue only grew.
  cache.Invalidate();
  rows.store(0);
  const std::shared_ptr<const ServingSnapshot> rebuilt =
      cache.Publish(131, CountingEncoder(&rows), no_finish);
  ASSERT_NE(rebuilt, nullptr);
  EXPECT_EQ(rows.load(), 131);
}

TEST(LiveServeTest, HotAddedItemServedFromTheNextSnapshot) {
  BenchmarkSuite suite = BuildBenchmarkSuite(0.2, 13);
  Dataset ds = suite.sources[0];  // Mutable copy: the hot-add target.
  const PMMRecConfig config = PMMRecConfig::FromDataset(ds);
  PMMRecModel model(config, 42);
  model.AttachDataset(&ds);

  const std::shared_ptr<const ServingSnapshot> v1 =
      model.PublishServingSnapshot();
  ASSERT_NE(v1, nullptr);
  const int64_t old_count = v1->num_items;

  // Clone item 7's content. Item encoding is row-independent, so the new
  // id's representation row — and therefore its score against any user —
  // must be bitwise its source's.
  ds.items.push_back(ds.items[7]);
  const int32_t new_id = static_cast<int32_t>(ds.num_items() - 1);
  const std::shared_ptr<const ServingSnapshot> v2 =
      model.PublishServingSnapshot();
  ASSERT_NE(v2, nullptr);
  EXPECT_EQ(v2->num_items, old_count + 1);
  EXPECT_EQ(v2->version, v1->version + 1);
  EXPECT_EQ(v1->num_items, old_count);  // in-flight pins keep the old world

  const int64_t d = v2->width(0);
  EXPECT_EQ(std::memcmp(v2->table_data(0).data() + new_id * d,
                        v2->table_data(0).data() + 7 * d,
                        static_cast<size_t>(d) * sizeof(float)),
            0);

  // The new item is recommendable from v2 without any full re-encode:
  // ranked retrieval over the grown snapshot surfaces it with exactly its
  // source's score bits.
  const std::vector<int32_t> prefix = ds.TestPrefix(0);
  const auto ranked = model.RetrieveExactCandidatesOn(
      v2, std::span<const std::vector<int32_t>>(&prefix, 1), v2->num_items);
  ASSERT_EQ(ranked.size(), 1u);
  const float* source_score = nullptr;
  const float* added_score = nullptr;
  for (const ScoredId& entry : ranked[0]) {
    if (entry.id == 7) source_score = &entry.score;
    if (entry.id == new_id) added_score = &entry.score;
  }
  ASSERT_NE(source_score, nullptr);
  ASSERT_NE(added_score, nullptr);
  EXPECT_EQ(std::memcmp(added_score, source_score, sizeof(float)), 0);
}

TEST(LiveServeTest, LiveSnapshotMatchesStrictPathBitwiseAcrossServingModes) {
  BenchmarkSuite suite = BuildBenchmarkSuite(0.2, 13);
  const Dataset& ds = suite.sources[0];
  struct ModeSpec {
    const char* name;
    bool ann;
  };
  const ModeSpec kModes[] = {
      {"exact", false},
      {"ivf", true},
  };
  for (const ModeSpec& mode : kModes) {
    SCOPED_TRACE(mode.name);
    PMMRecConfig config = PMMRecConfig::FromDataset(ds);
    config.ann_serving = mode.ann;
    PMMRecModel model(config, 42);
    model.AttachDataset(&ds);
    const auto prefixes = test::MixedPrefixes(ds, 5);
    const size_t n =
        prefixes.size() * static_cast<size_t>(ds.num_items());

    // Strict references through the legacy entry points (live encoder,
    // global version policing).
    std::vector<float> want(n);
    model.ScoreUsersBatched(prefixes, want.data());
    const auto want_retrieved = model.RetrieveCandidates(prefixes, 15);

    const std::shared_ptr<const ServingSnapshot> snap =
        model.PublishServingSnapshot();
    ASSERT_NE(snap, nullptr);
    ASSERT_NE(snap->user_encoder, nullptr);  // live flavour
    EXPECT_EQ(snap->ann, mode.ann);

    const auto expect_rows_bitwise =
        [](const std::vector<std::vector<ScoredId>>& got,
           const std::vector<std::vector<ScoredId>>& expected,
           const std::string& what) {
          ASSERT_EQ(got.size(), expected.size()) << what;
          for (size_t i = 0; i < got.size(); ++i) {
            test::ExpectBitwise(got[i], expected[i],
                                what + " row " + std::to_string(i));
          }
        };

    // The self-contained snapshot path reproduces every strict result
    // bit for bit at the same param version.
    std::vector<float> got(n);
    model.ScoreUsersBatchedOn(snap, prefixes, got.data());
    EXPECT_EQ(std::memcmp(got.data(), want.data(), n * sizeof(float)), 0);
    expect_rows_bitwise(model.RetrieveCandidatesOn(snap, prefixes, 15),
                        want_retrieved, "retrieve");

    // A request admitted under vN is answered from vN: stepping the live
    // parameters must not change one bit of what the pinned snapshot
    // serves, in any mode.
    test::TrainOneStep(model, ds, config.max_seq_len);
    std::vector<float> after(n);
    model.ScoreUsersBatchedOn(snap, prefixes, after.data());
    EXPECT_EQ(std::memcmp(after.data(), want.data(), n * sizeof(float)), 0);
    expect_rows_bitwise(model.RetrieveCandidatesOn(snap, prefixes, 15),
                        want_retrieved, "retrieve after step");
  }
}

TEST(LiveServeTest, MultiDomainBrokerRoutesAndExportsPerDomainLatency) {
  BenchmarkSuite suite = BuildBenchmarkSuite(0.2, 13);
  const Dataset& ds = suite.sources[0];
  const PMMRecConfig config = PMMRecConfig::FromDataset(ds);
  PMMRecModel food(config, 42);
  PMMRecModel sport(config, 43);  // Different seed: a genuinely distinct model.
  food.AttachDataset(&ds);
  sport.AttachDataset(&ds);

  serve::BrokerOptions options;
  options.num_workers = 2;
  options.max_batch = 8;
  options.max_wait_us = 100;
  serve::RequestBroker broker({{"food", &food}, {"sport", &sport}}, options);
  ASSERT_EQ(broker.num_domains(), 2);
  EXPECT_EQ(broker.domain_name(0), "food");
  EXPECT_EQ(broker.domain_name(1), "sport");

  const uint64_t food_before =
      HistogramCount("serve.latency_us[domain=food]");
  const uint64_t sport_before =
      HistogramCount("serve.latency_us[domain=sport]");

  // Same prefixes into both domains through the one queue: each response
  // must carry its domain, a pinned snapshot version, and exactly its own
  // model's serial top-K.
  const auto prefixes = test::MixedPrefixes(ds, 6);
  for (const auto& prefix : prefixes) {
    for (int64_t domain = 0; domain < 2; ++domain) {
      serve::Request request;
      request.prefix = prefix;
      request.topk = 10;
      request.domain = domain;
      const serve::Response got = broker.Submit(std::move(request)).get();
      ASSERT_EQ(got.status, serve::ServeStatus::kOk);
      EXPECT_EQ(got.domain, domain);
      EXPECT_GT(got.snapshot_version, 0u);
      PMMRecModel& target = domain == 0 ? food : sport;
      test::ExpectBitwise(
          got.items, test::SerialTopK(target, prefix, 10),
          std::string("domain ") + broker.domain_name(domain));
    }
  }

  // One latency observation per served response, tagged by domain.
  EXPECT_EQ(HistogramCount("serve.latency_us[domain=food]"),
            food_before + prefixes.size());
  EXPECT_EQ(HistogramCount("serve.latency_us[domain=sport]"),
            sport_before + prefixes.size());

  // Out-of-range domains are rejected at submit, not scored.
  serve::Request bad;
  bad.prefix = prefixes[0];
  bad.topk = 5;
  bad.domain = 2;
  EXPECT_EQ(broker.Submit(std::move(bad)).get().status,
            serve::ServeStatus::kInvalidRequest);
  EXPECT_EQ(broker.stats().rejected_invalid, 1u);
}

TEST(LiveServeTest, LiveBrokerStaysBitwiseExactUnderConcurrentUpdates) {
  BenchmarkSuite suite = BuildBenchmarkSuite(0.2, 13);
  Dataset ds = suite.sources[0];  // Mutable copy: the updater hot-adds into it.
  const PMMRecConfig config = PMMRecConfig::FromDataset(ds);
  PMMRecModel model(config, 42);
  model.AttachDataset(&ds);

  serve::BrokerOptions options;
  options.num_workers = 2;
  options.max_batch = 4;
  options.max_wait_us = 100;
  options.live_updates = true;
  serve::RequestBroker broker(&model, options);

  // Every published snapshot stays pinned here so responses can be
  // verified after the fact against the exact version they were answered
  // from. The updater thread is the only writer.
  std::mutex mu;
  std::map<uint64_t, std::shared_ptr<const ServingSnapshot>> published;
  {
    std::shared_ptr<const ServingSnapshot> initial =
        model.item_table_cache().Pin();
    ASSERT_NE(initial, nullptr);
    published[initial->version] = std::move(initial);
  }

  LiveUpdater::Options uopts;
  uopts.max_seq_len = config.max_seq_len;
  LiveUpdater updater(&model, &ds, uopts);

  std::atomic<bool> stop{false};
  std::thread update_thread([&] {
    // Trains + publishes, with a catalogue hot-add riding every third
    // publish, while the broker keeps serving. Capped so the test stays
    // bounded on a single core.
    for (int i = 0; i < 12 && !stop.load(std::memory_order_relaxed); ++i) {
      std::shared_ptr<const ServingSnapshot> snap;
      if (i % 3 == 2) {
        ds.items.push_back(ds.items[static_cast<size_t>(i)]);
        snap = updater.Publish();
      } else {
        snap = updater.Step();
      }
      ASSERT_NE(snap, nullptr);
      std::lock_guard<std::mutex> lock(mu);
      published[snap->version] = std::move(snap);
    }
  });

  const auto probe_prefixes = test::MixedPrefixes(ds, 6);
  struct Served {
    std::vector<int32_t> prefix;
    serve::Response response;
  };
  std::vector<Served> served;
  for (int i = 0; i < 30; ++i) {
    const std::vector<int32_t>& prefix =
        probe_prefixes[static_cast<size_t>(i) % probe_prefixes.size()];
    serve::Response response = broker.Recommend(prefix, 10);
    ASSERT_EQ(response.status, serve::ServeStatus::kOk);
    served.push_back({prefix, std::move(response)});
  }
  stop.store(true, std::memory_order_relaxed);
  update_thread.join();
  broker.Shutdown();

  // Each response must be bitwise what its pinned version serves — the
  // live snapshot is self-contained, so this reproduces exactly even
  // though the live parameters have long moved on.
  ASSERT_GE(published.size(), 2u) << "updater published nothing";
  for (size_t i = 0; i < served.size(); ++i) {
    const Served& s = served[i];
    const auto it = published.find(s.response.snapshot_version);
    ASSERT_NE(it, published.end())
        << "request " << i << " served from an unknown version "
        << s.response.snapshot_version;
    const std::shared_ptr<const ServingSnapshot>& snap = it->second;
    const int64_t limit = std::min<int64_t>(
        10 + static_cast<int64_t>(s.prefix.size()), snap->num_items);
    const auto ranked = model.RetrieveCandidatesOn(
        snap, std::span<const std::vector<int32_t>>(&s.prefix, 1), limit);
    ASSERT_EQ(ranked.size(), 1u);
    test::ExpectBitwise(s.response.items,
                        TopKFromRanked(ranked[0], 10, s.prefix),
                        "request " + std::to_string(i) + " at v" +
                            std::to_string(s.response.snapshot_version));
  }
}

}  // namespace
}  // namespace pmmrec
