// Fuzz-style robustness tests: deserializers must reject arbitrary
// corruption with a Status (never crash, never hang, never over-allocate),
// loss computations must stay finite under randomized inputs, and the
// serving paths must stay bitwise-exact under randomized churn (shape
// changes, thread counts, param updates, snapshot publishes, broker load).

#include <algorithm>
#include <cmath>
#include <cstring>
#include <future>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/losses.h"
#include "core/pmmrec.h"
#include "core/serving.h"
#include "core/trainer.h"
#include "data/generator.h"
#include "data/serialization.h"
#include "nn/layers.h"
#include "serve/broker.h"
#include "tests/test_util.h"
#include "utils/parallel.h"

namespace pmmrec {
namespace {

Dataset FuzzDataset() {
  SyntheticWorld world{WorldConfig{}};
  DatasetGenerator gen(&world);
  PlatformConfig pc;
  pc.name = "Fuzz";
  pc.platform = "Bili";
  pc.clusters = {0, 1};
  pc.n_items = 15;
  pc.n_users = 10;
  pc.seed = 4;
  return gen.Generate(pc);
}

TEST(FuzzRobustnessTest, DatasetReaderSurvivesRandomByteFlips) {
  const Dataset original = FuzzDataset();
  BinaryWriter writer;
  WriteDataset(original, &writer);
  const std::vector<uint8_t>& good = writer.buffer();

  Rng rng(123);
  int64_t accepted = 0;
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<uint8_t> mutated = good;
    // Flip 1-4 random bytes.
    const int64_t flips = rng.UniformInt(1, 5);
    for (int64_t f = 0; f < flips; ++f) {
      const size_t pos = static_cast<size_t>(
          rng.NextUint64(static_cast<uint64_t>(mutated.size())));
      mutated[pos] ^= static_cast<uint8_t>(rng.NextUint64(256));
    }
    BinaryReader reader(std::move(mutated));
    Dataset out;
    const Status st = ReadDataset(&reader, &out);  // Must not crash.
    if (st.ok()) {
      ++accepted;
      // If accepted, the result must still be internally consistent.
      for (const auto& seq : out.sequences) {
        for (int32_t item : seq) {
          ASSERT_GE(item, 0);
          ASSERT_LT(item, out.num_items());
        }
      }
    }
  }
  // Some single-byte flips only touch float payloads and are legitimately
  // accepted; structural corruption must be rejected.
  EXPECT_LT(accepted, 200);
}

TEST(FuzzRobustnessTest, DatasetReaderSurvivesRandomTruncation) {
  const Dataset original = FuzzDataset();
  BinaryWriter writer;
  WriteDataset(original, &writer);
  Rng rng(321);
  for (int trial = 0; trial < 100; ++trial) {
    const size_t cut = static_cast<size_t>(
        rng.NextUint64(static_cast<uint64_t>(writer.buffer().size())));
    std::vector<uint8_t> truncated(writer.buffer().begin(),
                                   writer.buffer().begin() +
                                       static_cast<int64_t>(cut));
    BinaryReader reader(std::move(truncated));
    Dataset out;
    EXPECT_FALSE(ReadDataset(&reader, &out).ok());
  }
}

TEST(FuzzRobustnessTest, ModelCheckpointReaderSurvivesGarbage) {
  Rng rng(55);
  Linear module(6, 4, rng);
  for (int trial = 0; trial < 100; ++trial) {
    const size_t size = static_cast<size_t>(rng.UniformInt(0, 200));
    std::vector<uint8_t> garbage(size);
    for (auto& b : garbage) {
      b = static_cast<uint8_t>(rng.NextUint64(256));
    }
    BinaryReader reader(std::move(garbage));
    const Status st = module.LoadState(&reader);  // Must not crash.
    (void)st;
  }
}

TEST(FuzzRobustnessTest, LossesStayFiniteUnderExtremeActivations) {
  // Very large and very small representations must not produce NaN/Inf
  // losses (softmax stabilization, log clamping, l2-normalize epsilon).
  const SeqBatch batch = MakeBatchFromSequences({{0, 1, 2}, {3, 4, 5}}, 3);
  Rng rng(77);
  for (float scale : {1e-6f, 1.0f, 1e3f}) {
    Tensor t = Tensor::Randn(Shape{6, 4}, rng, scale, true);
    Tensor v = Tensor::Randn(Shape{6, 4}, rng, scale, true);
    Tensor hidden = Tensor::Randn(Shape{2, 3, 4}, rng, scale, true);
    Tensor reps = Tensor::Randn(Shape{6, 4}, rng, scale, true);

    const float dap = DapLoss(hidden, reps, batch).item();
    EXPECT_TRUE(std::isfinite(dap)) << "DAP at scale " << scale;
    const float nicl =
        CrossModalLoss(t, v, batch, NiclMode::kNicl, 0.5f).item();
    EXPECT_TRUE(std::isfinite(nicl)) << "NICL at scale " << scale;
    const float rcl = RclLoss(hidden, hidden, batch, 0.5f).item();
    EXPECT_TRUE(std::isfinite(rcl)) << "RCL at scale " << scale;

    // Gradients must also be finite.
    Tensor total = Add(DapLoss(hidden, reps, batch),
                       CrossModalLoss(t, v, batch, NiclMode::kNicl, 0.5f));
    total.Backward();
    for (Tensor* p : {&t, &v, &hidden, &reps}) {
      const float* g = p->grad_data();
      for (int64_t i = 0; i < p->numel(); ++i) {
        ASSERT_TRUE(std::isfinite(g[i])) << "grad at scale " << scale;
      }
    }
  }
}

TEST(FuzzRobustnessTest, ServingChurnMatchesSerialReferenceBitwise) {
  // Randomized interleaving of batch shapes (ragged packings of 1..7
  // users), intra-op thread counts and parameter updates. After every step
  // the packed serving pass — full-catalogue scores and exact retrieval —
  // must equal the serial per-user reference bit for bit.
  BenchmarkSuite suite = BuildBenchmarkSuite(0.2, 13);
  const Dataset& ds = suite.sources[0];
  const PMMRecConfig config = PMMRecConfig::FromDataset(ds);
  PMMRecModel model(config, 42);
  model.AttachDataset(&ds);
  const int64_t n_items = ds.num_items();

  Rng rng(1009);
  for (int step = 0; step < 40; ++step) {
    const std::string what = "step " + std::to_string(step);
    if (rng.UniformInt(0, 5) == 0) {
      test::TrainOneStep(model, ds, config.max_seq_len);
      continue;
    }
    std::vector<std::vector<int32_t>> prefixes;
    for (int64_t i = rng.UniformInt(1, 8); i > 0; --i) {
      std::vector<int32_t> p = ds.TestPrefix(rng.UniformInt(0, ds.num_users()));
      p.resize(static_cast<size_t>(
          1 + rng.UniformInt(0, static_cast<int64_t>(p.size()))));
      prefixes.push_back(std::move(p));
    }
    const int64_t limit = rng.UniformInt(1, std::min<int64_t>(21, n_items));
    std::vector<float> got(prefixes.size() * static_cast<size_t>(n_items));
    std::vector<std::vector<ScoredId>> retrieved;
    {
      NumThreadsGuard guard(rng.UniformInt(1, 5));
      model.ScoreUsersBatched(prefixes, got.data());
      retrieved = model.RetrieveExactCandidates(prefixes, limit);
    }
    ASSERT_EQ(retrieved.size(), prefixes.size()) << what;
    for (size_t u = 0; u < prefixes.size(); ++u) {
      const std::vector<float> want = model.ScoreItems(prefixes[u]);
      ASSERT_EQ(std::memcmp(got.data() + u * static_cast<size_t>(n_items),
                            want.data(), want.size() * sizeof(float)),
                0)
          << what << " user " << u;
      test::ExpectBitwise(retrieved[u],
                          TopKSelect(want.data(), n_items, limit, {}),
                          what + " retrieve user " + std::to_string(u));
    }
  }
}

TEST(FuzzRobustnessTest, SnapshotChurnUnderBrokerLoadStaysBitwiseExact) {
  // Randomized interleaving of everything that stresses the versioned
  // snapshot protocol: live train-and-publish cycles, catalogue hot-adds,
  // and broker load submitted both
  // synchronously and in async bursts left in flight across publishes.
  // Every response is checked bitwise against a reference recomputed from
  // the exact snapshot version it was answered from — a batch that mixes
  // versions, reads a retired table, or observes a half-published
  // snapshot shows up immediately as a score mismatch.
  BenchmarkSuite suite = BuildBenchmarkSuite(0.2, 13);
  Dataset ds = suite.sources[0];  // Mutable copy: the hot-add target.
  PMMRecConfig config = PMMRecConfig::FromDataset(ds);
  config.ann_serving = true;  // IVF serving route.
  PMMRecModel model(config, 42);
  model.AttachDataset(&ds);

  serve::BrokerOptions options;
  options.num_workers = 2;
  options.max_batch = 4;
  options.max_wait_us = 100;
  options.live_updates = true;
  serve::RequestBroker broker(&model, options);

  LiveUpdater::Options uopts;
  uopts.max_seq_len = config.max_seq_len;
  LiveUpdater updater(&model, &ds, uopts);

  // Every published version stays pinned here so any response can be
  // verified against the snapshot it was served from, long after that
  // version retired from the cache.
  std::map<uint64_t, std::shared_ptr<const ServingSnapshot>> published;
  const auto remember = [&](std::shared_ptr<const ServingSnapshot> snap) {
    ASSERT_NE(snap, nullptr);
    published[snap->version] = std::move(snap);
  };
  remember(model.item_table_cache().Pin());  // The broker's initial publish.

  std::vector<std::vector<int32_t>> sent_prefixes;
  std::vector<int64_t> sent_topk;
  std::vector<std::future<serve::Response>> futures;
  size_t verified = 0;
  // Settles every outstanding response and replays it on its pinned
  // version. Publishes only happen on this thread, which blocks in get()
  // here, so every version a worker can have pinned is already in
  // `published` when its response is verified.
  const auto drain_and_verify = [&] {
    for (; verified < futures.size(); ++verified) {
      const serve::Response response = futures[verified].get();
      ASSERT_EQ(response.status, serve::ServeStatus::kOk)
          << "request " << verified;
      const auto it = published.find(response.snapshot_version);
      ASSERT_NE(it, published.end())
          << "request " << verified << " served from unknown version "
          << response.snapshot_version;
      // The broker's IVF route, replayed on the pinned version at this
      // request's own candidate limit (any limit >= topk + |prefix| cuts
      // the same top-K); self-contained snapshots make this bitwise
      // reproducible no matter how far the live parameters moved since.
      const int64_t limit = std::min<int64_t>(
          sent_topk[verified] +
              static_cast<int64_t>(sent_prefixes[verified].size()),
          it->second->num_items);
      const auto ranked = model.RetrieveCandidatesOn(
          it->second,
          std::span<const std::vector<int32_t>>(&sent_prefixes[verified], 1),
          limit);
      ASSERT_EQ(ranked.size(), 1u);
      test::ExpectBitwise(
          response.items,
          TopKFromRanked(ranked[0], sent_topk[verified],
                         sent_prefixes[verified]),
          "request " + std::to_string(verified) + " at v" +
              std::to_string(response.snapshot_version));
    }
  };
  const auto submit_one = [&](Rng& rng) {
    serve::Request request;
    request.prefix = ds.TestPrefix(rng.UniformInt(0, ds.num_users()));
    request.topk = rng.UniformInt(1, 12);
    sent_prefixes.push_back(request.prefix);
    sent_topk.push_back(request.topk);
    futures.push_back(broker.Submit(std::move(request)));
  };

  Rng rng(2027);
  for (int step = 0; step < 36; ++step) {
    switch (rng.UniformInt(0, 4)) {
      case 0:  // Live update: one optimizer step, publish vN+1 while any
               // in-flight batch keeps answering from vN.
        remember(updater.Step());
        break;
      case 1: {  // Catalogue hot-add: clone a random item, publish. Only
                 // this thread mutates the dataset; workers read only
                 // snapshot tables.
        ds.items.push_back(
            ds.items[static_cast<size_t>(rng.UniformInt(0, ds.num_items()))]);
        remember(updater.Publish());
        break;
      }
      case 2:  // Async burst left in flight across subsequent publishes.
        for (int64_t i = rng.UniformInt(1, 5); i > 0; --i) submit_one(rng);
        break;
      default:  // Synchronous probe: submit, wait, and settle the backlog
                // so a failure localizes to a recent step.
        submit_one(rng);
        futures.back().wait();
        drain_and_verify();
        break;
    }
  }
  drain_and_verify();
  ASSERT_GT(futures.size(), 0u);
  EXPECT_GE(published.size(), 2u) << "churn never published a new version";
}

TEST(FuzzRobustnessTest, ZeroVectorsDoNotBreakNormalization) {
  Tensor zeros = Tensor::Zeros(Shape{3, 4}, true);
  Tensor normalized = L2Normalize(zeros);
  for (int64_t i = 0; i < normalized.numel(); ++i) {
    EXPECT_TRUE(std::isfinite(normalized.data()[i]));
  }
  SumAll(Square(normalized)).Backward();
  for (int64_t i = 0; i < zeros.numel(); ++i) {
    EXPECT_TRUE(std::isfinite(zeros.grad_data()[i]));
  }
}

}  // namespace
}  // namespace pmmrec
