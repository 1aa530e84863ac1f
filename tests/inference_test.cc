// Grad-free inference path: InferenceMode semantics, the frozen-model
// item-table cache, and the batched scoring/evaluation pipeline.
//
// The load-bearing claims pinned down here:
//  1. A forward pass under InferenceMode is bitwise identical to the same
//     forward with autograd recording on — the guard changes bookkeeping,
//     never numerics.
//  2. A full ScoreUsersBatched sweep creates zero autograd nodes and
//     allocates zero gradient buffers; the packed serving pass behind it
//     and behind exact retrieval allocates no tensor at all.
//  3. The batched evaluator produces bitwise-identical metrics to the
//     legacy per-user serial evaluator, at 1 and 4 threads, for PMMRec,
//     for a baseline, and for cold-start evaluation.
//  4. The item-table cache rebuilds exactly when it must: never on repeat
//     scoring, always after an optimizer step / checkpoint load / return
//     to training mode.
//  5. The packed item pass that builds every snapshot table is bitwise the
//     eager EncodeItemReps in every modality mode, at 1 and 4 threads, on
//     full, ragged and one-item chunks, through a live publish and a
//     hot-add; it refuses a training-mode model.

#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "baselines/id_models.h"
#include "core/pmmrec.h"
#include "data/batcher.h"
#include "data/generator.h"
#include "nn/optimizer.h"
#include "tests/test_util.h"
#include "utils/parallel.h"
#include "utils/trace.h"

namespace pmmrec {
namespace {

class InferenceTest : public test::SmallModelTest {
 protected:
  // Sequence tensor for a prefix built from the cached item table, the
  // same way every scoring path builds it.
  Tensor SeqFromTable(const std::vector<int32_t>& prefix) {
    const std::vector<float>& table = model_.ItemRepresentationTable();
    const int64_t d = config_.d_model;
    const int64_t start = std::max<int64_t>(
        0, static_cast<int64_t>(prefix.size()) - config_.max_seq_len);
    const int64_t len = static_cast<int64_t>(prefix.size()) - start;
    Tensor seq = Tensor::Zeros(Shape{1, len, d});
    for (int64_t l = 0; l < len; ++l) {
      const int32_t item = prefix[static_cast<size_t>(start + l)];
      std::memcpy(seq.data() + l * d,
                  table.data() + static_cast<int64_t>(item) * d,
                  static_cast<size_t>(d) * sizeof(float));
    }
    return seq;
  }
};

TEST_F(InferenceTest, InferenceForwardBitwiseEqualsGradRecordingForward) {
  model_.PrepareForEval();
  const std::vector<int32_t> prefix = ds_.TestPrefix(0);

  const uint64_t nodes_before = internal::AutogradNodesCreated();
  Tensor grad_out = model_.user_encoder().Forward(SeqFromTable(prefix));
  EXPECT_GT(internal::AutogradNodesCreated(), nodes_before)
      << "grad-recording forward built no graph; the A side of the A/B is "
         "not actually the legacy path";

  Tensor inf_out;
  {
    InferenceMode inference;
    const uint64_t nodes_inf = internal::AutogradNodesCreated();
    inf_out = model_.user_encoder().Forward(SeqFromTable(prefix));
    EXPECT_EQ(internal::AutogradNodesCreated(), nodes_inf);
  }

  ASSERT_EQ(inf_out.numel(), grad_out.numel());
  EXPECT_EQ(std::memcmp(inf_out.data(), grad_out.data(),
                        static_cast<size_t>(inf_out.numel()) * sizeof(float)),
            0)
      << "InferenceMode changed forward numerics";
}

TEST_F(InferenceTest, ScoreUsersBatchedBuildsNoGraphAndAllocatesNoGrads) {
  model_.PrepareForEval();  // cache build outside the measured window
  const std::vector<std::vector<int32_t>> prefixes = MixedPrefixes(48);
  std::vector<float> scores(prefixes.size() *
                            static_cast<size_t>(ds_.num_items()));

  const uint64_t nodes_before = internal::AutogradNodesCreated();
  const uint64_t grads_before = internal::GradBuffersAllocated();
  const uint64_t buffers_before = internal::TensorBuffersAllocated();
  model_.ScoreUsersBatched(prefixes, scores.data());
  EXPECT_EQ(internal::AutogradNodesCreated(), nodes_before)
      << "batched scoring recorded autograd nodes";
  EXPECT_EQ(internal::GradBuffersAllocated(), grads_before)
      << "batched scoring allocated gradient storage";
  EXPECT_EQ(internal::TensorBuffersAllocated(), buffers_before)
      << "batched scoring allocated tensor buffers";

  const uint64_t retrieve_before = internal::TensorBuffersAllocated();
  const auto retrieved = model_.RetrieveExactCandidates(prefixes, 10);
  EXPECT_EQ(retrieved.size(), prefixes.size());
  EXPECT_EQ(internal::TensorBuffersAllocated(), retrieve_before)
      << "exact retrieval allocated tensor buffers";
}

TEST_F(InferenceTest, BatchedScoresBitwiseEqualSerialScoreItems) {
  // The packed pass parallelises attention over users and, on a live
  // snapshot, runs the snapshot's encoder clone: neither may show.
  const std::vector<std::vector<int32_t>> prefixes = MixedPrefixes(40);
  const int64_t n_items = ds_.num_items();
  std::vector<std::vector<float>> serial;
  {
    NumThreadsGuard guard(1);
    for (const auto& prefix : prefixes) {
      serial.push_back(model_.ScoreItems(prefix));
      ASSERT_EQ(serial.back().size(), static_cast<size_t>(n_items));
    }
  }
  for (const bool live : {false, true}) {
    const std::shared_ptr<const ServingSnapshot> snap =
        live ? model_.PublishServingSnapshot() : nullptr;
    if (live) {
      ASSERT_NE(snap->user_encoder, nullptr);
    }
    for (const int64_t threads : {int64_t{1}, int64_t{4}}) {
      NumThreadsGuard guard(threads);
      std::vector<float> batched(prefixes.size() *
                                 static_cast<size_t>(n_items));
      if (live) {
        model_.ScoreUsersBatchedOn(snap, prefixes, batched.data());
      } else {
        model_.ScoreUsersBatched(prefixes, batched.data());
      }
      for (size_t u = 0; u < prefixes.size(); ++u) {
        ASSERT_EQ(std::memcmp(serial[u].data(),
                              batched.data() + u * static_cast<size_t>(n_items),
                              serial[u].size() * sizeof(float)),
                  0)
            << (live ? "live" : "strict") << " threads=" << threads
            << " user " << u << " (len " << prefixes[u].size() << ")";
      }
    }
  }
}

TEST_F(InferenceTest, EncodeUsersSpanIsCountedWithinRetrieve) {
  // A traced run splits retrieval into the user-encoding stage and the
  // candidate stage: the encode span must fire and sit inside retrieve.
  model_.PrepareForEval();
  trace::LevelGuard level(trace::Level::kEpoch);
  trace::Counter& encode = trace::Counter::Get("infer.encode_users.ns");
  trace::Counter& retrieve = trace::Counter::Get("infer.retrieve.ns");
  const uint64_t encode_before = encode.value();
  const uint64_t retrieve_before = retrieve.value();
  model_.RetrieveExactCandidates(MixedPrefixes(24), 10);
  const uint64_t encode_ns = encode.value() - encode_before;
  const uint64_t retrieve_ns = retrieve.value() - retrieve_before;
  EXPECT_GT(encode_ns, 0u);
  EXPECT_LE(encode_ns, retrieve_ns);
}

// Forces the legacy per-case evaluator path (ScoreWidth stays -1) over a
// wrapped model. `parallel` additionally opts into the fan-out branch.
class LegacyPathScorer : public Scorer {
 public:
  LegacyPathScorer(Scorer* inner, bool parallel)
      : inner_(inner), parallel_(parallel) {}
  void PrepareForEval() override { inner_->PrepareForEval(); }
  std::vector<float> ScoreItems(const std::vector<int32_t>& prefix) override {
    return inner_->ScoreItems(prefix);
  }
  bool SupportsParallelEval() const override { return parallel_; }

 private:
  Scorer* inner_;
  bool parallel_;
};

// Known width but no batched override: exercises the default
// ScoreItemsBatch fallback, fanned out across the pool.
class DefaultBatchScorer : public Scorer {
 public:
  explicit DefaultBatchScorer(Scorer* inner, int64_t width)
      : inner_(inner), width_(width) {}
  void PrepareForEval() override { inner_->PrepareForEval(); }
  std::vector<float> ScoreItems(const std::vector<int32_t>& prefix) override {
    return inner_->ScoreItems(prefix);
  }
  int64_t ScoreWidth() const override { return width_; }
  bool SupportsParallelEval() const override { return true; }

 private:
  Scorer* inner_;
  int64_t width_;
};

void ExpectMetricsBitwiseEqual(const RankingMetrics& a,
                               const RankingMetrics& b, const char* what) {
  EXPECT_EQ(a.count, b.count) << what;
  EXPECT_EQ(a.hr10, b.hr10) << what;
  EXPECT_EQ(a.hr20, b.hr20) << what;
  EXPECT_EQ(a.hr50, b.hr50) << what;
  EXPECT_EQ(a.ndcg10, b.ndcg10) << what;
  EXPECT_EQ(a.ndcg20, b.ndcg20) << what;
  EXPECT_EQ(a.ndcg50, b.ndcg50) << what;
  EXPECT_EQ(a.mean_rank, b.mean_rank) << what;
}

TEST_F(InferenceTest, EvaluatorMetricsBitwiseIdenticalAcrossPathsAndThreads) {
  constexpr int64_t kMaxUsers = 60;
  // Reference: legacy serial path, single thread.
  RankingMetrics reference;
  {
    NumThreadsGuard guard(1);
    LegacyPathScorer legacy(&model_, /*parallel=*/false);
    reference = EvaluateRanking(legacy, ds_, EvalSplit::kTest, kMaxUsers);
  }
  ASSERT_GT(reference.count, 0);

  for (int64_t threads : {int64_t{1}, int64_t{4}}) {
    NumThreadsGuard guard(threads);
    const std::string tag = "threads=" + std::to_string(threads);

    RankingMetrics batched =
        EvaluateRanking(model_, ds_, EvalSplit::kTest, kMaxUsers);
    ExpectMetricsBitwiseEqual(reference, batched, ("batched " + tag).c_str());

    LegacyPathScorer parallel_legacy(&model_, /*parallel=*/true);
    RankingMetrics fanned =
        EvaluateRanking(parallel_legacy, ds_, EvalSplit::kTest, kMaxUsers);
    ExpectMetricsBitwiseEqual(reference, fanned,
                              ("legacy-parallel " + tag).c_str());

    DefaultBatchScorer default_batch(&model_, ds_.num_items());
    RankingMetrics fallback =
        EvaluateRanking(default_batch, ds_, EvalSplit::kTest, kMaxUsers);
    ExpectMetricsBitwiseEqual(reference, fallback,
                              ("default-batch " + tag).c_str());
  }
}

TEST_F(InferenceTest, ColdStartMetricsBitwiseIdenticalAcrossPathsAndThreads) {
  const std::vector<ColdStartCase> cases = BuildColdStartCases(ds_, 2);
  ASSERT_FALSE(cases.empty());
  constexpr int64_t kMaxCases = 40;

  RankingMetrics reference;
  {
    NumThreadsGuard guard(1);
    LegacyPathScorer legacy(&model_, /*parallel=*/false);
    reference = EvaluateColdStart(legacy, cases, kMaxCases);
  }
  ASSERT_GT(reference.count, 0);

  for (int64_t threads : {int64_t{1}, int64_t{4}}) {
    NumThreadsGuard guard(threads);
    const std::string tag = "threads=" + std::to_string(threads);
    RankingMetrics batched = EvaluateColdStart(model_, cases, kMaxCases);
    ExpectMetricsBitwiseEqual(reference, batched,
                              ("cold-start batched " + tag).c_str());
  }
}

TEST_F(InferenceTest, BaselineBatchedMetricsBitwiseIdenticalToSerial) {
  SasRec sasrec(ds_.num_items(), config_.d_model, config_.max_seq_len, 7);
  sasrec.AttachDataset(&ds_);
  constexpr int64_t kMaxUsers = 60;

  RankingMetrics reference;
  {
    NumThreadsGuard guard(1);
    LegacyPathScorer legacy(&sasrec, /*parallel=*/false);
    reference = EvaluateRanking(legacy, ds_, EvalSplit::kTest, kMaxUsers);
  }
  for (int64_t threads : {int64_t{1}, int64_t{4}}) {
    NumThreadsGuard guard(threads);
    RankingMetrics batched =
        EvaluateRanking(sasrec, ds_, EvalSplit::kTest, kMaxUsers);
    ExpectMetricsBitwiseEqual(
        reference, batched,
        ("sasrec threads=" + std::to_string(threads)).c_str());
  }
}

TEST_F(InferenceTest, ItemTableCacheRebuildsExactlyWhenStale) {
  const ItemTableCache& cache = model_.item_table_cache();
  EXPECT_EQ(cache.rebuilds(), 0u);

  model_.PrepareForEval();
  EXPECT_TRUE(cache.valid());
  EXPECT_EQ(cache.rebuilds(), 1u);

  // Repeat scoring reuses the cache.
  const std::vector<int32_t> prefix = ds_.TestPrefix(0);
  (void)model_.ScoreItems(prefix);
  (void)model_.ScoreItems(prefix);
  model_.PrepareForEval();
  EXPECT_EQ(cache.rebuilds(), 1u);

  // An optimizer step — with no explicit invalidation anywhere — makes the
  // cache stale via the process-wide param-update version.
  test::TrainOneStep(model_, ds_, config_.max_seq_len);
  EXPECT_FALSE(cache.valid()) << "optimizer step left the cache valid";
  (void)model_.ScoreItems(prefix);
  EXPECT_EQ(cache.rebuilds(), 2u);
  EXPECT_TRUE(cache.valid());

  // Loading a checkpoint (even of the same weights) is a param update.
  const std::string path = ::testing::TempDir() + "/inference_test.ckpt";
  ASSERT_TRUE(model_.SaveToFile(path).ok());
  ASSERT_TRUE(model_.LoadFromFile(path).ok());
  EXPECT_FALSE(cache.valid()) << "checkpoint load left the cache valid";
  (void)model_.ScoreItems(prefix);
  EXPECT_EQ(cache.rebuilds(), 3u);

  // Returning to training mode invalidates explicitly.
  model_.SetTrainingMode(true);
  EXPECT_FALSE(cache.valid());
  model_.PrepareForEval();
  EXPECT_EQ(cache.rebuilds(), 4u);

  // Repeat scoring after the rebuild reuses the cache and is value-stable.
  const std::vector<float> again = model_.ScoreItems(prefix);
  const std::vector<float> once_more = model_.ScoreItems(prefix);
  EXPECT_EQ(cache.rebuilds(), 4u);
  ASSERT_EQ(again.size(), once_more.size());
  EXPECT_EQ(std::memcmp(again.data(), once_more.data(),
                        again.size() * sizeof(float)),
            0);
}

TEST_F(InferenceTest, CacheRebuildIsThreadCountIndependent) {
  std::vector<float> table_1thread;
  {
    NumThreadsGuard guard(1);
    model_.SetTrainingMode(true);  // invalidate
    model_.PrepareForEval();
    table_1thread = model_.ItemRepresentationTable();
  }
  {
    NumThreadsGuard guard(4);
    model_.SetTrainingMode(true);  // invalidate again
    model_.PrepareForEval();
    const std::vector<float>& table_4threads =
        model_.ItemRepresentationTable();
    ASSERT_EQ(table_1thread.size(), table_4threads.size());
    EXPECT_EQ(std::memcmp(table_1thread.data(), table_4threads.data(),
                          table_1thread.size() * sizeof(float)),
              0)
        << "cached item table depends on the thread count";
  }
}

// --- Packed item encoding ----------------------------------------------------

std::vector<int32_t> IdRange(int64_t lo, int64_t hi) {
  std::vector<int32_t> ids;
  for (int64_t id = lo; id < hi; ++id) ids.push_back(static_cast<int32_t>(id));
  return ids;
}

void ExpectRowsBitwise(const float* got, const Tensor& want, int64_t n,
                       int64_t d, const std::string& what) {
  ASSERT_EQ(want.rank(), 2) << what;
  ASSERT_EQ(want.dim(0), n) << what;
  ASSERT_EQ(want.dim(1), d) << what;
  for (int64_t i = 0; i < n; ++i) {
    ASSERT_EQ(std::memcmp(got + i * d, want.data() + i * d,
                          static_cast<size_t>(d) * sizeof(float)),
              0)
        << what << " row " << i;
  }
}

// Every row of a snapshot's table against eager EncodeItemReps over the
// snapshot chunk grid (the last chunk ragged when the catalogue is not a
// multiple of the chunk size).
void ExpectTableIsEager(PMMRecModel& model, const ServingSnapshot& snap,
                        const std::string& what) {
  const int64_t n = snap.num_items;
  const int64_t d = snap.width(0);
  for (int64_t lo = 0; lo < n; lo += ItemTableCache::kChunk) {
    const int64_t hi = std::min(n, lo + ItemTableCache::kChunk);
    const Tensor want = model.EncodeItemReps(IdRange(lo, hi)).final_;
    ExpectRowsBitwise(snap.table_data(0).data() + lo * d, want, hi - lo, d,
                      what + " chunk at " + std::to_string(lo));
  }
}

TEST_F(InferenceTest, PackedItemPassBitwiseEqualsEagerInEveryMode) {
  const int64_t n_items = ds_.num_items();
  ASSERT_GT(n_items, 64);
  const std::vector<std::vector<int32_t>> chunks = {
      IdRange(0, 64),                   // a full snapshot chunk
      IdRange(n_items - 37, n_items),   // a ragged one
      IdRange(n_items - 1, n_items),    // a single item
  };
  for (const ModalityMode mode :
       {ModalityMode::kBoth, ModalityMode::kTextOnly,
        ModalityMode::kVisionOnly}) {
    PMMRecConfig config = config_;
    config.modality = mode;
    PMMRecModel model(config, 42);
    model.AttachDataset(&ds_);
    model.SetTrainingMode(false);
    for (const std::vector<int32_t>& ids : chunks) {
      const Tensor want = model.EncodeItemReps(ids).final_;
      for (const int64_t threads : {int64_t{1}, int64_t{4}}) {
        NumThreadsGuard guard(threads);
        InferenceMode inference;
        const Tensor got = model.EncodeItemRepsPacked(ids);
        ExpectRowsBitwise(got.data(), want, static_cast<int64_t>(ids.size()),
                          config.d_model,
                          std::string(ToString(mode)) + " items " +
                              std::to_string(ids.size()) +
                              " threads=" + std::to_string(threads));
      }
    }
  }
}

TEST_F(InferenceTest, PackedItemPassRefusesTrainingMode) {
  model_.SetTrainingMode(true);
  const std::vector<int32_t> ids = {0, 1, 2};
  EXPECT_DEATH(model_.EncodeItemRepsPacked(ids), "training-mode");
}

TEST(PackedItemSnapshotTest, LivePublishAndHotAddHoldEagerRows) {
  BenchmarkSuite suite = BuildBenchmarkSuite(0.2, 13);
  Dataset ds = suite.sources[0];  // Mutable copy: the hot-add target.
  PMMRecModel model(PMMRecConfig::FromDataset(ds), 42);
  model.AttachDataset(&ds);
  NumThreadsGuard guard(4);
  const std::shared_ptr<const ServingSnapshot> v1 =
      model.PublishServingSnapshot();
  ASSERT_NE(v1, nullptr);
  ExpectTableIsEager(model, *v1, "live publish");

  // Hot-add 70 items with content of their own (reversed token order,
  // negated patches), so the grown catalogue re-encodes its boundary chunk
  // and a tail that spans another chunk boundary.
  for (size_t i = 0; i < 70; ++i) {
    ItemContent item = ds.items[i];
    std::reverse(item.tokens.begin(), item.tokens.end());
    for (float& p : item.patches) p = -p;
    ds.items.push_back(std::move(item));
  }
  const std::shared_ptr<const ServingSnapshot> v2 =
      model.PublishServingSnapshot();
  ASSERT_NE(v2, nullptr);
  ASSERT_EQ(v2->num_items, v1->num_items + 70);
  ExpectTableIsEager(model, *v2, "hot-add publish");
}

}  // namespace
}  // namespace pmmrec
