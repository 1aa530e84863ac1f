#include "baselines/sequential_base.h"

#include <algorithm>
#include <cstring>

#include "utils/trace.h"

namespace pmmrec {

SequentialRecBase::SequentialRecBase(int64_t max_seq_len, uint64_t seed)
    : max_seq_len_(max_seq_len), rng_(seed) {}

void SequentialRecBase::AttachDataset(const Dataset* ds) {
  PMM_CHECK(ds != nullptr);
  dataset_ = ds;
  item_cache_.Invalidate();
  OnAttachDataset();
}

void SequentialRecBase::SetTrainingMode(bool training) {
  SetTraining(training);
  if (training) item_cache_.Invalidate();
}

Tensor SequentialRecBase::TrainStepLoss(const SeqBatch& batch) {
  if (batch.num_unique() < 2 || batch.batch_size < 2) return Tensor();
  Tensor raw_reps = ItemReps(batch.unique_items);  // [U, rep_dim]
  Tensor seq_reps = GatherSequenceReps(raw_reps, batch.position_to_unique,
                                       batch.batch_size, batch.max_len);
  Tensor hidden = UserHidden(seq_reps);  // [B, L, d]
  Tensor queries = TransformQuery(hidden);
  Tensor keys = TransformKeys(raw_reps);
  return DapLoss(queries, keys, batch);
}

void SequentialRecBase::EnsureTables() {
  PMM_CHECK_MSG(dataset_ != nullptr, "AttachDataset must be called first");
  // Scoring implies eval mode (deterministic dropout path); entering it
  // here keeps "score without an explicit PrepareForEval" working.
  if (training()) SetTraining(false);
  item_cache_.Ensure(dataset_->num_items(),
                     [this](const std::vector<int32_t>& ids) {
                       Tensor raw = ItemReps(ids);
                       Tensor keys = TransformKeys(raw);
                       return std::vector<Tensor>{raw, keys};
                     });
}

void SequentialRecBase::PrepareForEval() {
  PMM_CHECK_MSG(dataset_ != nullptr, "AttachDataset must be called first");
  SetTraining(false);
  EnsureTables();
}

Tensor SequentialRecBase::EncodeQueries(
    const ServingSnapshot& snap,
    std::span<const std::vector<int32_t>> prefixes,
    std::span<const int64_t> group, int64_t len) {
  const std::vector<float>& raw = snap.table_data(kRawTable);
  const int64_t rep_dim = snap.width(kRawTable);
  const int64_t g = static_cast<int64_t>(group.size());

  Tensor seq = Tensor::Zeros(Shape{g, len, rep_dim});
  for (int64_t r = 0; r < g; ++r) {
    const std::vector<int32_t>& prefix =
        prefixes[static_cast<size_t>(group[static_cast<size_t>(r)])];
    const int64_t start = static_cast<int64_t>(prefix.size()) - len;
    for (int64_t l = 0; l < len; ++l) {
      const int32_t item = prefix[static_cast<size_t>(start + l)];
      std::memcpy(seq.data() + (r * len + l) * rep_dim,
                  raw.data() + static_cast<int64_t>(item) * rep_dim,
                  static_cast<size_t>(rep_dim) * sizeof(float));
    }
  }
  Tensor hidden = UserHidden(seq);  // [g, len, d]
  Tensor query = TransformQuery(Slice(hidden, /*dim=*/1, /*start=*/len - 1,
                                      /*length=*/1));  // [g, 1, score_dim]
  return Reshape(query, Shape{g, snap.width(kKeyTable)});
}

std::vector<float> SequentialRecBase::ScoreItems(
    const std::vector<int32_t>& prefix) {
  PMM_CHECK(!prefix.empty());
  EnsureTables();
  const std::shared_ptr<const ServingSnapshot> snap = item_cache_.Pin();
  InferenceMode inference;

  const int64_t len =
      std::min<int64_t>(static_cast<int64_t>(prefix.size()), max_seq_len_);
  const int64_t solo[1] = {0};
  Tensor query = EncodeQueries(
      *snap, std::span<const std::vector<int32_t>>(&prefix, 1),
      std::span<const int64_t>(solo, 1), len);  // [1, score_dim]
  const float* q = query.data();

  // Serial reference path: hand-rolled ascending-j dot loop, kept
  // independent of the batched GEMM path so the two can be checked
  // bitwise against each other.
  const std::vector<float>& keys = snap->table_data(kKeyTable);
  const int64_t score_dim = snap->width(kKeyTable);
  const int64_t n_items = snap->num_items;
  std::vector<float> scores(static_cast<size_t>(n_items));
  for (int64_t i = 0; i < n_items; ++i) {
    const float* k = keys.data() + i * score_dim;
    float dot = 0.0f;
    for (int64_t j = 0; j < score_dim; ++j) dot += q[j] * k[j];
    scores[static_cast<size_t>(i)] = dot;
  }
  return scores;
}

int64_t SequentialRecBase::ScoreWidth() const {
  return dataset_ != nullptr ? dataset_->num_items() : -1;
}

void SequentialRecBase::ScoreItemsBatch(
    std::span<const std::vector<int32_t>> prefixes, float* out) {
  if (prefixes.empty()) return;
  PMM_CHECK(out != nullptr);
  EnsureTables();
  const std::shared_ptr<const ServingSnapshot> snap = item_cache_.Pin();
  PMM_TRACE_SCOPE_AT("infer.score_batch", kOp, "infer.score_batch.ns");
  InferenceMode inference;
  const int64_t n_items = snap->num_items;

  // Group users by effective sequence length; same-length users share one
  // joint forward (see PMMRecModel::ScoreUsersBatched for why this is
  // bitwise identical to the per-user path).
  std::vector<std::vector<int64_t>> groups(
      static_cast<size_t>(max_seq_len_) + 1);
  for (size_t u = 0; u < prefixes.size(); ++u) {
    PMM_CHECK_MSG(!prefixes[u].empty(), "empty prefix in batch");
    const int64_t len = std::min<int64_t>(
        static_cast<int64_t>(prefixes[u].size()), max_seq_len_);
    groups[static_cast<size_t>(len)].push_back(static_cast<int64_t>(u));
  }

  for (int64_t len = 1; len <= max_seq_len_; ++len) {
    const std::vector<int64_t>& group = groups[static_cast<size_t>(len)];
    if (group.empty()) continue;
    const int64_t g = static_cast<int64_t>(group.size());

    Tensor queries =
        EncodeQueries(*snap, prefixes, group, len);  // [g, score_dim]
    Tensor scores =
        MatMulNT(queries, snap->table(kKeyTable));  // [g, n_items]
    PMM_TRACE_COUNT("infer.score_gemms", 1);

    for (int64_t r = 0; r < g; ++r) {
      std::memcpy(out + group[static_cast<size_t>(r)] * n_items,
                  scores.data() + r * n_items,
                  static_cast<size_t>(n_items) * sizeof(float));
    }
  }
  PMM_TRACE_COUNT("infer.users_scored",
                  static_cast<int64_t>(prefixes.size()));
}

}  // namespace pmmrec
