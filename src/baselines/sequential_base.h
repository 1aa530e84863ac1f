#ifndef PMMREC_BASELINES_SEQUENTIAL_BASE_H_
#define PMMREC_BASELINES_SEQUENTIAL_BASE_H_

#include <span>
#include <vector>

#include "core/losses.h"
#include "core/serving.h"
#include "core/trainer.h"
#include "nn/layers.h"

namespace pmmrec {

// Common plumbing for every baseline sequential recommender.
//
// Derived classes provide three hooks:
//  - ItemReps(ids):      per-item representation [n, rep_dim]
//  - UserHidden(seq):    sequence encoder [B, L, rep_dim] -> [B, L, d]
//  - TransformQuery/TransformKeys: optional projections applied before the
//    dot-product scoring (identity by default); queries and keys must end
//    up with the same width.
//
// The base implements the shared DAP training step (Eq. 5 with in-batch
// negatives, identical to PMMRec's fine-tuning objective so comparisons
// are apples-to-apples), the cached full-catalogue serving path (an
// ItemTableCache holding the raw reps and the projected scoring keys,
// built once under InferenceMode), and TrainableRecommender boilerplate.
class SequentialRecBase : public Module, public TrainableRecommender {
 public:
  SequentialRecBase(int64_t max_seq_len, uint64_t seed);

  void AttachDataset(const Dataset* ds) override;
  Tensor TrainStepLoss(const SeqBatch& batch) override;
  std::vector<Tensor*> TrainableParameters() override { return Parameters(); }
  void SetTrainingMode(bool training) override;
  void PrepareForEval() override;
  std::vector<float> ScoreItems(const std::vector<int32_t>& prefix) override;
  // Batched serving path (same scheme as PMMRec::ScoreUsersBatched):
  // length-grouped joint forwards plus one MatMulNT per group against the
  // cached key table; bitwise identical to per-user ScoreItems().
  bool SupportsBatchedEval() const override { return true; }
  int64_t ScoreWidth() const override;
  void ScoreItemsBatch(std::span<const std::vector<int32_t>> prefixes,
                       float* out) override;

  // Serving cache over raw item reps (table 0) and scoring keys (table 1).
  const ItemTableCache& item_table_cache() const { return item_cache_; }

 protected:
  // Called after a dataset is attached (features, codebooks, ...).
  virtual void OnAttachDataset() {}
  // Per-item representation for the given catalogue ids: [n, rep_dim].
  virtual Tensor ItemReps(const std::vector<int32_t>& item_ids) = 0;
  // Sequence encoder over gathered item reps: [B, L, rep_dim] -> [B, L, d].
  virtual Tensor UserHidden(const Tensor& seq_reps) = 0;
  // Projections before scoring; shapes [..., d] -> [..., score_dim].
  virtual Tensor TransformQuery(const Tensor& hidden) { return hidden; }
  virtual Tensor TransformKeys(const Tensor& item_reps) { return item_reps; }

  const Dataset* dataset() const { return dataset_; }
  Rng& rng() { return rng_; }

 private:
  // Rebuilds the serving snapshot if stale (dataset must be attached).
  void EnsureTables();
  // Builds [g, len, rep_dim] from the snapshot's raw table for the given
  // same-length group of prefixes, then encodes and projects the final
  // position to scoring queries [g, score_dim]. Every entry point pins
  // one snapshot up front and reads it throughout, so a batch is answered
  // from a single consistent table version.
  Tensor EncodeQueries(const ServingSnapshot& snap,
                       std::span<const std::vector<int32_t>> prefixes,
                       std::span<const int64_t> group, int64_t len);

  static constexpr int64_t kRawTable = 0;
  static constexpr int64_t kKeyTable = 1;

  int64_t max_seq_len_;
  Rng rng_;
  const Dataset* dataset_ = nullptr;

  // Serving cache, invalidated when training resumes or the dataset /
  // parameters change.
  ItemTableCache item_cache_;
};

}  // namespace pmmrec

#endif  // PMMREC_BASELINES_SEQUENTIAL_BASE_H_
