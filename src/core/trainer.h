#ifndef PMMREC_CORE_TRAINER_H_
#define PMMREC_CORE_TRAINER_H_

#include <memory>
#include <vector>

#include "data/batcher.h"
#include "data/dataset.h"
#include "eval/evaluator.h"
#include "tensor/tensor.h"
#include "utils/rng.h"

namespace pmmrec {

class AdamW;
class PMMRecModel;
struct ServingSnapshot;

// Interface shared by PMMRec and every baseline so a single training loop
// (FitModel) drives them all.
class TrainableRecommender : public Scorer {
 public:
  // Binds the model to a dataset (catalogue + sequences). Must be called
  // before training or scoring.
  virtual void AttachDataset(const Dataset* ds) = 0;
  // Builds the autograd graph for one training step and returns the scalar
  // loss. May return an undefined Tensor to skip a degenerate batch.
  virtual Tensor TrainStepLoss(const SeqBatch& batch) = 0;
  virtual std::vector<Tensor*> TrainableParameters() = 0;
  virtual void SetTrainingMode(bool training) = 0;
  // Must be called after parameters are mutated outside a training step
  // (e.g. best-epoch restoration) so cached item tables are rebuilt. The
  // default flips training mode, which invalidates the caches of every
  // model in this library.
  virtual void InvalidateEvalCache() {
    SetTrainingMode(true);
    SetTrainingMode(false);
  }
  // Deterministically reseeds the model's stochastic stream (dropout,
  // sequence corruption). The sharded fit calls this before every shard
  // forward so a shard's random draws depend only on the mixed seed —
  // never on which rank computes the shard or what ran before it on that
  // rank. Models without such a stream ignore it.
  virtual void ReseedStochastic(uint64_t /*seed*/) {}
};

// Combines per-shard gradients across ranks (dist/allreduce.h). The
// summation order is a pure function of the shard count — never of the
// rank layout or arrival time — which is what makes the fit trajectory
// bitwise identical for every worker count at a fixed shard count.
class GradReducer {
 public:
  virtual ~GradReducer() = default;

  virtual int64_t num_shards() const = 0;  // S: logical gradient shards.
  virtual int64_t num_ranks() const = 0;   // W: participating processes.
  virtual int64_t rank() const = 0;        // This process, in [0, W).
  virtual int64_t grad_numel() const = 0;  // Flat parameter count.

  // Static ownership: rank (s mod W) computes shard s.
  bool Owns(int64_t shard) const { return shard % num_ranks() == rank(); }

  // Flat gradient slot for an owned shard. The owner either fills all
  // grad_numel() floats or zeroes them (degenerate shard) before Reduce.
  virtual float* ShardSlot(int64_t shard) = 0;
  // Owned shard's scalar loss and whether the shard produced a defined
  // loss at all; undefined shards contribute zeros to the combine.
  virtual void SetShardMeta(int64_t shard, double loss, bool defined) = 0;

  // Fixed-order pairwise tree combine over all S shards. On a true
  // return, every rank sees the identical combined gradient in
  // CombinedGrad(), the tree-ordered sum of defined shard losses in
  // *loss_sum, and the defined-shard count in *defined_count. A false
  // return means a peer died or timed out — the fit must abort, never
  // retry (slots may be half-combined).
  virtual bool Reduce(double* loss_sum, int64_t* defined_count) = 0;
  virtual const float* CombinedGrad() const = 0;

  // End-of-step fence: returns once every rank is done reading
  // CombinedGrad(), after which slots may be rewritten. False on peer
  // failure.
  virtual bool EndStep() = 0;

  // End-of-fit agreement check: each rank contributes a fingerprint of
  // its trajectory (losses, metrics, final parameters); true iff every
  // rank produced the same one. Catches any divergence the
  // deterministic-replication design should make impossible.
  virtual bool CheckFingerprint(uint64_t fingerprint) = 0;
};

struct FitOptions {
  int64_t max_epochs = 40;
  int64_t batch_size = 16;
  int64_t max_seq_len = 10;
  float lr = 2e-3f;
  float weight_decay = 0.01f;
  float clip_norm = 5.0f;
  // Early stopping: stop after `patience` epochs without validation HR@10
  // improvement; the best parameters are restored.
  int64_t patience = 3;
  // Validation users per epoch (strided subsample); <= 0 means all.
  int64_t eval_users = 120;
  uint64_t seed = 7;
  bool verbose = false;
  // Intra-op threads for the run; 0 keeps the process-wide setting and 1
  // forces the serial path. Training results are bit-identical for every
  // value (see DESIGN.md "Threading model").
  int64_t num_threads = 0;
};

struct FitResult {
  // Validation HR@10 (in %) after each epoch — the series plotted in the
  // paper's Fig. 3 convergence curves.
  std::vector<double> val_hr10_per_epoch;
  double best_val_hr10 = 0.0;
  int64_t best_epoch = -1;
  int64_t epochs_run = 0;
  double seconds = 0.0;
  double final_train_loss = 0.0;
};

// Trains `model` on the training split of `ds` with AdamW, early stopping
// on validation HR@10, and best-parameter restoration.
//
// With a null `reducer` this is the historical single-process loop,
// bitwise unchanged. With a reducer, every batch is split into
// reducer->num_shards() strided user shards; this rank computes the
// shards it owns, deposits their gradients, and the fixed-order tree
// combine produces one averaged gradient applied identically on every
// rank — so each rank runs the same trajectory and returns the same
// FitResult. S > 1 is a distinct (equally valid) trajectory from S == 1,
// the way a different batch size is; what the reducer guarantees is that
// the trajectory depends only on S, never on the worker count
// (dist/process.h RunDataParallelFit).
FitResult FitModel(TrainableRecommender& model, const Dataset& ds,
                   const FitOptions& options, GradReducer* reducer = nullptr);

// Flat-parameter helpers: the total element count (the size of one
// gradient slot of the all-reduce) and an order-preserving copy of a
// parameter set into one flat buffer (TrainableParameters() order,
// row-major within each tensor).
int64_t TotalParamNumel(const std::vector<Tensor*>& params);
void CopyParamsToFlat(const std::vector<Tensor*>& params, float* out);

// Train-while-serve driver (see DESIGN.md "Versioned serving snapshots").
//
// Owns an AdamW optimizer and a shuffled batch stream over the dataset;
// each Step() applies one optimizer update to the live model, then
// publishes a fresh self-contained ServingSnapshot (frozen encoder clone,
// IVF index when enabled). A RequestBroker in
// live_updates mode picks the new version up on its next pin with no
// stall and no lock shared with the training thread — in-flight batches
// finish on the version they pinned.
//
// Single-threaded by design: one LiveUpdater is the only writer to the
// model's parameters (and, for catalogue hot-add, the only mutator of the
// dataset). Serving workers read only published snapshots.
class LiveUpdater {
 public:
  struct Options {
    int64_t batch_size = 8;
    int64_t max_seq_len = 10;
    float lr = 1e-3f;
    float weight_decay = 0.01f;
    float clip_norm = 5.0f;
    uint64_t seed = 17;
  };

  // The model must already have `ds` attached. Neither is owned.
  LiveUpdater(PMMRecModel* model, const Dataset* ds, const Options& options);
  ~LiveUpdater();

  LiveUpdater(const LiveUpdater&) = delete;
  LiveUpdater& operator=(const LiveUpdater&) = delete;

  // One update cycle: one training step (forward, backward, clipped AdamW
  // step) on the next user group, then publish. Returns the published
  // snapshot. Degenerate groups (< 2 unique items) skip the optimizer
  // step but still publish.
  std::shared_ptr<const ServingSnapshot> Step();

  // Publish without training — e.g. right after hot-adding catalogue
  // items, to make them recommendable from the next pinned snapshot.
  std::shared_ptr<const ServingSnapshot> Publish();

  int64_t steps() const { return steps_; }

 private:
  std::vector<int64_t> NextGroup();

  PMMRecModel* const model_;
  const Dataset* const ds_;
  const Options options_;
  std::unique_ptr<AdamW> optimizer_;
  SequenceBatcher batcher_;
  Rng rng_;
  std::vector<std::vector<int64_t>> groups_;
  size_t next_group_ = 0;
  int64_t steps_ = 0;
};

}  // namespace pmmrec

#endif  // PMMREC_CORE_TRAINER_H_
