#ifndef PMMREC_CORE_PMMREC_H_
#define PMMREC_CORE_PMMREC_H_

#include <memory>
#include <span>
#include <vector>

#include "core/config.h"
#include "core/fusion.h"
#include "core/item_encoders.h"
#include "core/losses.h"
#include "core/serving.h"
#include "core/trainer.h"
#include "core/transfer.h"
#include "core/user_encoder.h"

namespace pmmrec {

class CandidateSource;  // core/ivf.h

// The Pure Multi-Modality Recommender (paper Sec. III).
//
// Architecture: text encoder + vision encoder -> merge-attention fusion ->
// causal user encoder. During pre-training the model optimizes the
// multi-task objective of Eq. 12 (DAP + NICL + NID + RCL); fine-tuning
// uses DAP alone (Sec. III-E2). Every component is independently
// transferable (TransferFrom), enabling the five transfer settings of
// Table I.
class PMMRecModel : public Module, public TrainableRecommender {
 public:
  PMMRecModel(const PMMRecConfig& config, uint64_t seed);

  // Enables the full pre-training objective; when disabled (default) only
  // DAP is optimized, which is the paper's fine-tuning mode.
  void SetPretrainingObjectives(bool enabled) {
    pretraining_objectives_ = enabled;
  }

  // --- TrainableRecommender ---------------------------------------------------
  void AttachDataset(const Dataset* ds) override;
  Tensor TrainStepLoss(const SeqBatch& batch) override;
  std::vector<Tensor*> TrainableParameters() override { return Parameters(); }
  void SetTrainingMode(bool training) override;
  void PrepareForEval() override;
  std::vector<float> ScoreItems(const std::vector<int32_t>& prefix) override;
  // Scoring only reads the cached item table and runs stateless forward
  // passes under InferenceMode, so the evaluator may fan users out across
  // threads.
  bool SupportsParallelEval() const override { return true; }
  // Batched serving path: one packed user-encoder pass plus one GEMM per
  // batch (see ScoreUsersBatched). The evaluator feeds this serially;
  // parallelism comes from the intra-op kernels.
  bool SupportsBatchedEval() const override { return true; }
  int64_t ScoreWidth() const override;
  void ScoreItemsBatch(std::span<const std::vector<int32_t>> prefixes,
                       float* out) override;
  // Candidate-path evaluation routes only when ANN serving is on — the
  // evaluator then measures the IVF index the serving path actually uses.
  // Exact-route eval stays on the full-scan strategies, so its metrics are
  // untouched by this interface.
  bool SupportsCandidateEval() const override { return AnnServingEnabled(); }
  std::vector<std::vector<ScoredId>> ScoreCandidatesBatch(
      std::span<const std::vector<int32_t>> prefixes, int64_t limit) override;
  // Reseeds the model's single stochastic stream (dropout, corruption) —
  // the data-parallel fit's per-shard determinism hook (core/trainer.h).
  void ReseedStochastic(uint64_t seed) override { rng_.Seed(seed); }

  // --- Frozen-model serving -------------------------------------------------
  // Scores every prefix against the full catalogue, writing
  // prefixes[i]'s scores to out[i * num_items .. (i+1) * num_items).
  //
  // Runs against the persistent item-table cache: one packed user-encoder
  // pass over every prefix's min(len, max_seq_len) most recent
  // interactions (UserEncoder::ForwardPackedLast), then one GEMM against
  // the cached table. The pass reproduces the eager forward's element
  // order and the GEMM determinism contract is per-row, so the scores are
  // bitwise identical to per-user ScoreItems() calls at any thread count.
  void ScoreUsersBatched(std::span<const std::vector<int32_t>> prefixes,
                         float* out);

  // --- ANN candidate retrieval ----------------------------------------------
  // True when serving routes through the IVF index (config.ann_serving).
  // The exact full scan stays the default and the exactness baseline.
  bool AnnServingEnabled() const { return config_.ann_serving; }
  // Ranked candidates per prefix through the active CandidateSource: the
  // IVF index when AnnServingEnabled(), else the exact full scan. Every
  // returned score is the exact fp32 score (bitwise the corresponding
  // ScoreUsersBatched element); each list is fully ordered (score desc,
  // id asc) and holds up to `limit` entries (ANN may return fewer when a
  // probe scans fewer rows).
  std::vector<std::vector<ScoredId>> RetrieveCandidates(
      std::span<const std::vector<int32_t>> prefixes, int64_t limit);
  // The exact full scan behind the CandidateSource interface regardless
  // of AnnServingEnabled(): per prefix, the top-`limit` of the full score
  // row in canonical order — bitwise TopKSelect over the corresponding
  // ScoreUsersBatched row (the broker's fp32 route and the ANN tests'
  // ground truth). The whole batch shares one tiled catalogue scan (see
  // ExactCandidateSource), over the snapshot's packed table when it
  // carries one — snapshots built while this model serves the exact
  // route — and over the plain fp32 rows otherwise (ANN snapshots). Both
  // give the same bits.
  std::vector<std::vector<ScoredId>> RetrieveExactCandidates(
      std::span<const std::vector<int32_t>> prefixes, int64_t limit);

  // --- Versioned serving snapshots ------------------------------------------
  // Strict-mode pin: rebuilds the snapshot when stale (blocking the
  // caller — the historical stall-on-rebuild protocol, exactly-once under
  // concurrency) and pins the current snapshot. `rebuilt`, when non-null,
  // reports whether this call performed the build (the broker's
  // serve.cache_rebuilds accounting).
  std::shared_ptr<const ServingSnapshot> PinForServing(
      bool* rebuilt = nullptr);

  // Live-mode publish: builds vN+1 off the serving hot path — fp32
  // table(s), IVF indexes (version-check off) and a frozen clone of the
  // user encoder — then swaps it in atomically. Workers keep answering
  // from vN until the swap; a request admitted under vN is answered
  // entirely from vN.
  // When the catalogue only grew since the current snapshot (hot-add at
  // an unchanged param version), only the new rows are encoded. Call from
  // one updater thread (builds are serialized internally).
  std::shared_ptr<const ServingSnapshot> PublishServingSnapshot();

  // Snapshot-scoped scoring: identical semantics (and bitwise identical
  // results at a fixed param version) to the unscoped entry points above,
  // but every read — tables, IVF lists, user-encoder parameters — comes
  // from `snap`. For strict snapshots (no encoder
  // clone) the live encoder is used, which is only sound when no training
  // runs concurrently; live snapshots are fully self-contained.
  void ScoreUsersBatchedOn(const std::shared_ptr<const ServingSnapshot>& snap,
                           std::span<const std::vector<int32_t>> prefixes,
                           float* out);
  std::vector<std::vector<ScoredId>> RetrieveCandidatesOn(
      const std::shared_ptr<const ServingSnapshot>& snap,
      std::span<const std::vector<int32_t>> prefixes, int64_t limit);
  std::vector<std::vector<ScoredId>> RetrieveExactCandidatesOn(
      const std::shared_ptr<const ServingSnapshot>& snap,
      std::span<const std::vector<int32_t>> prefixes, int64_t limit);

  // Marks the current snapshot stale without touching parameters: the
  // next Ensure/PinForServing rebuilds in full (no hot-add row reuse).
  // This is the serving-side cost a parameter update imposes on the
  // strict path, isolated — benches use it to measure the
  // stall-on-rebuild baseline without racing real optimizer writes
  // against in-flight strict forwards.
  void InvalidateServingSnapshot() { item_cache_.Invalidate(); }

  // --- Representation export -----------------------------------------------
  // Final-position user-encoder hidden state for a history ([d_model]).
  // Uses the cached item table; no gradients.
  std::vector<float> UserRepresentation(const std::vector<int32_t>& prefix);
  // Cached item-representation table ([num_items * d_model], row-major);
  // built on demand. Useful for embedding export and downstream heads.
  const std::vector<float>& ItemRepresentationTable();

  // --- Plug-and-play transfer ---------------------------------------------------
  // Copies the components selected by `setting` from a (pre-trained)
  // source model with an identical configuration schema.
  void TransferFrom(const PMMRecModel& source, TransferSetting setting);
  // Initializes the item encoders from externally pre-trained encoders
  // (the RoBERTa/CLIP substitute; see PretrainItemEncoders).
  void InitEncodersFrom(const TextEncoder& text, const VisionEncoder& vision);

  TextEncoder& text_encoder() { return text_encoder_; }
  VisionEncoder& vision_encoder() { return vision_encoder_; }
  FusionModule& fusion() { return fusion_; }
  UserEncoder& user_encoder() { return user_encoder_; }
  const PMMRecConfig& config() const { return config_; }
  const Dataset* dataset() const { return dataset_; }
  // Serving cache over the fused item representations (tests, telemetry).
  const ItemTableCache& item_table_cache() const { return item_cache_; }

  // Loss decomposition of the last TrainStepLoss call (diagnostics).
  struct LossParts {
    float total = 0, dap = 0, nicl = 0, nid = 0, rcl = 0;
  };
  const LossParts& last_loss_parts() const { return last_parts_; }

  // Item representations of the given catalogue items under the current
  // modality mode ([n, d], graph-building). Exposed for tests.
  struct ItemReps {
    Tensor t_cls;   // undefined in vision-only mode
    Tensor v_cls;   // undefined in text-only mode
    Tensor final_;  // representation fed to the user encoder
  };
  ItemReps EncodeItemReps(const std::vector<int32_t>& item_ids);
  // The serving snapshots' chunk encoder (set-up, live publish, hot-add,
  // validation): EncodeItemReps(item_ids).final_ ([n, d]) for every
  // modality mode, in one packed pass through the encoders'
  // ForwardPacked methods — bitwise equal at any thread count. Eval mode
  // only (the packed passes refuse a training-mode module); builds no
  // graph.
  Tensor EncodeItemRepsPacked(const std::vector<int32_t>& item_ids) const;

 private:
  PMMRecConfig config_;
  // Single deterministic stream for init, dropout and sequence corruption.
  // Declared before the submodules, which capture a pointer to it.
  Rng rng_;
  TextEncoder text_encoder_;
  VisionEncoder vision_encoder_;
  FusionModule fusion_;
  UserEncoder user_encoder_;
  Linear nid_head_;

  bool pretraining_objectives_ = false;
  const Dataset* dataset_ = nullptr;

  // Tells the item cache what the serving route needs built with every
  // snapshot: the IVF index, or the exact scan's packed table.
  void ConfigureItemCache();
  // Rebuilds the serving snapshot if stale (dataset must be attached);
  // returns true iff this call performed the build.
  bool EnsureItemTable();

  // Shared walk of the retrieval paths: the batch's user representations
  // (from `snap`) in one [U, d_model] block, then one CandidateSource
  // query over it, so the exact route scans the catalogue once per batch.
  std::vector<std::vector<ScoredId>> RetrieveWith(
      const ServingSnapshot& snap, const CandidateSource& source,
      std::span<const std::vector<int32_t>> prefixes, int64_t limit);

  // Final-position user representations of every prefix, row u for
  // prefixes[u] ([U, d_model], row-major): one packed user-encoder pass
  // through the snapshot's encoder clone (the live encoder for strict
  // snapshots). Checks every item id against the snapshot's catalogue.
  // Shared by every serving route, so all see identical user
  // representations.
  std::vector<float> UserRows(const ServingSnapshot& snap,
                              std::span<const std::vector<int32_t>> prefixes);

  // Serving cache: fused representation table of the whole catalogue,
  // encoded once under InferenceMode (table 0: [num_items, d_model]).
  ItemTableCache item_cache_;

  LossParts last_parts_;
};

}  // namespace pmmrec

#endif  // PMMREC_CORE_PMMREC_H_
