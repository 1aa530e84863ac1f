#include "core/pmmrec.h"

#include <algorithm>
#include <cstring>

#include "core/ivf.h"
#include "tensor/kernels.h"
#include "utils/arena.h"
#include "utils/parallel.h"
#include "utils/trace.h"

namespace pmmrec {

PMMRecModel::PMMRecModel(const PMMRecConfig& config, uint64_t seed)
    : config_(config),
      rng_(seed),
      text_encoder_(config, &rng_),
      vision_encoder_(config, &rng_),
      fusion_(config, &rng_),
      user_encoder_(config, &rng_),
      nid_head_(config.d_model, 3, rng_) {
  // 0 leaves the process-wide setting (PMMREC_NUM_THREADS / SetNumThreads)
  // untouched.
  if (config.num_threads > 0) SetNumThreads(config.num_threads);
  RegisterModule("text_encoder", &text_encoder_);
  RegisterModule("vision_encoder", &vision_encoder_);
  RegisterModule("fusion", &fusion_);
  RegisterModule("user_encoder", &user_encoder_);
  RegisterModule("nid_head", &nid_head_);
}

void PMMRecModel::AttachDataset(const Dataset* ds) {
  PMM_CHECK(ds != nullptr);
  PMM_CHECK_EQ(ds->text_vocab_size, static_cast<int32_t>(config_.text_vocab));
  PMM_CHECK_EQ(ds->text_len, static_cast<int32_t>(config_.text_len));
  PMM_CHECK_EQ(ds->n_patches, static_cast<int32_t>(config_.n_patches));
  PMM_CHECK_EQ(ds->patch_dim, static_cast<int32_t>(config_.patch_dim));
  dataset_ = ds;
  item_cache_.Invalidate();
}

void PMMRecModel::SetTrainingMode(bool training) {
  SetTraining(training);
  if (training) item_cache_.Invalidate();
}

PMMRecModel::ItemReps PMMRecModel::EncodeItemReps(
    const std::vector<int32_t>& item_ids) {
  PMM_CHECK_MSG(dataset_ != nullptr, "AttachDataset must be called first");
  ItemReps reps;
  switch (config_.modality) {
    case ModalityMode::kBoth: {
      EncoderOutput text = text_encoder_.EncodeItems(*dataset_, item_ids);
      EncoderOutput vision = vision_encoder_.EncodeItems(*dataset_, item_ids);
      reps.t_cls = text.cls;
      reps.v_cls = vision.cls;
      reps.final_ = fusion_.Forward(text.hidden, vision.hidden);
      break;
    }
    case ModalityMode::kTextOnly: {
      EncoderOutput text = text_encoder_.EncodeItems(*dataset_, item_ids);
      reps.t_cls = text.cls;
      reps.final_ = text.cls;
      break;
    }
    case ModalityMode::kVisionOnly: {
      EncoderOutput vision = vision_encoder_.EncodeItems(*dataset_, item_ids);
      reps.v_cls = vision.cls;
      reps.final_ = vision.cls;
      break;
    }
  }
  return reps;
}

Tensor PMMRecModel::EncodeItemRepsPacked(
    const std::vector<int32_t>& item_ids) const {
  PMM_CHECK_MSG(dataset_ != nullptr, "AttachDataset must be called first");
  const int64_t n = static_cast<int64_t>(item_ids.size());
  const int64_t d = config_.d_model;
  Tensor out = Tensor::Zeros(Shape{n, d});
  switch (config_.modality) {
    case ModalityMode::kBoth: {
      ArenaScratch text(static_cast<size_t>(n * (config_.text_len + 1) * d));
      ArenaScratch vision(
          static_cast<size_t>(n * (config_.n_patches + 1) * d));
      text_encoder_.ForwardPacked(*dataset_, item_ids, text.data(), nullptr);
      vision_encoder_.ForwardPacked(*dataset_, item_ids, vision.data(),
                                    nullptr);
      fusion_.ForwardPacked(text.data(), vision.data(), n, out.data());
      break;
    }
    case ModalityMode::kTextOnly: {
      ArenaScratch text(static_cast<size_t>(n * (config_.text_len + 1) * d));
      text_encoder_.ForwardPacked(*dataset_, item_ids, text.data(),
                                  out.data());
      break;
    }
    case ModalityMode::kVisionOnly: {
      ArenaScratch vision(
          static_cast<size_t>(n * (config_.n_patches + 1) * d));
      vision_encoder_.ForwardPacked(*dataset_, item_ids, vision.data(),
                                    out.data());
      break;
    }
  }
  return out;
}

Tensor PMMRecModel::TrainStepLoss(const SeqBatch& batch) {
  if (batch.num_unique() < 2 || batch.batch_size < 2) return Tensor();
  last_parts_ = LossParts();

  ItemReps reps;
  {
    PMM_TRACE_SCOPE_AT("encode.items", kOp, "encode.items.ns");
    reps = EncodeItemReps(batch.unique_items);
  }
  Tensor seq_reps = GatherSequenceReps(reps.final_, batch.position_to_unique,
                                       batch.batch_size, batch.max_len);
  Tensor hidden;
  {
    PMM_TRACE_SCOPE_AT("encode.user", kOp, "encode.user.ns");
    hidden = user_encoder_.Forward(seq_reps);
  }

  Tensor loss;
  {
    PMM_TRACE_SCOPE_AT("loss.dap", kOp, "loss.dap.ns");
    loss = DapLoss(hidden, reps.final_, batch);
  }
  last_parts_.dap = loss.item();

  if (pretraining_objectives_) {
    if (config_.modality == ModalityMode::kBoth &&
        config_.nicl_mode != NiclMode::kOff) {
      PMM_TRACE_SCOPE_AT("loss.nicl", kOp, "loss.nicl.ns");
      Tensor nicl = CrossModalLoss(reps.t_cls, reps.v_cls, batch,
                                   config_.nicl_mode, config_.temperature);
      if (nicl.defined()) {
        last_parts_.nicl = nicl.item();
        loss = Add(loss, MulScalar(nicl, config_.nicl_weight));
      }
    }
    if (config_.use_nid || config_.use_rcl) {
      const CorruptedBatch corrupted = CorruptSequences(
          batch, config_.nid_shuffle_frac, config_.nid_replace_frac, rng_);
      Tensor corrupted_seq_reps = GatherSequenceReps(
          reps.final_, corrupted.position_to_unique, batch.batch_size,
          batch.max_len);
      Tensor corrupted_hidden = user_encoder_.Forward(corrupted_seq_reps);
      if (config_.use_nid) {
        PMM_TRACE_SCOPE_AT("loss.nid", kOp, "loss.nid.ns");
        Tensor nid = NidLoss(corrupted_hidden, nid_head_, corrupted);
        last_parts_.nid = nid.item();
        loss = Add(loss, MulScalar(nid, config_.nid_weight));
      }
      if (config_.use_rcl) {
        PMM_TRACE_SCOPE_AT("loss.rcl", kOp, "loss.rcl.ns");
        Tensor rcl =
            RclLoss(hidden, corrupted_hidden, batch, config_.temperature);
        if (rcl.defined()) {
          last_parts_.rcl = rcl.item();
          loss = Add(loss, MulScalar(rcl, config_.rcl_weight));
        }
      }
    }
  }
  last_parts_.total = loss.item();
  return loss;
}

void PMMRecModel::ConfigureItemCache() {
  if (AnnServingEnabled()) {
    IvfConfig ivf;
    ivf.nlist = config_.ann_nlist;
    ivf.nprobe = config_.ann_nprobe;
    item_cache_.EnableAnn(ivf);
  }
  // Only the exact route scans the whole table, so only it gets the
  // packed copy; the IVF route would never read it.
  item_cache_.SetExactScanTable(AnnServingEnabled() ? -1 : 0);
}

bool PMMRecModel::EnsureItemTable() {
  PMM_CHECK_MSG(dataset_ != nullptr, "AttachDataset must be called first");
  // Scoring implies eval mode (deterministic dropout path); entering it
  // here keeps "score without an explicit PrepareForEval" working.
  if (training()) SetTraining(false);
  ConfigureItemCache();
  return item_cache_.Ensure(
      dataset_->num_items(), [this](const std::vector<int32_t>& ids) {
        return std::vector<Tensor>{EncodeItemRepsPacked(ids)};
      });
}

std::shared_ptr<const ServingSnapshot> PMMRecModel::PinForServing(
    bool* rebuilt) {
  const bool did_build = EnsureItemTable();
  if (rebuilt != nullptr) *rebuilt = did_build;
  return item_cache_.Pin();
}

std::shared_ptr<const ServingSnapshot> PMMRecModel::PublishServingSnapshot() {
  PMM_CHECK_MSG(dataset_ != nullptr, "AttachDataset must be called first");
  if (training()) SetTraining(false);
  ConfigureItemCache();
  return item_cache_.Publish(
      dataset_->num_items(),
      [this](const std::vector<int32_t>& ids) {
        return std::vector<Tensor>{EncodeItemRepsPacked(ids)};
      },
      [this](ServingSnapshot* snap) {
        // Freeze the user encoder into the snapshot: the clone serves
        // exactly the weights the tables were encoded from, even while
        // the live encoder keeps training. The copy must not bump
        // ParamUpdateVersion — nothing went stale.
        snap->encoder_rng = std::make_unique<Rng>(0x5eedULL);
        snap->user_encoder =
            std::make_unique<UserEncoder>(config_, snap->encoder_rng.get());
        snap->user_encoder->CopyParametersFrom(user_encoder_,
                                               /*bump_version=*/false);
        snap->user_encoder->SetTraining(false);
        // IVF consistency is the snapshot's immutability; the global
        // version counter keeps moving underneath and must not fire.
        for (std::unique_ptr<IvfIndex>& index : snap->ann_indexes) {
          index->set_version_check(false);
        }
      });
}

void PMMRecModel::PrepareForEval() {
  PMM_CHECK_MSG(dataset_ != nullptr, "AttachDataset must be called first");
  SetTraining(false);
  EnsureItemTable();
}

std::vector<float> PMMRecModel::UserRepresentation(
    const std::vector<int32_t>& prefix) {
  PMM_CHECK(!prefix.empty());
  EnsureItemTable();
  InferenceMode inference;
  const int64_t d = config_.d_model;
  const int64_t max_len = config_.max_seq_len;
  const std::vector<float>& table = item_cache_.table_data(0);

  // Keep the most recent max_len interactions.
  const int64_t start =
      std::max<int64_t>(0, static_cast<int64_t>(prefix.size()) - max_len);
  const int64_t len = static_cast<int64_t>(prefix.size()) - start;

  // Build the sequence representations from the cached item table.
  Tensor seq = Tensor::Zeros(Shape{1, len, d});
  for (int64_t l = 0; l < len; ++l) {
    const int32_t item = prefix[static_cast<size_t>(start + l)];
    PMM_CHECK_MSG(item >= 0 && item < dataset_->num_items(),
                  "item id outside the catalogue");
    std::memcpy(seq.data() + l * d,
                table.data() + static_cast<int64_t>(item) * d,
                static_cast<size_t>(d) * sizeof(float));
  }
  Tensor hidden = user_encoder_.Forward(seq);  // [1, len, d]
  const float* h = hidden.data() + (len - 1) * d;
  return std::vector<float>(h, h + d);
}

const std::vector<float>& PMMRecModel::ItemRepresentationTable() {
  EnsureItemTable();
  return item_cache_.table_data(0);
}

std::vector<float> PMMRecModel::ScoreItems(const std::vector<int32_t>& prefix) {
  // Serial reference path: per-user forward plus a hand-rolled ascending-j
  // dot loop. Kept independent of the batched GEMM path so the two can be
  // checked bitwise against each other.
  const std::vector<float> h = UserRepresentation(prefix);
  const std::vector<float>& table = item_cache_.table_data(0);
  const int64_t d = config_.d_model;
  const int64_t n_items = dataset_->num_items();
  std::vector<float> scores(static_cast<size_t>(n_items));
  for (int64_t i = 0; i < n_items; ++i) {
    const float* e = table.data() + i * d;
    float dot = 0.0f;
    for (int64_t j = 0; j < d; ++j) dot += h[static_cast<size_t>(j)] * e[j];
    scores[static_cast<size_t>(i)] = dot;
  }
  return scores;
}

int64_t PMMRecModel::ScoreWidth() const {
  return dataset_ != nullptr ? dataset_->num_items() : -1;
}

void PMMRecModel::ScoreItemsBatch(
    std::span<const std::vector<int32_t>> prefixes, float* out) {
  ScoreUsersBatched(prefixes, out);
}

std::vector<std::vector<ScoredId>> PMMRecModel::ScoreCandidatesBatch(
    std::span<const std::vector<int32_t>> prefixes, int64_t limit) {
  return RetrieveCandidates(prefixes, limit);
}

std::vector<float> PMMRecModel::UserRows(
    const ServingSnapshot& snap,
    std::span<const std::vector<int32_t>> prefixes) {
  PMM_TRACE_SCOPE_AT("infer.encode_users", kOp, "infer.encode_users.ns");
  const int64_t d = config_.d_model;
  // Each user's most recent min(len, max_seq_len) items, packed back to
  // back: sequence u is rows [offsets[u], offsets[u+1]).
  std::vector<int64_t> offsets(prefixes.size() + 1, 0);
  for (size_t u = 0; u < prefixes.size(); ++u) {
    PMM_CHECK_MSG(!prefixes[u].empty(), "empty prefix in batch");
    offsets[u + 1] = offsets[u] + std::min<int64_t>(
        static_cast<int64_t>(prefixes[u].size()), config_.max_seq_len);
  }
  ArenaScratch items(static_cast<size_t>(offsets.back() * d));
  const float* table = snap.table_data(0).data();
  for (size_t u = 0; u < prefixes.size(); ++u) {
    const std::vector<int32_t>& prefix = prefixes[u];
    const int64_t len = offsets[u + 1] - offsets[u];
    const size_t start = prefix.size() - static_cast<size_t>(len);
    for (int64_t l = 0; l < len; ++l) {
      const int32_t item = prefix[start + static_cast<size_t>(l)];
      PMM_CHECK_MSG(item >= 0 && item < snap.num_items,
                    "item id outside the snapshot's catalogue");
      std::memcpy(items.data() + (offsets[u] + l) * d,
                  table + static_cast<int64_t>(item) * d,
                  static_cast<size_t>(d) * sizeof(float));
    }
  }
  const UserEncoder& encoder =
      snap.user_encoder != nullptr ? *snap.user_encoder : user_encoder_;
  std::vector<float> rows(prefixes.size() * static_cast<size_t>(d));
  encoder.ForwardPackedLast(items.data(), offsets, rows.data());
  return rows;
}

void PMMRecModel::ScoreUsersBatched(
    std::span<const std::vector<int32_t>> prefixes, float* out) {
  if (prefixes.empty()) return;
  EnsureItemTable();
  ScoreUsersBatchedOn(item_cache_.Pin(), prefixes, out);
}

void PMMRecModel::ScoreUsersBatchedOn(
    const std::shared_ptr<const ServingSnapshot>& snap,
    std::span<const std::vector<int32_t>> prefixes, float* out) {
  if (prefixes.empty()) return;
  PMM_CHECK(out != nullptr);
  PMM_CHECK(snap != nullptr);
  PMM_TRACE_SCOPE_AT("infer.score_batch", kOp, "infer.score_batch.ns");
  const int64_t users = static_cast<int64_t>(prefixes.size());
  const std::vector<float> rows = UserRows(*snap, prefixes);
  // One GEMM for the batch; each score reduces over d_model, as the serial
  // reference's dot does.
  kernels::MatMulNTForward(rows.data(), snap->table_data(0).data(), out,
                           /*batch=*/1, users, config_.d_model,
                           snap->num_items, /*b_broadcast=*/true);
  PMM_TRACE_COUNT("infer.score_gemms", 1);
  PMM_TRACE_COUNT("infer.users_scored", users);
}

std::vector<std::vector<ScoredId>> PMMRecModel::RetrieveWith(
    const ServingSnapshot& snap, const CandidateSource& source,
    std::span<const std::vector<int32_t>> prefixes, int64_t limit) {
  if (prefixes.empty()) return {};
  PMM_TRACE_SCOPE_AT("infer.retrieve", kOp, "infer.retrieve.ns");
  // The batch's users land in one [U, d] block, so the source makes one
  // pass over the catalogue per batch.
  const std::vector<float> rows = UserRows(snap, prefixes);
  std::vector<std::vector<ScoredId>> results = source.Retrieve(
      rows.data(), static_cast<int64_t>(prefixes.size()), limit);
  PMM_TRACE_COUNT("infer.users_retrieved",
                  static_cast<int64_t>(prefixes.size()));
  return results;
}

namespace {

// The exact scan of a snapshot's table 0: over its packed copy when the
// snapshot carries one, else over the plain rows.
ExactCandidateSource ExactScanOf(const ServingSnapshot& snap, int64_t d) {
  if (const gemm::PackedNT* packed = snap.packed_table(0)) {
    return ExactCandidateSource(packed);
  }
  return ExactCandidateSource(snap.table_data(0).data(), snap.num_items, d);
}

}  // namespace

std::vector<std::vector<ScoredId>> PMMRecModel::RetrieveCandidates(
    std::span<const std::vector<int32_t>> prefixes, int64_t limit) {
  if (prefixes.empty()) return {};
  PMM_CHECK_GE(limit, 1);
  EnsureItemTable();
  return RetrieveCandidatesOn(item_cache_.Pin(), prefixes, limit);
}

std::vector<std::vector<ScoredId>> PMMRecModel::RetrieveCandidatesOn(
    const std::shared_ptr<const ServingSnapshot>& snap,
    std::span<const std::vector<int32_t>> prefixes, int64_t limit) {
  if (prefixes.empty()) return {};
  PMM_CHECK(snap != nullptr);
  PMM_CHECK_GE(limit, 1);
  if (AnnServingEnabled() && snap->ann) {
    IvfCandidateSource source(&snap->ann_index(0));
    return RetrieveWith(*snap, source, prefixes, limit);
  }
  return RetrieveWith(*snap, ExactScanOf(*snap, config_.d_model), prefixes,
                      limit);
}

std::vector<std::vector<ScoredId>> PMMRecModel::RetrieveExactCandidates(
    std::span<const std::vector<int32_t>> prefixes, int64_t limit) {
  if (prefixes.empty()) return {};
  PMM_CHECK_GE(limit, 1);
  EnsureItemTable();
  return RetrieveExactCandidatesOn(item_cache_.Pin(), prefixes, limit);
}

std::vector<std::vector<ScoredId>> PMMRecModel::RetrieveExactCandidatesOn(
    const std::shared_ptr<const ServingSnapshot>& snap,
    std::span<const std::vector<int32_t>> prefixes, int64_t limit) {
  if (prefixes.empty()) return {};
  PMM_CHECK(snap != nullptr);
  PMM_CHECK_GE(limit, 1);
  return RetrieveWith(*snap, ExactScanOf(*snap, config_.d_model), prefixes,
                      limit);
}

void PMMRecModel::TransferFrom(const PMMRecModel& source,
                               TransferSetting setting) {
  switch (setting) {
    case TransferSetting::kFull:
      text_encoder_.CopyParametersFrom(source.text_encoder_);
      vision_encoder_.CopyParametersFrom(source.vision_encoder_);
      fusion_.CopyParametersFrom(source.fusion_);
      user_encoder_.CopyParametersFrom(source.user_encoder_);
      break;
    case TransferSetting::kItemEncoders:
      text_encoder_.CopyParametersFrom(source.text_encoder_);
      vision_encoder_.CopyParametersFrom(source.vision_encoder_);
      fusion_.CopyParametersFrom(source.fusion_);
      break;
    case TransferSetting::kUserEncoder:
      user_encoder_.CopyParametersFrom(source.user_encoder_);
      break;
    case TransferSetting::kTextOnly:
      text_encoder_.CopyParametersFrom(source.text_encoder_);
      user_encoder_.CopyParametersFrom(source.user_encoder_);
      break;
    case TransferSetting::kVisionOnly:
      vision_encoder_.CopyParametersFrom(source.vision_encoder_);
      user_encoder_.CopyParametersFrom(source.user_encoder_);
      break;
  }
  item_cache_.Invalidate();
}

void PMMRecModel::InitEncodersFrom(const TextEncoder& text,
                                   const VisionEncoder& vision) {
  text_encoder_.CopyParametersFrom(text);
  vision_encoder_.CopyParametersFrom(vision);
  item_cache_.Invalidate();
}

}  // namespace pmmrec
