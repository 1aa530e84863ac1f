#ifndef PMMREC_CORE_ITEM_ENCODERS_H_
#define PMMREC_CORE_ITEM_ENCODERS_H_

#include <span>
#include <vector>

#include "core/config.h"
#include "data/dataset.h"
#include "nn/transformer.h"

namespace pmmrec {

// Hidden states produced by an item encoder for a batch of items.
struct EncoderOutput {
  Tensor cls;     // [N, d] — the modality feature embedding (t_cls / v_cls)
  Tensor hidden;  // [N, tokens, d] — per-token states fed to the fusion
};

// Text item encoder: token embeddings + [CLS] + positional embeddings +
// bidirectional transformer. Stands in for the multilingual RoBERTa of the
// paper (Sec. III-B1); PretrainItemEncoders() provides the "pre-trained"
// initialization.
class TextEncoder : public Module {
 public:
  TextEncoder(const PMMRecConfig& config, Rng* rng);

  // tokens: row-major [n_items, text_len].
  EncoderOutput Forward(const std::vector<int32_t>& tokens, int64_t n_items);
  // Convenience: encodes dataset items by id.
  EncoderOutput EncodeItems(const Dataset& ds,
                            const std::vector<int32_t>& item_ids);

  // The inference forward over dataset items by id, one packed pass over
  // every item's [CLS] + token rows: hidden receives Forward's h, all
  // text_len + 1 rows of each item back to back ([ids.size() *
  // (text_len + 1), d]); pooled, when non-null, its mean-pooled cls
  // ([ids.size(), d]). Bitwise Forward's values at any thread count.
  // Eval mode only; builds no graph, allocates no tensor.
  void ForwardPacked(const Dataset& ds, std::span<const int32_t> item_ids,
                     float* hidden, float* pooled) const;

  Embedding& token_embedding() { return token_emb_; }

 private:
  int64_t d_;
  int64_t text_len_;
  Embedding token_emb_;
  Embedding pos_emb_;  // positions over [CLS] + tokens
  Embedding cls_emb_;  // single learned [CLS] vector
  TransformerEncoder encoder_;
  DropoutLayer drop_;
};

// Vision item encoder: linear patch projection + [CLS] + positional
// embeddings + transformer; stands in for CLIP-ViT (paper Sec. III-B2).
class VisionEncoder : public Module {
 public:
  VisionEncoder(const PMMRecConfig& config, Rng* rng);

  // patches: row-major [n_items, n_patches, patch_dim].
  EncoderOutput Forward(const std::vector<float>& patches, int64_t n_items);
  EncoderOutput EncodeItems(const Dataset& ds,
                            const std::vector<int32_t>& item_ids);

  // TextEncoder::ForwardPacked's vision counterpart: hidden receives all
  // n_patches + 1 rows of each item ([ids.size() * (n_patches + 1), d]).
  void ForwardPacked(const Dataset& ds, std::span<const int32_t> item_ids,
                     float* hidden, float* pooled) const;

 private:
  int64_t d_;
  int64_t n_patches_;
  int64_t patch_dim_;
  Linear patch_proj_;
  Embedding pos_emb_;
  Embedding cls_emb_;
  TransformerEncoder encoder_;
  DropoutLayer drop_;
};

// "Pre-trained encoder" substitute (see DESIGN.md): jointly trains the two
// encoders on a content corpus with
//  (a) masked-token prediction for the text encoder (RoBERTa-style),
//  (b) masked-patch reconstruction for the vision encoder (MAE-style) —
//      essential for metric-preserving features: a purely contrastive
//      objective spreads all items uniformly and destroys the similarity
//      structure that transfer depends on, and
//  (c) a symmetric text<->image contrastive loss (CLIP-style),
// so that downstream models start from content-aware representations, as
// the paper's RoBERTa/CLIP checkpoints do.
struct EncoderPretrainConfig {
  int64_t epochs = 3;
  int64_t batch_items = 48;
  float lr = 2e-3f;
  float mask_frac = 0.3f;
  float patch_mask_frac = 0.4f;
  float temperature = 0.5f;
  float clip_weight = 0.3f;
  float reconstruction_weight = 2.0f;
  // Latent distillation: regress each modality's feature embedding onto
  // the item's generative latent (through a discarded linear head). This
  // is the explicit stand-in for what web-scale pre-training gives the
  // paper's RoBERTa/CLIP checkpoints — features whose geometry reflects
  // the true semantic manifold — which tiny encoders cannot reach from
  // a few thousand synthetic items with self-supervision alone (see
  // DESIGN.md, "substitutions"). Set to 0 for purely self-supervised
  // pre-training.
  float latent_distill_weight = 2.0f;
  uint64_t seed = 99;
  bool verbose = false;
};

// Returns the final combined training loss (for smoke checks).
float PretrainItemEncoders(TextEncoder* text_encoder,
                           VisionEncoder* vision_encoder,
                           const Dataset& corpus,
                           const EncoderPretrainConfig& config);

// A bundle of pre-trained item encoders shared across models — the
// stand-in for the public RoBERTa / CLIP-ViT checkpoints that PMMRec and
// the content baselines (MoRec++, CARCA++, FDSA, UniSRec, VQRec) all start
// from. Non-copyable; models copy the weights they need via
// CopyParametersFrom, and frozen-feature baselines call the feature
// extractors.
class PretrainedEncoders {
 public:
  PretrainedEncoders(const PMMRecConfig& config, uint64_t seed);

  // Runs the pre-training substitute on the corpus dataset.
  void Pretrain(const Dataset& corpus, const EncoderPretrainConfig& config);

  TextEncoder& text() { return text_; }
  VisionEncoder& vision() { return vision_; }
  const TextEncoder& text() const { return text_; }
  const VisionEncoder& vision() const { return vision_; }
  const PMMRecConfig& config() const { return config_; }

  // Frozen CLS features of every item in `ds` ([num_items, d_model],
  // row-major, no gradients) — what non-end-to-end methods such as UniSRec
  // and VQRec consume.
  std::vector<float> FrozenTextFeatures(const Dataset& ds);
  std::vector<float> FrozenVisionFeatures(const Dataset& ds);

 private:
  PMMRecConfig config_;
  Rng rng_;
  TextEncoder text_;
  VisionEncoder vision_;
};

}  // namespace pmmrec

#endif  // PMMREC_CORE_ITEM_ENCODERS_H_
