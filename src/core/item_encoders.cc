#include "core/item_encoders.h"

#include "nn/optimizer.h"
#include "utils/arena.h"
#include "utils/logging.h"

namespace pmmrec {
namespace {

// The packed item encoders' shared tail: the bidirectional encoder over n
// items of `seq` rows each (x, [n * seq, d]) into hidden, then, when
// asked for, the mean over each item's rows as Mean(h, 1) computes it — a
// zero-started sum over the rows in ascending order, then x 1/seq.
void EncodePackedItems(const TransformerEncoder& encoder, const float* x,
                       int64_t n, int64_t seq, int64_t d, float* hidden,
                       float* pooled) {
  std::vector<int64_t> offsets(static_cast<size_t>(n + 1));
  for (int64_t i = 0; i <= n; ++i) offsets[static_cast<size_t>(i)] = i * seq;
  encoder.ForwardPacked(x, offsets, /*causal=*/false, PackedRows::kAll,
                        hidden);
  if (pooled == nullptr) return;
  const float inv = 1.0f / static_cast<float>(seq);
  for (int64_t i = 0; i < n; ++i) {
    float* p = pooled + i * d;
    std::fill(p, p + d, 0.0f);
    for (int64_t r = 0; r < seq; ++r) {
      const float* h = hidden + (i * seq + r) * d;
      for (int64_t c = 0; c < d; ++c) p[c] += h[c];
    }
    for (int64_t c = 0; c < d; ++c) p[c] = p[c] * inv;
  }
}

std::vector<int32_t> ZeroIndices(int64_t n) {
  return std::vector<int32_t>(static_cast<size_t>(n), 0);
}

std::vector<int32_t> PositionIndices(int64_t n_items, int64_t len) {
  std::vector<int32_t> pos(static_cast<size_t>(n_items * len));
  for (int64_t i = 0; i < n_items; ++i) {
    for (int64_t p = 0; p < len; ++p) {
      pos[static_cast<size_t>(i * len + p)] = static_cast<int32_t>(p);
    }
  }
  return pos;
}

}  // namespace

TextEncoder::TextEncoder(const PMMRecConfig& config, Rng* rng)
    : d_(config.d_model),
      text_len_(config.text_len),
      token_emb_(config.text_vocab, config.d_model, *rng),
      pos_emb_(config.text_len + 1, config.d_model, *rng),
      cls_emb_(1, config.d_model, *rng),
      encoder_(config.n_text_blocks, config.d_model, config.n_heads,
               config.d_model * config.ffn_mult, config.dropout, rng),
      drop_(config.dropout, rng) {
  RegisterModule("token_emb", &token_emb_);
  RegisterModule("pos_emb", &pos_emb_);
  RegisterModule("cls_emb", &cls_emb_);
  RegisterModule("encoder", &encoder_);
  RegisterModule("drop", &drop_);
}

EncoderOutput TextEncoder::Forward(const std::vector<int32_t>& tokens,
                                   int64_t n_items) {
  PMM_CHECK_EQ(static_cast<int64_t>(tokens.size()), n_items * text_len_);
  const int64_t seq = text_len_ + 1;  // [CLS] + tokens

  Tensor tok = Reshape(token_emb_.Forward(tokens),
                       Shape{n_items, text_len_, d_});
  Tensor cls = Reshape(cls_emb_.Forward(ZeroIndices(n_items)),
                       Shape{n_items, 1, d_});
  Tensor x = Concat({cls, tok}, 1);  // [N, seq, d]
  Tensor pos = Reshape(pos_emb_.Forward(PositionIndices(n_items, seq)),
                       Shape{n_items, seq, d_});
  x = drop_.Forward(Add(x, pos));
  Tensor h = encoder_.Forward(x, Tensor());  // Bidirectional.

  EncoderOutput out;
  // Feature embedding: mean over all positions (CLS + tokens). Mean
  // pooling preserves the metric structure learned by the reconstruction
  // objectives far better than the CLS position alone, which matters for
  // transfer (see DESIGN.md).
  out.cls = Mean(h, 1, false);
  out.hidden = Slice(h, 1, 1, text_len_);
  return out;
}

EncoderOutput TextEncoder::EncodeItems(const Dataset& ds,
                                       const std::vector<int32_t>& item_ids) {
  const int64_t n = static_cast<int64_t>(item_ids.size());
  std::vector<int32_t> tokens;
  tokens.reserve(static_cast<size_t>(n * text_len_));
  for (int32_t id : item_ids) {
    const auto& item_tokens = ds.items[static_cast<size_t>(id)].tokens;
    PMM_CHECK_EQ(static_cast<int64_t>(item_tokens.size()), text_len_);
    tokens.insert(tokens.end(), item_tokens.begin(), item_tokens.end());
  }
  return Forward(tokens, n);
}

void TextEncoder::ForwardPacked(const Dataset& ds,
                                std::span<const int32_t> item_ids,
                                float* hidden, float* pooled) const {
  // Forward's dropout is the identity only in eval mode.
  PMM_CHECK_MSG(!training(),
                "packed item encoding of a training-mode encoder — call "
                "SetTraining(false) before encoding");
  const int64_t n = static_cast<int64_t>(item_ids.size());
  const int64_t seq = text_len_ + 1;  // [CLS] + tokens
  const int64_t vocab = token_emb_.vocab_size();
  const float* tok = token_emb_.weight.data();
  const float* pos = pos_emb_.weight.data();
  const float* cls = cls_emb_.weight.data();
  // Forward's Concat of the gathered embeddings plus the position rows:
  // the same embedding + position add per element, written in place.
  ArenaScratch x(static_cast<size_t>(n * seq * d_));
  for (int64_t i = 0; i < n; ++i) {
    const auto& tokens = ds.items[static_cast<size_t>(item_ids[i])].tokens;
    PMM_CHECK_EQ(static_cast<int64_t>(tokens.size()), text_len_);
    for (int64_t p = 0; p < seq; ++p) {
      const float* e = cls;
      if (p > 0) {
        const int64_t t = tokens[static_cast<size_t>(p - 1)];
        PMM_CHECK_MSG(t >= 0 && t < vocab, "token id out of range");
        e = tok + t * d_;
      }
      float* xr = x.data() + (i * seq + p) * d_;
      for (int64_t c = 0; c < d_; ++c) xr[c] = e[c] + pos[p * d_ + c];
    }
  }
  EncodePackedItems(encoder_, x.data(), n, seq, d_, hidden, pooled);
}

VisionEncoder::VisionEncoder(const PMMRecConfig& config, Rng* rng)
    : d_(config.d_model),
      n_patches_(config.n_patches),
      patch_dim_(config.patch_dim),
      patch_proj_(config.patch_dim, config.d_model, *rng),
      pos_emb_(config.n_patches + 1, config.d_model, *rng),
      cls_emb_(1, config.d_model, *rng),
      encoder_(config.n_vision_blocks, config.d_model, config.n_heads,
               config.d_model * config.ffn_mult, config.dropout, rng),
      drop_(config.dropout, rng) {
  RegisterModule("patch_proj", &patch_proj_);
  RegisterModule("pos_emb", &pos_emb_);
  RegisterModule("cls_emb", &cls_emb_);
  RegisterModule("encoder", &encoder_);
  RegisterModule("drop", &drop_);
}

EncoderOutput VisionEncoder::Forward(const std::vector<float>& patches,
                                     int64_t n_items) {
  PMM_CHECK_EQ(static_cast<int64_t>(patches.size()),
               n_items * n_patches_ * patch_dim_);
  const int64_t seq = n_patches_ + 1;

  Tensor raw = Tensor::FromVector(Shape{n_items, n_patches_, patch_dim_},
                                  patches);
  Tensor proj = patch_proj_.Forward(raw);  // [N, P, d]
  Tensor cls = Reshape(cls_emb_.Forward(ZeroIndices(n_items)),
                       Shape{n_items, 1, d_});
  Tensor x = Concat({cls, proj}, 1);
  Tensor pos = Reshape(pos_emb_.Forward(PositionIndices(n_items, seq)),
                       Shape{n_items, seq, d_});
  x = drop_.Forward(Add(x, pos));
  Tensor h = encoder_.Forward(x, Tensor());

  EncoderOutput out;
  // Mean-pooled feature embedding; see the text-encoder comment.
  out.cls = Mean(h, 1, false);
  out.hidden = Slice(h, 1, 1, n_patches_);
  return out;
}

EncoderOutput VisionEncoder::EncodeItems(
    const Dataset& ds, const std::vector<int32_t>& item_ids) {
  const int64_t n = static_cast<int64_t>(item_ids.size());
  std::vector<float> patches;
  patches.reserve(static_cast<size_t>(n * n_patches_ * patch_dim_));
  for (int32_t id : item_ids) {
    const auto& item_patches = ds.items[static_cast<size_t>(id)].patches;
    PMM_CHECK_EQ(static_cast<int64_t>(item_patches.size()),
                 n_patches_ * patch_dim_);
    patches.insert(patches.end(), item_patches.begin(), item_patches.end());
  }
  return Forward(patches, n);
}

void VisionEncoder::ForwardPacked(const Dataset& ds,
                                  std::span<const int32_t> item_ids,
                                  float* hidden, float* pooled) const {
  PMM_CHECK_MSG(!training(),
                "packed item encoding of a training-mode encoder — call "
                "SetTraining(false) before encoding");
  const int64_t n = static_cast<int64_t>(item_ids.size());
  const int64_t seq = n_patches_ + 1;
  const int64_t patch_floats = n_patches_ * patch_dim_;
  ArenaScratch raw(static_cast<size_t>(n * patch_floats));
  for (int64_t i = 0; i < n; ++i) {
    const auto& patches =
        ds.items[static_cast<size_t>(item_ids[i])].patches;
    PMM_CHECK_EQ(static_cast<int64_t>(patches.size()), patch_floats);
    std::copy(patches.begin(), patches.end(), raw.data() + i * patch_floats);
  }
  ArenaScratch proj(static_cast<size_t>(n * n_patches_ * d_));
  patch_proj_.ForwardRows(raw.data(), proj.data(), n * n_patches_);
  const float* pos = pos_emb_.weight.data();
  const float* cls = cls_emb_.weight.data();
  ArenaScratch x(static_cast<size_t>(n * seq * d_));
  for (int64_t i = 0; i < n; ++i) {
    for (int64_t p = 0; p < seq; ++p) {
      const float* e =
          p == 0 ? cls : proj.data() + (i * n_patches_ + p - 1) * d_;
      float* xr = x.data() + (i * seq + p) * d_;
      for (int64_t c = 0; c < d_; ++c) xr[c] = e[c] + pos[p * d_ + c];
    }
  }
  EncodePackedItems(encoder_, x.data(), n, seq, d_, hidden, pooled);
}

float PretrainItemEncoders(TextEncoder* text_encoder,
                           VisionEncoder* vision_encoder,
                           const Dataset& corpus,
                           const EncoderPretrainConfig& config) {
  PMM_CHECK(text_encoder != nullptr);
  PMM_CHECK(vision_encoder != nullptr);
  Rng rng(config.seed);
  const int64_t n_items = corpus.num_items();
  const int64_t text_len = corpus.text_len;
  const int32_t vocab = corpus.text_vocab_size;

  const int64_t n_patches = corpus.n_patches;
  const int64_t patch_dim = corpus.patch_dim;

  // Temporary decoder head for masked-patch reconstruction; trained
  // jointly and discarded with the pre-training (as in MAE).
  const int64_t d_model = text_encoder->token_embedding().embedding_dim();
  Rng head_rng(config.seed ^ 0x9E37ULL);
  Linear patch_decoder(d_model, patch_dim, head_rng);

  // Discarded latent-distillation heads (see EncoderPretrainConfig).
  const int64_t latent_dim =
      corpus.items.empty()
          ? 0
          : static_cast<int64_t>(corpus.items[0].true_latent.size());
  const bool distill = config.latent_distill_weight > 0.0f && latent_dim > 0;
  Linear text_latent_head(d_model, std::max<int64_t>(latent_dim, 1),
                          head_rng);
  Linear vision_latent_head(d_model, std::max<int64_t>(latent_dim, 1),
                            head_rng);

  std::vector<Tensor*> params = text_encoder->Parameters();
  {
    auto vp = vision_encoder->Parameters();
    params.insert(params.end(), vp.begin(), vp.end());
    auto hp = patch_decoder.Parameters();
    params.insert(params.end(), hp.begin(), hp.end());
    if (distill) {
      auto tp = text_latent_head.Parameters();
      params.insert(params.end(), tp.begin(), tp.end());
      auto vlp = vision_latent_head.Parameters();
      params.insert(params.end(), vlp.begin(), vlp.end());
    }
  }
  AdamW optimizer(params, config.lr);

  float last_loss = 0.0f;
  for (int64_t epoch = 0; epoch < config.epochs; ++epoch) {
    std::vector<int64_t> order(static_cast<size_t>(n_items));
    for (size_t i = 0; i < order.size(); ++i) {
      order[i] = static_cast<int64_t>(i);
    }
    rng.Shuffle(order);

    double epoch_loss = 0.0;
    int64_t steps = 0;
    for (size_t start = 0; start < order.size();
         start += static_cast<size_t>(config.batch_items)) {
      const size_t end = std::min(
          order.size(), start + static_cast<size_t>(config.batch_items));
      if (end - start < 4) break;  // Contrastive loss needs negatives.
      std::vector<int32_t> ids;
      ids.reserve(end - start);
      for (size_t i = start; i < end; ++i) {
        ids.push_back(static_cast<int32_t>(order[i]));
      }
      const int64_t b = static_cast<int64_t>(ids.size());

      // --- Masked-token prediction (text) ---------------------------------
      std::vector<int32_t> tokens;
      std::vector<int32_t> mlm_targets;  // -1 = not masked
      tokens.reserve(static_cast<size_t>(b * text_len));
      mlm_targets.reserve(static_cast<size_t>(b * text_len));
      for (int32_t id : ids) {
        const auto& item_tokens = corpus.items[static_cast<size_t>(id)].tokens;
        for (int32_t tok : item_tokens) {
          if (rng.Bernoulli(config.mask_frac)) {
            mlm_targets.push_back(tok);
            // Replace with a random token (no dedicated [MASK] symbol in
            // the synthetic vocab; random-replacement masking is the
            // RoBERTa "10% random" branch generalized).
            tokens.push_back(static_cast<int32_t>(
                rng.NextUint64(static_cast<uint64_t>(vocab))));
          } else {
            mlm_targets.push_back(-1);
            tokens.push_back(tok);
          }
        }
      }
      EncoderOutput text_out = text_encoder->Forward(tokens, b);
      // Tied output projection: logits = hidden . E^T.
      Tensor flat_hidden =
          Reshape(text_out.hidden, Shape{b * text_len, text_encoder
                                                          ->token_embedding()
                                                          .embedding_dim()});
      Tensor logits =
          MatMulNT(flat_hidden, text_encoder->token_embedding().weight);
      bool any_masked = false;
      for (int32_t t : mlm_targets) {
        if (t >= 0) {
          any_masked = true;
          break;
        }
      }
      Tensor mlm_loss = any_masked ? CrossEntropy(logits, mlm_targets, -1)
                                   : Tensor::Scalar(0.0f);

      // --- Masked-patch input (shared by MAE + CLIP objectives) ------------
      std::vector<float> patches;
      std::vector<float> originals;
      std::vector<float> patch_mask;  // 1 where masked.
      patches.reserve(static_cast<size_t>(b * n_patches * patch_dim));
      for (int32_t id : ids) {
        const auto& item_patches =
            corpus.items[static_cast<size_t>(id)].patches;
        originals.insert(originals.end(), item_patches.begin(),
                         item_patches.end());
        for (int64_t p = 0; p < n_patches; ++p) {
          const bool masked = rng.Bernoulli(config.patch_mask_frac);
          patch_mask.push_back(masked ? 1.0f : 0.0f);
          for (int64_t o = 0; o < patch_dim; ++o) {
            patches.push_back(
                masked ? 0.0f
                       : item_patches[static_cast<size_t>(p * patch_dim + o)]);
          }
        }
      }
      EncoderOutput vis_out = vision_encoder->Forward(patches, b);

      // MAE-style reconstruction of the masked patches.
      Tensor predicted = patch_decoder.Forward(vis_out.hidden);
      Tensor target = Tensor::FromVector(
          Shape{b, n_patches, patch_dim}, originals);
      Tensor mask_t = Tensor::FromVector(Shape{b, n_patches, 1}, patch_mask);
      float masked_count = 0.0f;
      for (float m : patch_mask) masked_count += m;
      Tensor recon_loss =
          masked_count > 0.0f
              ? MulScalar(SumAll(Mul(Square(Sub(predicted, target)), mask_t)),
                          1.0f / (masked_count * static_cast<float>(patch_dim)))
              : Tensor::Scalar(0.0f);

      // --- CLIP-style text<->image contrastive alignment -------------------
      Tensor t_n = L2Normalize(text_out.cls);
      Tensor v_n = L2Normalize(vis_out.cls);
      Tensor sim = MulScalar(MatMulNT(t_n, v_n),
                             1.0f / config.temperature);  // [b, b]
      std::vector<int32_t> diag(static_cast<size_t>(b));
      for (int64_t i = 0; i < b; ++i) diag[static_cast<size_t>(i)] =
          static_cast<int32_t>(i);
      Tensor clip_loss = MulScalar(
          Add(CrossEntropy(sim, diag), CrossEntropy(TransposeLast2(sim), diag)),
          0.5f);

      Tensor loss =
          Add(Add(mlm_loss, MulScalar(clip_loss, config.clip_weight)),
              MulScalar(recon_loss, config.reconstruction_weight));

      if (distill) {
        std::vector<float> latents;
        latents.reserve(static_cast<size_t>(b * latent_dim));
        for (int32_t id : ids) {
          const auto& z = corpus.items[static_cast<size_t>(id)].true_latent;
          latents.insert(latents.end(), z.begin(), z.end());
        }
        Tensor z_target = Tensor::FromVector(Shape{b, latent_dim}, latents);
        Tensor t_pred = text_latent_head.Forward(text_out.cls);
        Tensor v_pred = vision_latent_head.Forward(vis_out.cls);
        Tensor distill_loss = Add(MeanAll(Square(Sub(t_pred, z_target))),
                                  MeanAll(Square(Sub(v_pred, z_target))));
        loss = Add(loss,
                   MulScalar(distill_loss, config.latent_distill_weight));
      }
      optimizer.ZeroGrad();
      loss.Backward();
      ClipGradNorm(params, 5.0f);
      optimizer.Step();
      epoch_loss += loss.item();
      ++steps;
      last_loss = loss.item();
    }
    if (config.verbose && steps > 0) {
      PMM_LOG(Info) << "encoder pretrain epoch " << epoch << " loss "
                    << epoch_loss / static_cast<double>(steps);
    }
  }
  return last_loss;
}

PretrainedEncoders::PretrainedEncoders(const PMMRecConfig& config,
                                       uint64_t seed)
    : config_(config),
      rng_(seed),
      text_(config, &rng_),
      vision_(config, &rng_) {}

void PretrainedEncoders::Pretrain(const Dataset& corpus,
                                  const EncoderPretrainConfig& config) {
  text_.SetTraining(true);
  vision_.SetTraining(true);
  PretrainItemEncoders(&text_, &vision_, corpus, config);
  text_.SetTraining(false);
  vision_.SetTraining(false);
}

std::vector<float> PretrainedEncoders::FrozenTextFeatures(const Dataset& ds) {
  NoGradGuard no_grad;
  text_.SetTraining(false);
  const int64_t n = ds.num_items();
  const int64_t d = config_.d_model;
  std::vector<float> features(static_cast<size_t>(n * d));
  constexpr int64_t kChunk = 64;
  for (int64_t start = 0; start < n; start += kChunk) {
    const int64_t count = std::min<int64_t>(kChunk, n - start);
    std::vector<int32_t> ids(static_cast<size_t>(count));
    for (int64_t i = 0; i < count; ++i) {
      ids[static_cast<size_t>(i)] = static_cast<int32_t>(start + i);
    }
    EncoderOutput out = text_.EncodeItems(ds, ids);
    std::copy(out.cls.data(), out.cls.data() + count * d,
              features.begin() + start * d);
  }
  return features;
}

std::vector<float> PretrainedEncoders::FrozenVisionFeatures(
    const Dataset& ds) {
  NoGradGuard no_grad;
  vision_.SetTraining(false);
  const int64_t n = ds.num_items();
  const int64_t d = config_.d_model;
  std::vector<float> features(static_cast<size_t>(n * d));
  constexpr int64_t kChunk = 64;
  for (int64_t start = 0; start < n; start += kChunk) {
    const int64_t count = std::min<int64_t>(kChunk, n - start);
    std::vector<int32_t> ids(static_cast<size_t>(count));
    for (int64_t i = 0; i < count; ++i) {
      ids[static_cast<size_t>(i)] = static_cast<int32_t>(start + i);
    }
    EncoderOutput out = vision_.EncodeItems(ds, ids);
    std::copy(out.cls.data(), out.cls.data() + count * d,
              features.begin() + start * d);
  }
  return features;
}

}  // namespace pmmrec
