#include "core/fusion.h"

#include <algorithm>
#include <cstring>
#include <vector>

#include "utils/arena.h"

namespace pmmrec {

FusionModule::FusionModule(const PMMRecConfig& config, Rng* rng)
    : d_(config.d_model),
      text_len_(config.text_len),
      n_patches_(config.n_patches),
      mm_cls_emb_(1, config.d_model, *rng),
      encoder_(config.n_fusion_blocks, config.d_model, config.n_heads,
               config.d_model * config.ffn_mult, config.dropout, rng) {
  RegisterModule("mm_cls_emb", &mm_cls_emb_);
  RegisterModule("encoder", &encoder_);
}

Tensor FusionModule::Forward(const Tensor& text_hidden,
                             const Tensor& vision_hidden) {
  PMM_CHECK_EQ(text_hidden.rank(), 3);
  PMM_CHECK_EQ(vision_hidden.rank(), 3);
  PMM_CHECK_EQ(text_hidden.dim(0), vision_hidden.dim(0));
  PMM_CHECK_EQ(text_hidden.dim(2), d_);
  PMM_CHECK_EQ(vision_hidden.dim(2), d_);
  const int64_t n = text_hidden.dim(0);

  Tensor cls = Reshape(
      mm_cls_emb_.Forward(std::vector<int32_t>(static_cast<size_t>(n), 0)),
      Shape{n, 1, d_});
  Tensor x = Concat({cls, text_hidden, vision_hidden}, 1);
  Tensor h = encoder_.Forward(x, Tensor());
  return Reshape(Slice(h, 1, 0, 1), Shape{n, d_});
}

void FusionModule::ForwardPacked(const float* text, const float* vision,
                                 int64_t n, float* out) const {
  PMM_CHECK_MSG(!training(),
                "packed fusion of a training-mode module — call "
                "SetTraining(false) before encoding");
  const int64_t seq = 1 + text_len_ + n_patches_;
  const size_t row_bytes = static_cast<size_t>(d_) * sizeof(float);
  // Forward's Concat({cls, text_hidden, vision_hidden}, 1), item by item.
  ArenaScratch x(static_cast<size_t>(n * seq * d_));
  std::vector<int64_t> offsets(static_cast<size_t>(n + 1));
  for (int64_t i = 0; i < n; ++i) {
    float* xi = x.data() + i * seq * d_;
    std::copy(mm_cls_emb_.weight.data(), mm_cls_emb_.weight.data() + d_, xi);
    std::memcpy(xi + d_, text + (i * (text_len_ + 1) + 1) * d_,
                static_cast<size_t>(text_len_) * row_bytes);
    std::memcpy(xi + (1 + text_len_) * d_,
                vision + (i * (n_patches_ + 1) + 1) * d_,
                static_cast<size_t>(n_patches_) * row_bytes);
    offsets[static_cast<size_t>(i)] = i * seq;
  }
  offsets.back() = n * seq;
  encoder_.ForwardPacked(x.data(), offsets, /*causal=*/false,
                         PackedRows::kFirst, out);
}

}  // namespace pmmrec
