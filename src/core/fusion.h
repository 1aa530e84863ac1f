#ifndef PMMREC_CORE_FUSION_H_
#define PMMREC_CORE_FUSION_H_

#include "core/config.h"
#include "nn/transformer.h"

namespace pmmrec {

// Merge-attention multi-modal fusion (paper Sec. III-B3, Eq. 3): a learned
// [MM-CLS] token is prepended to the concatenation of text-token and
// image-patch hidden states and the sequence is run through a Transformer;
// the [MM-CLS] output is the item's multi-modal representation e_cls.
class FusionModule : public Module {
 public:
  FusionModule(const PMMRecConfig& config, Rng* rng);

  // text_hidden: [N, text_len, d]; vision_hidden: [N, n_patches, d].
  // Returns e_cls: [N, d].
  Tensor Forward(const Tensor& text_hidden, const Tensor& vision_hidden);

  // The inference forward over the packed item encoders' outputs (text:
  // [n * (text_len + 1), d], vision: [n * (n_patches + 1), d], each
  // item's [CLS] row first, which fusion skips): packs [MM-CLS], text
  // rows 1..text_len and vision rows 1..n_patches per item, computes K and
  // V of every row in the last block but everything else only for the
  // [MM-CLS] row, and writes e_cls ([n, d]) to out — bitwise Forward on
  // the encoders' hidden slices. Eval mode only; allocates no tensor.
  void ForwardPacked(const float* text, const float* vision, int64_t n,
                     float* out) const;

 private:
  int64_t d_;
  int64_t text_len_;
  int64_t n_patches_;
  Embedding mm_cls_emb_;
  TransformerEncoder encoder_;
};

}  // namespace pmmrec

#endif  // PMMREC_CORE_FUSION_H_
