#ifndef PMMREC_NN_TRANSFORMER_H_
#define PMMREC_NN_TRANSFORMER_H_

#include <memory>
#include <span>
#include <vector>

#include "nn/layers.h"

namespace pmmrec {

// The rows of each packed sequence a packed forward computes in full
// (K and V are always projected for every row): all of them, each
// sequence's last row (the causal user encoder's output), or its first
// (the fusion's [MM-CLS] row).
enum class PackedRows { kAll, kLast, kFirst };

// Multi-head self-attention over [B, L, d].
//
// Heads are computed by slicing the projected Q/K/V along the feature
// dimension (d must be divisible by n_heads). An optional additive
// attention mask [L, L] or [B, L, L] (0 for allowed, large negative for
// disallowed) is added to the pre-softmax scores; pass an undefined Tensor
// for unmasked attention. CausalMask() builds the standard lower-triangular
// mask used by autoregressive user encoders.
class MultiHeadSelfAttention : public Module {
 public:
  MultiHeadSelfAttention(int64_t d_model, int64_t n_heads, float dropout,
                         Rng* rng);

  Tensor Forward(const Tensor& x, const Tensor& attn_mask);

  // Raw-buffer attention for inference over sequences packed back to
  // back: x is [offsets.back(), d], sequence u owning rows
  // [offsets[u], offsets[u+1]). K and V are projected for every row.
  // With `rows` kAll every row queries and out is [offsets.back(), d];
  // otherwise only each sequence's last or first row queries, read from
  // x_rows ([U, d]), and out is [U, d]. `causal` adds CausalMask(len_u);
  // otherwise no mask is added at all, as Forward does with an undefined
  // mask. Each output row is bitwise the row Forward(x_u, mask) gives for
  // that sequence alone: the same kernels in the same order, with head
  // slices read in place and each score GEMM reducing over the
  // sequence's own length.
  void ForwardPacked(const float* x, std::span<const int64_t> offsets,
                     bool causal, PackedRows rows, const float* x_rows,
                     float* out) const;

  // [L, L] additive mask with -1e9 above the diagonal.
  static Tensor CausalMask(int64_t len);

 private:
  int64_t d_model_;
  int64_t n_heads_;
  int64_t d_head_;
  Linear wq_;
  Linear wk_;
  Linear wv_;
  Linear wo_;
  DropoutLayer attn_drop_;
};

// Post-LN transformer encoder block:
//   x = LN(x + Dropout(SelfAttention(x)))
//   x = LN(x + Dropout(FFN(x)))
class TransformerBlock : public Module {
 public:
  TransformerBlock(int64_t d_model, int64_t n_heads, int64_t ffn_hidden,
                   float dropout, Rng* rng);

  Tensor Forward(const Tensor& x, const Tensor& attn_mask);

  // Raw-buffer forward over packed sequences (see
  // MultiHeadSelfAttention::ForwardPacked). Unless `rows` is kAll the
  // block computes K and V for every row but everything else only for
  // each sequence's last or first row, and out is [U, d]; otherwise out
  // is [offsets.back(), d].
  void ForwardPacked(const float* x, std::span<const int64_t> offsets,
                     bool causal, PackedRows rows, float* out) const;

 private:
  MultiHeadSelfAttention attn_;
  FeedForward ffn_;
  LayerNorm ln1_;
  LayerNorm ln2_;
  DropoutLayer drop1_;
  DropoutLayer drop2_;
};

// Stack of TransformerBlocks.
class TransformerEncoder : public Module {
 public:
  TransformerEncoder(int64_t n_blocks, int64_t d_model, int64_t n_heads,
                     int64_t ffn_hidden, float dropout, Rng* rng);

  Tensor Forward(const Tensor& x, const Tensor& attn_mask);

  // Runs only blocks [first_block, n_blocks); used when lower blocks are
  // frozen and their activations are precomputed.
  Tensor ForwardFrom(const Tensor& x, const Tensor& attn_mask,
                     int64_t first_block);

  // Hidden states of sequences packed back to back in x (see
  // TransformerBlock::ForwardPacked): every block but the last runs over
  // all rows, the last over `rows` — [offsets.back(), d] for kAll, else
  // [U, d].
  void ForwardPacked(const float* x, std::span<const int64_t> offsets,
                     bool causal, PackedRows rows, float* out) const;

  int64_t n_blocks() const { return static_cast<int64_t>(blocks_.size()); }

 private:
  int64_t d_model_;
  std::vector<std::unique_ptr<TransformerBlock>> blocks_;
};

}  // namespace pmmrec

#endif  // PMMREC_NN_TRANSFORMER_H_
