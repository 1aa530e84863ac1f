#include "nn/transformer.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "tensor/gemm.h"
#include "tensor/kernels.h"
#include "utils/arena.h"
#include "utils/parallel.h"

namespace pmmrec {

namespace {
// CausalMask's additive score for a key after the query position.
constexpr float kMaskedScore = -1e9f;
}  // namespace

MultiHeadSelfAttention::MultiHeadSelfAttention(int64_t d_model,
                                               int64_t n_heads, float dropout,
                                               Rng* rng)
    : d_model_(d_model),
      n_heads_(n_heads),
      d_head_(d_model / n_heads),
      wq_(d_model, d_model, *rng),
      wk_(d_model, d_model, *rng),
      wv_(d_model, d_model, *rng),
      wo_(d_model, d_model, *rng),
      attn_drop_(dropout, rng) {
  PMM_CHECK_EQ(d_head_ * n_heads, d_model);
  RegisterModule("wq", &wq_);
  RegisterModule("wk", &wk_);
  RegisterModule("wv", &wv_);
  RegisterModule("wo", &wo_);
  RegisterModule("attn_drop", &attn_drop_);
}

Tensor MultiHeadSelfAttention::CausalMask(int64_t len) {
  Tensor mask = Tensor::Zeros(Shape{len, len});
  float* m = mask.data();
  for (int64_t i = 0; i < len; ++i) {
    for (int64_t j = i + 1; j < len; ++j) m[i * len + j] = kMaskedScore;
  }
  return mask;
}

Tensor MultiHeadSelfAttention::Forward(const Tensor& x,
                                       const Tensor& attn_mask) {
  PMM_CHECK_EQ(x.rank(), 3);
  PMM_CHECK_EQ(x.dim(2), d_model_);
  const Tensor q = wq_.Forward(x);
  const Tensor k = wk_.Forward(x);
  const Tensor v = wv_.Forward(x);
  const float scale = 1.0f / std::sqrt(static_cast<float>(d_head_));

  std::vector<Tensor> head_outputs;
  head_outputs.reserve(static_cast<size_t>(n_heads_));
  for (int64_t h = 0; h < n_heads_; ++h) {
    const Tensor qh = Slice(q, 2, h * d_head_, d_head_);  // [B, L, dh]
    const Tensor kh = Slice(k, 2, h * d_head_, d_head_);
    const Tensor vh = Slice(v, 2, h * d_head_, d_head_);
    Tensor scores = MulScalar(MatMulNT(qh, kh), scale);
    if (attn_mask.defined()) scores = Add(scores, attn_mask);
    Tensor attn = attn_drop_.Forward(Softmax(scores));
    head_outputs.push_back(MatMul(attn, vh));  // [B, L, dh]
  }
  const Tensor merged = n_heads_ == 1 ? head_outputs[0]
                                      : Concat(head_outputs, 2);
  return wo_.Forward(merged);
}

void MultiHeadSelfAttention::ForwardPacked(const float* x,
                                           std::span<const int64_t> offsets,
                                           bool causal, PackedRows rows,
                                           const float* x_rows,
                                           float* out) const {
  const int64_t users = static_cast<int64_t>(offsets.size()) - 1;
  const int64_t n_rows = offsets.back();
  const bool all = rows == PackedRows::kAll;
  const int64_t q_rows = all ? n_rows : users;
  const int64_t d = d_model_;
  ArenaScratch q(static_cast<size_t>(q_rows * d));
  ArenaScratch k(static_cast<size_t>(n_rows * d));
  ArenaScratch v(static_cast<size_t>(n_rows * d));
  // The heads write their columns of this zero-filled [q_rows, d] block in
  // place, which is what Concat of the per-head outputs assembles.
  ArenaScratch heads(static_cast<size_t>(q_rows * d));
  wq_.ForwardRows(all ? x : x_rows, q.data(), q_rows);
  wk_.ForwardRows(x, k.data(), n_rows);
  wv_.ForwardRows(x, v.data(), n_rows);
  const float scale = 1.0f / std::sqrt(static_cast<float>(d_head_));

  // Each chunk owns whole sequences and runs them serially, so no result
  // depends on the thread count. Per head: scores = Q_h K_h^T reducing over
  // d_head, x scale, (+ causal mask), row softmax, then P V_h reducing over
  // the sequence's own length — Forward's element order. Head slices are
  // read in place (leading dimension d): a GEMM element's accumulation
  // chain depends only on the reduction length and its coordinates.
  const int64_t mean_len =
      std::max<int64_t>(1, n_rows / std::max<int64_t>(1, users));
  const int64_t cost = 4 * d * mean_len * (all ? mean_len : 1);
  ParallelFor(0, users, GrainForCost(cost), [&](int64_t u0, int64_t u1) {
    int64_t max_len = 0;
    for (int64_t u = u0; u < u1; ++u) {
      max_len = std::max(max_len, offsets[u + 1] - offsets[u]);
    }
    ArenaScratch scores(static_cast<size_t>(max_len * max_len));
    ArenaScratch mask(causal ? static_cast<size_t>(max_len * max_len) : 0);
    for (int64_t u = u0; u < u1; ++u) {
      const int64_t lo = offsets[u];
      const int64_t len = offsets[u + 1] - lo;
      // The querying positions are [first, first + nq): rows of the
      // sequence's full score matrix.
      const int64_t first = rows == PackedRows::kLast ? len - 1 : 0;
      const int64_t nq = all ? len : 1;
      const int64_t cells = nq * len;
      float* m = mask.data();
      if (causal) {
        for (int64_t i = 0; i < nq; ++i) {
          for (int64_t j = 0; j < len; ++j) {
            m[i * len + j] = j > first + i ? kMaskedScore : 0.0f;
          }
        }
      }
      const float* qu = q.data() + (all ? lo : u) * d;
      float* hu = heads.data() + (all ? lo : u) * d;
      float* s = scores.data();
      for (int64_t h = 0; h < n_heads_; ++h) {
        const int64_t col = h * d_head_;
        std::fill(s, s + cells, 0.0f);
        gemm::GemmNT(qu + col, k.data() + lo * d + col, s, nq, d_head_, len,
                     d, d, len);
        kernels::MulScalarN(s, scale, s, cells);
        if (causal) kernels::AddSame(s, m, s, cells);
        kernels::SoftmaxRows(s, s, nq, len);
        gemm::GemmNN(s, v.data() + lo * d + col, hu + col, nq, len, d_head_,
                     len, d, d);
      }
    }
  });
  wo_.ForwardRows(heads.data(), out, q_rows);
}

TransformerBlock::TransformerBlock(int64_t d_model, int64_t n_heads,
                                   int64_t ffn_hidden, float dropout, Rng* rng)
    : attn_(d_model, n_heads, dropout, rng),
      ffn_(d_model, ffn_hidden, dropout, rng),
      ln1_(d_model),
      ln2_(d_model),
      drop1_(dropout, rng),
      drop2_(dropout, rng) {
  RegisterModule("attn", &attn_);
  RegisterModule("ffn", &ffn_);
  RegisterModule("ln1", &ln1_);
  RegisterModule("ln2", &ln2_);
  RegisterModule("drop1", &drop1_);
  RegisterModule("drop2", &drop2_);
}

Tensor TransformerBlock::Forward(const Tensor& x, const Tensor& attn_mask) {
  Tensor h = ln1_.Forward(Add(x, drop1_.Forward(attn_.Forward(x, attn_mask))));
  return ln2_.Forward(Add(h, drop2_.Forward(ffn_.Forward(h))));
}

void TransformerBlock::ForwardPacked(const float* x,
                                     std::span<const int64_t> offsets,
                                     bool causal, PackedRows rows,
                                     float* out) const {
  const int64_t users = static_cast<int64_t>(offsets.size()) - 1;
  const int64_t d = ln1_.gamma.numel();
  const bool all = rows == PackedRows::kAll;
  const int64_t n_rows = all ? offsets.back() : users;
  const size_t n = static_cast<size_t>(n_rows * d);
  // Each sequence's kept row of x: the residual input of the rows kept.
  ArenaScratch x_kept(all ? 0 : n);
  if (!all) {
    for (int64_t u = 0; u < users; ++u) {
      const int64_t row =
          rows == PackedRows::kLast ? offsets[u + 1] - 1 : offsets[u];
      std::memcpy(x_kept.data() + u * d, x + row * d,
                  static_cast<size_t>(d) * sizeof(float));
    }
  }
  const float* residual = all ? x : x_kept.data();
  ArenaScratch a(n);
  ArenaScratch h(n);
  ArenaScratch f(n);
  attn_.ForwardPacked(x, offsets, causal, rows, all ? nullptr : x_kept.data(),
                      a.data());
  // Forward's two residual sub-layers; dropout is the identity here.
  kernels::AddSame(residual, a.data(), a.data(), static_cast<int64_t>(n));
  ln1_.ForwardRows(a.data(), h.data(), n_rows);
  ffn_.ForwardRows(h.data(), f.data(), n_rows);
  kernels::AddSame(h.data(), f.data(), f.data(), static_cast<int64_t>(n));
  ln2_.ForwardRows(f.data(), out, n_rows);
}

TransformerEncoder::TransformerEncoder(int64_t n_blocks, int64_t d_model,
                                       int64_t n_heads, int64_t ffn_hidden,
                                       float dropout, Rng* rng)
    : d_model_(d_model) {
  PMM_CHECK_GE(n_blocks, 1);
  blocks_.reserve(static_cast<size_t>(n_blocks));
  for (int64_t i = 0; i < n_blocks; ++i) {
    blocks_.push_back(std::make_unique<TransformerBlock>(
        d_model, n_heads, ffn_hidden, dropout, rng));
    RegisterModule("block" + std::to_string(i), blocks_.back().get());
  }
}

Tensor TransformerEncoder::Forward(const Tensor& x, const Tensor& attn_mask) {
  return ForwardFrom(x, attn_mask, 0);
}

Tensor TransformerEncoder::ForwardFrom(const Tensor& x,
                                       const Tensor& attn_mask,
                                       int64_t first_block) {
  PMM_CHECK_GE(first_block, 0);
  PMM_CHECK_LE(first_block, n_blocks());
  Tensor h = x;
  for (int64_t i = first_block; i < n_blocks(); ++i) {
    h = blocks_[static_cast<size_t>(i)]->Forward(h, attn_mask);
  }
  return h;
}

void TransformerEncoder::ForwardPacked(const float* x,
                                       std::span<const int64_t> offsets,
                                       bool causal, PackedRows rows,
                                       float* out) const {
  const size_t n = static_cast<size_t>(offsets.back() * d_model_);
  ArenaScratch ping(n_blocks() > 1 ? n : 0);
  ArenaScratch pong(n_blocks() > 2 ? n : 0);
  const float* h = x;
  for (int64_t i = 0; i + 1 < n_blocks(); ++i) {
    float* next = i % 2 == 0 ? ping.data() : pong.data();
    blocks_[static_cast<size_t>(i)]->ForwardPacked(h, offsets, causal,
                                                   PackedRows::kAll, next);
    h = next;
  }
  blocks_.back()->ForwardPacked(h, offsets, causal, rows, out);
}

}  // namespace pmmrec
