#include "core/user_encoder.h"

#include <cstring>

#include "tensor/kernels.h"
#include "utils/arena.h"

namespace pmmrec {

UserEncoder::UserEncoder(const PMMRecConfig& config, Rng* rng)
    : d_(config.d_model),
      max_len_(config.max_seq_len),
      pos_emb_(config.max_seq_len, config.d_model, *rng),
      encoder_(config.n_user_blocks, config.d_model, config.n_heads,
               config.d_model * config.ffn_mult, config.dropout, rng),
      input_ln_(config.d_model),
      drop_(config.dropout, rng) {
  RegisterModule("pos_emb", &pos_emb_);
  RegisterModule("encoder", &encoder_);
  RegisterModule("input_ln", &input_ln_);
  RegisterModule("drop", &drop_);
}

Tensor UserEncoder::Forward(const Tensor& item_reps) {
  PMM_CHECK_EQ(item_reps.rank(), 3);
  PMM_CHECK_EQ(item_reps.dim(2), d_);
  const int64_t batch = item_reps.dim(0);
  const int64_t len = item_reps.dim(1);
  PMM_CHECK_LE(len, max_len_);

  std::vector<int32_t> positions(static_cast<size_t>(batch * len));
  for (int64_t b = 0; b < batch; ++b) {
    for (int64_t l = 0; l < len; ++l) {
      positions[static_cast<size_t>(b * len + l)] = static_cast<int32_t>(l);
    }
  }
  Tensor pos = Reshape(pos_emb_.Forward(positions), Shape{batch, len, d_});
  Tensor x = drop_.Forward(input_ln_.Forward(Add(item_reps, pos)));
  return encoder_.Forward(x, MultiHeadSelfAttention::CausalMask(len));
}

void UserEncoder::ForwardPackedLast(const float* item_rows,
                                    std::span<const int64_t> offsets,
                                    float* out) const {
  // Forward's dropout is the identity only in eval mode.
  PMM_CHECK_MSG(!training(),
                "packed user encoding of a training-mode encoder — call "
                "SetTraining(false) before scoring");
  PMM_CHECK_GE(offsets.size(), 1u);
  PMM_CHECK_EQ(offsets[0], 0);
  for (size_t u = 0; u + 1 < offsets.size(); ++u) {
    const int64_t len = offsets[u + 1] - offsets[u];
    PMM_CHECK_MSG(len >= 1, "empty sequence in packed user encoding");
    PMM_CHECK_LE(len, max_len_);
  }
  if (offsets.size() == 1) return;
  const int64_t rows = offsets.back();
  const size_t n = static_cast<size_t>(rows * d_);
  // Positions 0..len-1 of a sequence are the first len rows of the
  // position table, which is what Forward's embedding lookup gathers.
  ArenaScratch pos(n);
  for (size_t u = 0; u + 1 < offsets.size(); ++u) {
    std::memcpy(pos.data() + offsets[u] * d_, pos_emb_.weight.data(),
                static_cast<size_t>((offsets[u + 1] - offsets[u]) * d_) *
                    sizeof(float));
  }
  kernels::AddSame(item_rows, pos.data(), pos.data(),
                   static_cast<int64_t>(n));
  ArenaScratch x(n);
  input_ln_.ForwardRows(pos.data(), x.data(), rows);
  encoder_.ForwardPacked(x.data(), offsets, /*causal=*/true,
                         PackedRows::kLast, out);
}

}  // namespace pmmrec
