#ifndef PMMREC_CORE_CONFIG_H_
#define PMMREC_CORE_CONFIG_H_

#include <cstdint>
#include <string>

#include "data/dataset.h"

namespace pmmrec {

// Cross-modal contrastive objective variant (paper Sec. III-C; the
// ablation ladder of Table VIII):
//   kOff  — no contrastive alignment ("w/o NICL")
//   kVcl  — Eq. 6: inter-modality positives/negatives only ("only VCL")
//   kIcl  — Eq. 7: + intra-modality negatives (the paper's "only NCL")
//   kNicl — Eq. 8: + inter-/intra-modality next-item positives (full)
enum class NiclMode { kOff, kVcl, kIcl, kNicl };

// Which item modalities feed the user encoder (paper Sec. III-E):
//   kBoth       — fusion module output (full multi-modal PMMRec)
//   kTextOnly   — t_cls fed directly to the user encoder (PMMRec-T)
//   kVisionOnly — v_cls fed directly to the user encoder (PMMRec-V)
enum class ModalityMode { kBoth, kTextOnly, kVisionOnly };

inline const char* ToString(ModalityMode m) {
  switch (m) {
    case ModalityMode::kBoth: return "multi-modal";
    case ModalityMode::kTextOnly: return "text-only";
    case ModalityMode::kVisionOnly: return "vision-only";
  }
  return "?";
}

// Hyper-parameters of a PMMRec model. Content-schema fields (vocab, text
// length, patch geometry) must match the dataset; FromDataset() fills them.
struct PMMRecConfig {
  // Shared hidden width (the paper uses 768; we scale down ~24x since the
  // encoders here are trained from scratch on a synthetic world).
  int64_t d_model = 32;
  int64_t n_heads = 2;
  int64_t ffn_mult = 2;
  float dropout = 0.1f;

  // Item encoders.
  int64_t text_vocab = 240;
  int64_t text_len = 10;
  int64_t n_text_blocks = 2;
  int64_t n_patches = 8;
  int64_t patch_dim = 12;
  int64_t n_vision_blocks = 2;
  int64_t n_fusion_blocks = 1;

  // User encoder (SASRec-style causal transformer, paper Sec. III-B4).
  int64_t max_seq_len = 10;
  int64_t n_user_blocks = 2;

  // Objectives. Fine-tuning always uses DAP alone (paper Sec. III-E2);
  // these switches control pre-training and the Table VIII ablations.
  NiclMode nicl_mode = NiclMode::kNicl;
  bool use_nid = true;
  bool use_rcl = true;
  // NID corruption rates (paper Sec. III-D1).
  float nid_shuffle_frac = 0.15f;
  float nid_replace_frac = 0.05f;
  // Softmax temperature for the contrastive objectives (applied to the
  // l2-normalized similarities of NICL and RCL). The paper's Eq. 6-8 use
  // raw exp(dot), i.e. temperature 1.0.
  float temperature = 0.5f;
  // Objective weights in the multi-task sum (Eq. 12 uses 1.0 for all; at
  // this library's much smaller model width the alignment objectives must
  // be scaled down or they overpower DAP — see DESIGN.md).
  float nicl_weight = 0.15f;
  float nid_weight = 1.0f;
  float rcl_weight = 0.15f;

  ModalityMode modality = ModalityMode::kBoth;

  // Intra-op threads for this model's kernels and eval precompute. 0 keeps
  // the process-wide setting (PMMREC_NUM_THREADS env var, or all hardware
  // threads); 1 forces the exact serial path. Results are bit-identical for
  // every value — see DESIGN.md "Threading model".
  int64_t num_threads = 0;

  // ANN candidate retrieval (DESIGN.md "Candidate retrieval"): route
  // serving through the IVF index instead of the exact full scan. Off by
  // default — exact retrieval stays the serving baseline. pmmrec_cli sets
  // it from --ann.
  bool ann_serving = false;
  // IVF coarse-quantizer geometry. 0 = auto (nlist ~= sqrt(n_items),
  // nprobe = max(1, nlist / 32)); explicit values are range-checked at
  // index build / probe time (nlist in [1, n_items], nprobe in
  // [1, nlist]). The auto nprobe's recall@10 depends on the catalogue:
  // 0.996 on bench_ann's Gaussian-mixture table (BENCH_ann.json), 0.638
  // on perfbench's model catalogue (`serve_ann` quality).
  int64_t ann_nlist = 0;
  int64_t ann_nprobe = 0;

  static PMMRecConfig FromDataset(const Dataset& ds) {
    PMMRecConfig config;
    config.text_vocab = ds.text_vocab_size;
    config.text_len = ds.text_len;
    config.n_patches = ds.n_patches;
    config.patch_dim = ds.patch_dim;
    return config;
  }
};

}  // namespace pmmrec

#endif  // PMMREC_CORE_CONFIG_H_
