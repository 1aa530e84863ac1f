#ifndef PMMREC_CORE_IVF_H_
#define PMMREC_CORE_IVF_H_

#include <cstdint>
#include <vector>

#include "core/serving.h"
#include "tensor/gemm.h"
#include "utils/topk.h"

namespace pmmrec {

// --- Candidate retrieval (DESIGN.md "Candidate retrieval") ------------------
//
// One interface in front of every way the serving stack can turn a batch
// of user representations into ranked item candidates. Implementations
// share two invariants:
//  - returned candidates are in the canonical (score desc, id asc) order
//    of utils/topk.h, so TopKFromRanked can serve any per-request top-K
//    from them;
//  - every returned score is the EXACT fp32 inner product of the query
//    row with the item's cached fp32 row, computed through the GEMM
//    determinism contract (tensor/gemm.h) — bitwise the score the full
//    MatMulNT scan produces for that (query, item) pair. Approximation
//    only ever narrows WHICH items are returned, never their scores.
class CandidateSource {
 public:
  virtual ~CandidateSource() = default;

  // Per query row (fp32, [num_queries, width()]): up to `limit` ranked
  // candidates. Checked errors: null/non-positive inputs, limit < 1.
  // limit > num_rows() is clamped.
  virtual std::vector<std::vector<ScoredId>> Retrieve(
      const float* queries, int64_t num_queries, int64_t limit) const = 0;

  virtual int64_t num_rows() const = 0;  // Catalogue size.
  virtual int64_t width() const = 0;     // Row width (d_model).
  virtual const char* name() const = 0;
};

// The exact full scan behind the CandidateSource interface: one pass over
// the catalogue per Retrieve call, however many query rows it carries.
// The scan walks gemm::kNC-column tiles; each tile's [num_queries, kNC]
// score block stays in L2 while every row's TopKSelector consumes it, so
// no [num_queries, n] score matrix exists. Each row's result is bitwise
// TopKSelect over its full GemmNT score row, so for any limit >= topk +
// |exclude| the responses equal selecting from the full row (the
// pre-candidate serving path) — the exact-mode baseline every
// approximate source is measured against.
//
// Two constructors, one tile loop: over a gemm::PackedNT (the packed copy
// a snapshot serving the exact route owns; see ServingSnapshot) the
// tiles run straight on its panels; over plain rows (ANN snapshots used
// as exact references, benches) each tile is packed into the GEMM
// kernel's thread-local panel buffer as it is scanned. Both produce the
// same bits. Non-owning: the table must outlive the source.
class ExactCandidateSource final : public CandidateSource {
 public:
  ExactCandidateSource(const float* rows, int64_t n, int64_t d);
  explicit ExactCandidateSource(const gemm::PackedNT* packed);

  std::vector<std::vector<ScoredId>> Retrieve(const float* queries,
                                              int64_t num_queries,
                                              int64_t limit) const override;
  int64_t num_rows() const override { return n_; }
  int64_t width() const override { return d_; }
  const char* name() const override { return "exact"; }

 private:
  const float* rows_ = nullptr;             // unpacked route
  const gemm::PackedNT* packed_ = nullptr;  // packed route
  int64_t n_ = 0;
  int64_t d_ = 0;
};

// --- IVF index --------------------------------------------------------------
//
// Inverted-file ANN index over a row-major fp32 table (MISSRec's interest
// clusters, PAPERS.md, as a serving structure): a coarse k-means
// quantizer (baselines/kmeans.cc) partitions the catalogue into `nlist`
// inverted lists; a query exactly scores the nlist centroids, probes the
// top `nprobe` lists, and exactly re-scores only the rows inside them —
// O(nlist + n * nprobe / nlist) work instead of O(n). Build packs the
// centroids and every list once for gemm::GemmNTPacked, and a query scans
// its probed lists the way ExactCandidateSource scans its table: kNC-column
// tiles of packed panels, each pushed with the list's catalogue ids into
// the query's TopKSelector.
//
// Determinism: k-means is seeded from IvfConfig::seed and bit-identical
// across thread counts (see baselines/kmeans.h); list membership and
// order are pure functions of the table; one ParallelFor chunk owns each
// query. Build() and Retrieve() are therefore bit-identical for every
// PMMREC_NUM_THREADS setting. Staleness: the owner stamps
// built_param_version and Retrieve() checks it against
// ParamUpdateVersion().
class IvfIndex {
 public:
  // Auto-parameter resolution (config value 0): nlist ~= sqrt(n) clamped
  // to [1, n]; nprobe = max(1, nlist / 32); train_sample = min(n,
  // max(64 * nlist, 4096)). Explicit values are range-checked: nlist in
  // [1, n], nprobe in [1, nlist].
  static int64_t ResolveNlist(int64_t configured, int64_t n);
  static int64_t ResolveNprobe(int64_t configured, int64_t nlist);

  // Trains the coarse quantizer on a deterministic strided subsample and
  // fills the inverted lists.
  void Build(const float* rows, int64_t n, int64_t d, const IvfConfig& config);

  // Ranked candidates per query row ([num_queries, width()]): probes the
  // top `nprobe()` lists by exact centroid score and returns up to
  // min(limit, rows scanned) candidates with exact fp32 scores in
  // canonical order. With nprobe == nlist every row is scanned and the
  // result is bitwise ExactCandidateSource::Retrieve's. Checked errors:
  // not built, stale param version, limit < 1.
  std::vector<std::vector<ScoredId>> Retrieve(const float* queries,
                                              int64_t num_queries,
                                              int64_t limit) const;

  bool built() const { return nlist_ > 0; }
  int64_t num_rows() const { return n_; }
  int64_t width() const { return d_; }
  int64_t nlist() const { return nlist_; }
  int64_t nprobe() const { return nprobe_; }
  int64_t list_size(int64_t l) const {
    return offsets_[static_cast<size_t>(l + 1)] -
           offsets_[static_cast<size_t>(l)];
  }

  // ParamUpdateVersion stamp, owned by whoever builds the index (the
  // ItemTableCache stamps its conservative pre-encode version).
  uint64_t built_param_version() const { return built_param_version_; }
  void set_built_param_version(uint64_t v) { built_param_version_ = v; }

  // An index pinned into a live ServingSnapshot turns the global version
  // check off: the snapshot's immutability carries consistency while a
  // trainer thread legitimately advances ParamUpdateVersion (see
  // core/serving.h). Defaults on — direct builds keep the stale check.
  void set_version_check(bool enabled) { version_check_enabled_ = enabled; }
  bool version_check_enabled() const { return version_check_enabled_; }

 private:
  // The top nprobe() lists of one query, by exact centroid score in
  // canonical order. `cscores` is nlist() floats of scratch.
  std::vector<ScoredId> ProbeLists(const float* query, float* cscores) const;

  int64_t n_ = 0;
  int64_t d_ = 0;
  int64_t nlist_ = 0;
  int64_t nprobe_ = 0;
  uint64_t built_param_version_ = 0;
  bool version_check_enabled_ = true;

  gemm::PackedNT centroids_;      // [nlist, d], packed
  std::vector<int64_t> offsets_;  // [nlist + 1] slot ranges per list
  std::vector<int32_t> ids_;      // [n] catalogue id at each slot
  // List l's rows packed in slot order (empty for an empty list).
  std::vector<gemm::PackedNT> lists_;
};

// IvfIndex behind the CandidateSource interface. Non-owning: the index
// (typically a pinned snapshot's ann_index(t)) must outlive the source.
class IvfCandidateSource final : public CandidateSource {
 public:
  explicit IvfCandidateSource(const IvfIndex* index);

  std::vector<std::vector<ScoredId>> Retrieve(const float* queries,
                                              int64_t num_queries,
                                              int64_t limit) const override;
  int64_t num_rows() const override { return index_->num_rows(); }
  int64_t width() const override { return index_->width(); }
  const char* name() const override { return "ivf"; }

 private:
  const IvfIndex* index_;
};

}  // namespace pmmrec

#endif  // PMMREC_CORE_IVF_H_
