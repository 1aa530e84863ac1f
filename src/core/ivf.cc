#include "core/ivf.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <utility>

#include "baselines/kmeans.h"
#include "nn/optimizer.h"
#include "tensor/gemm.h"
#include "utils/arena.h"
#include "utils/check.h"
#include "utils/parallel.h"
#include "utils/rng.h"
#include "utils/trace.h"

namespace pmmrec {

// --- ExactCandidateSource ---------------------------------------------------

ExactCandidateSource::ExactCandidateSource(const float* rows, int64_t n,
                                           int64_t d)
    : rows_(rows), n_(n), d_(d) {
  PMM_CHECK(rows != nullptr);
  PMM_CHECK_GT(n, 0);
  PMM_CHECK_GT(d, 0);
}

ExactCandidateSource::ExactCandidateSource(const gemm::PackedNT* packed)
    : packed_(packed) {
  PMM_CHECK(packed != nullptr);
  n_ = packed->rows();
  d_ = packed->depth();
  PMM_CHECK_GT(n_, 0);
}

std::vector<std::vector<ScoredId>> ExactCandidateSource::Retrieve(
    const float* queries, int64_t num_queries, int64_t limit) const {
  PMM_CHECK(queries != nullptr);
  PMM_CHECK_GT(num_queries, 0);
  PMM_CHECK_GE(limit, 1);
  const int64_t eff = std::min(limit, n_);

  std::vector<std::vector<ScoredId>> results(
      static_cast<size_t>(num_queries));
  // Query rows are independent (owner dimension = query row), and the
  // GEMM chain of an element does not depend on its row or column band,
  // so every split of rows and tiles yields the full-row GemmNT bits.
  ParallelFor(0, num_queries, /*grain=*/gemm::kMR, [&](int64_t r0,
                                                       int64_t r1) {
    const int64_t m = r1 - r0;
    const float* a = queries + r0 * d_;
    std::vector<TopKSelector> selectors(static_cast<size_t>(m),
                                        TopKSelector(eff));
    BufferArena& arena = BufferArena::Global();
    std::vector<float> tile =
        arena.AcquireVec(static_cast<size_t>(m * gemm::kNC));
    for (int64_t j0 = 0; j0 < n_; j0 += gemm::kNC) {
      const int64_t nc = std::min(gemm::kNC, n_ - j0);
      std::memset(tile.data(), 0, static_cast<size_t>(m * nc) * sizeof(float));
      if (packed_ != nullptr) {
        gemm::GemmNTPacked(a, *packed_, tile.data(), m, j0, nc, d_, nc);
      } else {
        gemm::GemmNT(a, rows_ + j0 * d_, tile.data(), m, d_, nc, d_, d_, nc);
      }
      for (int64_t r = 0; r < m; ++r) {
        selectors[static_cast<size_t>(r)].Push(tile.data() + r * nc, nc);
      }
    }
    for (int64_t r = 0; r < m; ++r) {
      results[static_cast<size_t>(r0 + r)] =
          selectors[static_cast<size_t>(r)].Take();
    }
    arena.Release(std::move(tile));
  });
  return results;
}

// --- IvfIndex ---------------------------------------------------------------

int64_t IvfIndex::ResolveNlist(int64_t configured, int64_t n) {
  PMM_CHECK_GT(n, 0);
  if (configured == 0) {
    const int64_t root = std::llround(std::sqrt(static_cast<double>(n)));
    return std::max<int64_t>(1, std::min(n, root));
  }
  PMM_CHECK_MSG(configured >= 1 && configured <= n,
                "IVF nlist must be in [1, n_rows]");
  return configured;
}

int64_t IvfIndex::ResolveNprobe(int64_t configured, int64_t nlist) {
  PMM_CHECK_GE(nlist, 1);
  // nlist/32 probes scan ~n/32 rows in expectation. Recall@10 at that
  // default depends on the table: 0.996 on bench_ann's 100k-item
  // Gaussian-mixture table (BENCH_ann.json), but 0.638 on perfbench's
  // 50k-item model catalogue (`serve_ann` quality), whose item
  // representations do not cluster that cleanly.
  if (configured == 0) return std::max<int64_t>(1, nlist / 32);
  PMM_CHECK_MSG(configured >= 1 && configured <= nlist,
                "IVF nprobe must be in [1, nlist]");
  return configured;
}

void IvfIndex::Build(const float* rows, int64_t n, int64_t d,
                     const IvfConfig& config) {
  PMM_CHECK(rows != nullptr);
  PMM_CHECK_GT(n, 0);
  PMM_CHECK_GT(d, 0);
  PMM_TRACE_SCOPE_AT("ann.build", kEpoch, "ann.build.ns");

  n_ = n;
  d_ = d;
  nlist_ = ResolveNlist(config.nlist, n);
  nprobe_ = ResolveNprobe(config.nprobe, nlist_);

  // Train the coarse quantizer on an evenly strided subsample — a pure
  // function of (n, train_sample), so index builds are reproducible and
  // the trainer stays O(sample * nlist * d) at catalogue scale.
  int64_t sample_n = config.train_sample;
  if (sample_n == 0) {
    sample_n = std::min(n, std::max<int64_t>(64 * nlist_, 4096));
  }
  PMM_CHECK_MSG(sample_n >= nlist_ && sample_n <= n,
                "IVF train_sample must be in [nlist, n_rows]");
  std::vector<float> centroids;
  {
    PMM_TRACE_SCOPE_AT("ann.train", kEpoch, "ann.train.ns");
    std::vector<float> sample(static_cast<size_t>(sample_n * d));
    for (int64_t s = 0; s < sample_n; ++s) {
      const int64_t i = s * n / sample_n;
      std::memcpy(sample.data() + s * d, rows + i * d,
                  static_cast<size_t>(d) * sizeof(float));
    }
    Rng rng(config.seed);
    centroids =
        KMeans(sample, sample_n, d, nlist_, config.train_iterations, rng);
  }
  centroids_ = gemm::PackNT(centroids.data(), nlist_, d, d);

  // Assign every catalogue row to its nearest centroid. Per-row
  // independent, so the ParallelFor is bit-identical across thread counts.
  std::vector<int64_t> list_of(static_cast<size_t>(n));
  ParallelFor(0, n, GrainForCost(nlist_ * d * 3),
              [&](int64_t i0, int64_t i1) {
                for (int64_t i = i0; i < i1; ++i) {
                  list_of[static_cast<size_t>(i)] =
                      NearestCentroid(rows + i * d, centroids, nlist_, d);
                }
              });

  // CSR-style inverted lists; slots within a list keep ascending
  // catalogue id (the fill walks ids in order), which downstream code
  // relies on only for determinism, not correctness.
  offsets_.assign(static_cast<size_t>(nlist_ + 1), 0);
  for (int64_t i = 0; i < n; ++i) {
    ++offsets_[static_cast<size_t>(list_of[static_cast<size_t>(i)] + 1)];
  }
  for (int64_t l = 0; l < nlist_; ++l) {
    offsets_[static_cast<size_t>(l + 1)] += offsets_[static_cast<size_t>(l)];
  }
  ids_.assign(static_cast<size_t>(n), 0);
  std::vector<int64_t> cursor(offsets_.begin(), offsets_.end() - 1);
  for (int64_t i = 0; i < n; ++i) {
    const int64_t slot = cursor[static_cast<size_t>(
        list_of[static_cast<size_t>(i)])]++;
    ids_[static_cast<size_t>(slot)] = static_cast<int32_t>(i);
  }

  // Pack each list straight from the source table through a per-list
  // gather, so no second row-major copy of the table exists. Lists are
  // independent, so the split over threads cannot change a panel.
  lists_.clear();
  lists_.resize(static_cast<size_t>(nlist_));
  ParallelFor(0, nlist_, 1, [&](int64_t l0, int64_t l1) {
    std::vector<float> gathered;
    for (int64_t l = l0; l < l1; ++l) {
      const int64_t off = offsets_[static_cast<size_t>(l)];
      const int64_t len = list_size(l);
      if (len == 0) continue;
      gathered.resize(static_cast<size_t>(len * d));
      for (int64_t j = 0; j < len; ++j) {
        std::memcpy(gathered.data() + j * d,
                    rows + ids_[static_cast<size_t>(off + j)] * d,
                    static_cast<size_t>(d) * sizeof(float));
      }
      lists_[static_cast<size_t>(l)] = gemm::PackNT(gathered.data(), len, d, d);
    }
  });

  built_param_version_ = ParamUpdateVersion();
  PMM_TRACE_COUNT("ann.build.rows", n);
  PMM_TRACE_COUNT("ann.build.lists", nlist_);
  for (int64_t l = 0; l < nlist_; ++l) {
    PMM_TRACE_OBSERVE("ann.list_size", list_size(l));
  }
}

std::vector<ScoredId> IvfIndex::ProbeLists(const float* query,
                                           float* cscores) const {
  std::memset(cscores, 0, static_cast<size_t>(nlist_) * sizeof(float));
  gemm::GemmNTPacked(query, centroids_, cscores, 1, 0, nlist_, d_, nlist_);
  return TopKSelect(cscores, nlist_, nprobe_);
}

std::vector<std::vector<ScoredId>> IvfIndex::Retrieve(
    const float* queries, int64_t num_queries, int64_t limit) const {
  PMM_CHECK_MSG(built(), "IVF index not built");
  PMM_CHECK(queries != nullptr);
  PMM_CHECK_GT(num_queries, 0);
  PMM_CHECK_GE(limit, 1);
  PMM_CHECK_MSG(!version_check_enabled_ ||
                    built_param_version_ == ParamUpdateVersion(),
                "stale ANN index: ParamUpdateVersion advanced since the "
                "index was built");
  PMM_TRACE_SCOPE_AT("ann.probe", kOp, "ann.probe.ns");
  std::vector<std::vector<ScoredId>> results(
      static_cast<size_t>(num_queries));
  std::atomic<int64_t> total_scanned{0};
  // Each query is self-contained (owner dimension = query row), and by
  // the GEMM determinism contract each in-list score is bitwise the
  // full-table scan's score for that id, so the sweep is bit-identical
  // for every thread count, and with nprobe == nlist it matches
  // ExactCandidateSource.
  ParallelFor(0, num_queries, /*grain=*/1, [&](int64_t r0, int64_t r1) {
    BufferArena& arena = BufferArena::Global();
    std::vector<float> cscores = arena.AcquireVec(static_cast<size_t>(nlist_));
    std::vector<float> tile = arena.AcquireVec(static_cast<size_t>(gemm::kNC));
    int64_t worker_scanned = 0;
    for (int64_t r = r0; r < r1; ++r) {
      const float* query = queries + r * d_;
      TopKSelector selector(limit);
      int64_t scanned = 0;
      for (const ScoredId& p : ProbeLists(query, cscores.data())) {
        const gemm::PackedNT& list = lists_[static_cast<size_t>(p.id)];
        const int32_t* ids = ids_.data() + offsets_[static_cast<size_t>(p.id)];
        const int64_t len = list_size(p.id);
        for (int64_t j0 = 0; j0 < len; j0 += gemm::kNC) {
          const int64_t nc = std::min(gemm::kNC, len - j0);
          std::memset(tile.data(), 0, static_cast<size_t>(nc) * sizeof(float));
          gemm::GemmNTPacked(query, list, tile.data(), 1, j0, nc, d_, nc);
          selector.Push(tile.data(), ids + j0, nc);
        }
        scanned += len;
      }
      worker_scanned += scanned;
      PMM_TRACE_OBSERVE("ann.rows_scanned", scanned);
      results[static_cast<size_t>(r)] = selector.Take();
    }
    total_scanned.fetch_add(worker_scanned, std::memory_order_relaxed);
    arena.Release(std::move(tile));
    arena.Release(std::move(cscores));
  });
  PMM_TRACE_COUNT("ann.rows_scanned",
                  total_scanned.load(std::memory_order_relaxed));
  PMM_TRACE_COUNT("ann.queries", num_queries);
  PMM_TRACE_COUNT("ann.lists_probed", num_queries * nprobe_);
  PMM_TRACE_OBSERVE("ann.lists_probed_per_query", nprobe_);
  return results;
}

// --- IvfCandidateSource -----------------------------------------------------

IvfCandidateSource::IvfCandidateSource(const IvfIndex* index)
    : index_(index) {
  PMM_CHECK(index != nullptr);
  PMM_CHECK_MSG(index->built(), "IvfCandidateSource needs a built index");
}

std::vector<std::vector<ScoredId>> IvfCandidateSource::Retrieve(
    const float* queries, int64_t num_queries, int64_t limit) const {
  return index_->Retrieve(queries, num_queries, limit);
}

}  // namespace pmmrec
