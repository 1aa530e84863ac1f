// ANN retrieval benchmark: IVF candidate retrieval (src/core/ivf.h) vs
// the exact full scan, at a catalogue scale the synthetic suite never
// reaches. Three phases, one JSON artifact:
//
//   1. Synthetic clustered catalogue — n ~ 100k * PMMREC_SCALE items
//      (floor 2000) in R^32, a mixture of Gaussian clusters; queries are
//      drawn around the same centers. This is the geometry the fused
//      item table actually has (items cluster by semantics), i.e. the
//      regime a coarse k-means quantizer can exploit.
//   2. Exact-mode bitwise gate — ExactCandidateSource is checked id-for-id
//      and score-bit-for-score-bit against an independent serial
//      reference (naive ascending-k dot products + TopKSelect; bitwise
//      equal to GemmNT by the determinism contract for K <= 256), and
//      IVF at nprobe == nlist is checked bitwise against the exact
//      source. Any divergence fails the bench (exit 1) — the
//      CandidateSource refactor must not move a single bit in exact mode.
//   3. recall@10 / throughput sweep over nprobe — candidate recall of the
//      exact top-10 and retrieval users/sec per setting, plus the exact
//      full-scan throughput as the speedup denominator.
//
// Emits BENCH_ann.json with the sweep, the default-nprobe row, and the
// bitwise gate verdict.
//
// Usage: bench_ann [--out-dir DIR]
// Knobs: PMMREC_SCALE / PMMREC_SEED / PMMREC_NUM_THREADS.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "core/ivf.h"
#include "utils/parallel.h"
#include "utils/rng.h"
#include "utils/topk.h"

namespace pmmrec {
namespace {

constexpr int64_t kDim = 32;
constexpr int64_t kTopK = 10;
constexpr int64_t kQueries = 256;

// Independent serial reference: naive ascending-k dot per row, then the
// shared top-K kernel. The GEMM determinism contract makes each dot
// bitwise equal to the GemmNT element for K <= 256, so this is the
// ground truth the candidate sources must reproduce exactly.
std::vector<ScoredId> ReferenceTopK(const float* query, const float* rows,
                                    int64_t n, int64_t d, int64_t k) {
  std::vector<float> scores(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    float acc = 0.0f;
    for (int64_t kk = 0; kk < d; ++kk) {
      acc += query[kk] * rows[i * d + kk];
    }
    scores[static_cast<size_t>(i)] = acc;
  }
  return TopKSelect(scores.data(), n, k);
}

bool BitwiseEqual(const std::vector<ScoredId>& got,
                  const std::vector<ScoredId>& want) {
  if (got.size() != want.size()) return false;
  for (size_t i = 0; i < got.size(); ++i) {
    if (got[i].id != want[i].id) return false;
    uint32_t a, b;
    std::memcpy(&a, &got[i].score, sizeof(a));
    std::memcpy(&b, &want[i].score, sizeof(b));
    if (a != b) return false;
  }
  return true;
}

// Fraction of the exact top-10 ids present in the retrieved list.
double RecallAt10(const std::vector<ScoredId>& got,
                  const std::vector<ScoredId>& exact) {
  if (exact.empty()) return 1.0;
  int64_t hit = 0;
  for (const ScoredId& e : exact) {
    for (const ScoredId& g : got) {
      if (g.id == e.id) {
        ++hit;
        break;
      }
    }
  }
  return static_cast<double>(hit) / static_cast<double>(exact.size());
}

// Times source.Retrieve over the full query batch: one warm-up pass, then
// the timed pass. Returns users/sec and fills `out`.
double TimedRetrieve(const CandidateSource& source, const float* queries,
                     int64_t nq, int64_t limit,
                     std::vector<std::vector<ScoredId>>* out) {
  (void)source.Retrieve(queries, nq, limit);
  Stopwatch watch;
  *out = source.Retrieve(queries, nq, limit);
  const double seconds = watch.ElapsedMillis() / 1e3;
  return static_cast<double>(nq) / seconds;
}

struct SweepRow {
  int64_t nprobe = 0;
  double recall_at_10 = 0;
  double users_per_s = 0;
  double speedup = 0;
};

int Run(const std::string& out_dir) {
  const int64_t n = std::max<int64_t>(
      2000, static_cast<int64_t>(std::llround(100000.0 * bench::EnvScale())));
  const int64_t n_centers = std::min<int64_t>(256, std::max<int64_t>(8, n / 64));
  Rng rng(bench::EnvSeed() * 2654435761ULL + 1);

  // Mixture-of-Gaussians catalogue: centers ~ N(0, 1) per dim, items
  // spread around their center with sigma 0.35 — well-separated clusters
  // (center distance ~ sqrt(2 * kDim)) of the kind item semantics induce.
  std::vector<float> centers(static_cast<size_t>(n_centers * kDim));
  for (float& c : centers) c = rng.NormalFloat();
  std::vector<float> rows(static_cast<size_t>(n * kDim));
  for (int64_t i = 0; i < n; ++i) {
    const int64_t c = i % n_centers;
    for (int64_t d = 0; d < kDim; ++d) {
      rows[static_cast<size_t>(i * kDim + d)] =
          centers[static_cast<size_t>(c * kDim + d)] +
          0.35f * rng.NormalFloat();
    }
  }
  std::vector<float> queries(static_cast<size_t>(kQueries * kDim));
  for (int64_t q = 0; q < kQueries; ++q) {
    const int64_t c = rng.UniformInt(0, n_centers);
    for (int64_t d = 0; d < kDim; ++d) {
      queries[static_cast<size_t>(q * kDim + d)] =
          centers[static_cast<size_t>(c * kDim + d)] +
          0.35f * rng.NormalFloat();
    }
  }

  std::printf("ann bench: %lld items, %lld dim, %lld queries, %lld threads\n",
              static_cast<long long>(n), static_cast<long long>(kDim),
              static_cast<long long>(kQueries),
              static_cast<long long>(GetNumThreads()));

  // ---- Phase 2: exact-mode bitwise gate. ----
  ExactCandidateSource exact_source(rows.data(), n, kDim);
  std::vector<std::vector<ScoredId>> exact_lists;
  const double exact_users_per_s = TimedRetrieve(
      exact_source, queries.data(), kQueries, kTopK, &exact_lists);
  bool bitwise_exact = true;
  for (int64_t q = 0; q < kQueries; ++q) {
    const std::vector<ScoredId> want =
        ReferenceTopK(queries.data() + q * kDim, rows.data(), n, kDim, kTopK);
    if (!BitwiseEqual(exact_lists[static_cast<size_t>(q)], want)) {
      bitwise_exact = false;
    }
  }

  IvfConfig config;  // auto nlist/nprobe
  const int64_t nlist = IvfIndex::ResolveNlist(0, n);
  const int64_t default_nprobe = IvfIndex::ResolveNprobe(0, nlist);

  // IVF at full probe width scans every row: bitwise the exact source.
  {
    IvfConfig full = config;
    full.nprobe = nlist;
    IvfIndex index;
    index.Build(rows.data(), n, kDim, full);
    const std::vector<std::vector<ScoredId>> got =
        IvfCandidateSource(&index).Retrieve(queries.data(), kQueries, kTopK);
    for (int64_t q = 0; q < kQueries; ++q) {
      if (!BitwiseEqual(got[static_cast<size_t>(q)],
                        exact_lists[static_cast<size_t>(q)])) {
        bitwise_exact = false;
      }
    }
  }
  std::printf("exact scan        %9.1f users/s  (bitwise gate %s)\n",
              exact_users_per_s, bitwise_exact ? "PASS" : "FAIL");

  // ---- Phase 3: recall/throughput sweep over nprobe. ----
  std::vector<int64_t> probes = {1, 2, 4, default_nprobe / 2, default_nprobe,
                                 default_nprobe * 2, default_nprobe * 4};
  std::sort(probes.begin(), probes.end());
  probes.erase(std::unique(probes.begin(), probes.end()), probes.end());
  std::vector<SweepRow> sweep;
  for (int64_t p : probes) {
    if (p < 1 || p > nlist) continue;
    IvfConfig c = config;
    c.nprobe = p;
    IvfIndex index;
    index.Build(rows.data(), n, kDim, c);
    IvfCandidateSource source(&index);
    std::vector<std::vector<ScoredId>> lists;
    SweepRow row;
    row.nprobe = p;
    row.users_per_s =
        TimedRetrieve(source, queries.data(), kQueries, kTopK, &lists);
    row.speedup = row.users_per_s / exact_users_per_s;
    double recall = 0;
    for (int64_t q = 0; q < kQueries; ++q) {
      recall += RecallAt10(lists[static_cast<size_t>(q)],
                           exact_lists[static_cast<size_t>(q)]);
    }
    row.recall_at_10 = recall / static_cast<double>(kQueries);
    sweep.push_back(row);
    std::printf("ivf nprobe %4lld   %9.1f users/s  recall@10 %.4f  (%.2fx%s)\n",
                static_cast<long long>(p), row.users_per_s, row.recall_at_10,
                row.speedup, p == default_nprobe ? ", default" : "");
  }

  // ---- Report. ----
  const std::string path = out_dir + "/BENCH_ann.json";
  std::FILE* f = std::fopen(path.c_str(), "w");
  PMM_CHECK_MSG(f != nullptr, "cannot write " + path);
  std::fprintf(f,
               "{\n  \"bench\": \"ann\",\n  \"items\": %lld,\n"
               "  \"dim\": %lld,\n  \"queries\": %lld,\n  \"threads\": %lld,\n"
               "  \"nlist\": %lld,\n  \"default_nprobe\": %lld,\n"
               "  \"exact\": {\"users_per_s\": %.1f},\n"
               "  \"sweep\": [\n",
               static_cast<long long>(n), static_cast<long long>(kDim),
               static_cast<long long>(kQueries),
               static_cast<long long>(GetNumThreads()),
               static_cast<long long>(nlist),
               static_cast<long long>(default_nprobe), exact_users_per_s);
  for (size_t i = 0; i < sweep.size(); ++i) {
    const SweepRow& row = sweep[i];
    std::fprintf(f,
                 "    {\"nprobe\": %lld, \"recall_at_10\": %.4f, "
                 "\"users_per_s\": %.1f, \"speedup_vs_exact\": %.2f}%s\n",
                 static_cast<long long>(row.nprobe), row.recall_at_10,
                 row.users_per_s, row.speedup,
                 i + 1 < sweep.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"bitwise_exact_gate\": %s\n}\n",
               bitwise_exact ? "true" : "false");
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());
  return bitwise_exact ? 0 : 1;
}

}  // namespace
}  // namespace pmmrec

int main(int argc, char** argv) {
  std::string out_dir = ".";
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--out-dir" && i + 1 < argc) {
      out_dir = argv[++i];
    }
  }
  return pmmrec::Run(out_dir);
}
