#include "tensor/gemm.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "utils/check.h"
#include "utils/trace.h"

namespace pmmrec {
namespace gemm {
namespace {

Kernel ResolveKernelFromEnv() {
  if (const char* env = std::getenv("PMMREC_GEMM")) {
    if (std::strcmp(env, "reference") == 0) return Kernel::kReference;
  }
  return Kernel::kBlocked;
}

std::atomic<Kernel> g_kernel{ResolveKernelFromEnv()};

// Packing scratch. Sized for the largest (kMC x kKC) A block and
// (kKC x kNC) B block, rounded up to whole register panels; thread-local
// so concurrent ParallelFor chunks never share a buffer.
thread_local std::vector<float> t_apack;
thread_local std::vector<float> t_bpack;

constexpr int64_t kAPanelCap = ((kMC + kMR - 1) / kMR) * kMR * kKC;
constexpr int64_t kBPanelCap = ((kNC + kNR - 1) / kNR) * kNR * kKC;

// Below this many multiply-adds (and with the reduction within one KC
// block, so the accumulation chain matches the blocked path bit-for-bit)
// the packing overhead outweighs the microkernel win; use plain loops.
constexpr int64_t kSmallCost = 8192;

// --- Microkernel -----------------------------------------------------------

// Computes one MR x NR tile: acc = sum over kc of apanel[p] (x) bpanel[p],
// then C[0..mr)[0..nr) += acc. One accumulator lane per element, p
// ascending — the accumulation chain every other path must match. Lanes
// never mix, so the vector and scalar bodies are bit-identical.

#if defined(__GNUC__) || defined(__clang__)
#define PMMREC_GEMM_VEC 1
// 4-wide float vector (SSE2 baseline; wider ISAs via -DPMMREC_NATIVE=ON
// still honor the 4-lane chains). Named accumulators keep the whole 6x8
// tile in registers — an acc[48] array spills to the stack under GCC.
typedef float v4f __attribute__((vector_size(16)));

inline v4f LoadU(const float* p) {
  v4f v;
  __builtin_memcpy(&v, p, sizeof(v));
  return v;
}
inline void StoreU(float* p, v4f v) { __builtin_memcpy(p, &v, sizeof(v)); }
#endif

void MicroKernel(const float* ap, const float* bp, int64_t kc, float* c,
                 int64_t ldc, int64_t mr, int64_t nr) {
#if PMMREC_GEMM_VEC
  static_assert(kMR == 6 && kNR == 8, "microkernel is tuned for 6x8 tiles");
  v4f acc00{}, acc01{}, acc10{}, acc11{}, acc20{}, acc21{};
  v4f acc30{}, acc31{}, acc40{}, acc41{}, acc50{}, acc51{};
  for (int64_t p = 0; p < kc; ++p) {
    const float* a = ap + p * kMR;
    const v4f b0 = LoadU(bp + p * kNR);
    const v4f b1 = LoadU(bp + p * kNR + 4);
    acc00 += b0 * a[0];
    acc01 += b1 * a[0];
    acc10 += b0 * a[1];
    acc11 += b1 * a[1];
    acc20 += b0 * a[2];
    acc21 += b1 * a[2];
    acc30 += b0 * a[3];
    acc31 += b1 * a[3];
    acc40 += b0 * a[4];
    acc41 += b1 * a[4];
    acc50 += b0 * a[5];
    acc51 += b1 * a[5];
  }
  if (mr == kMR && nr == kNR) {
    const v4f* lo[kMR] = {&acc00, &acc10, &acc20, &acc30, &acc40, &acc50};
    const v4f* hi[kMR] = {&acc01, &acc11, &acc21, &acc31, &acc41, &acc51};
    for (int64_t ir = 0; ir < kMR; ++ir) {
      float* cr = c + ir * ldc;
      StoreU(cr, LoadU(cr) + *lo[ir]);
      StoreU(cr + 4, LoadU(cr + 4) + *hi[ir]);
    }
  } else {
    float acc[kMR * kNR];
    StoreU(acc + 0, acc00);
    StoreU(acc + 4, acc01);
    StoreU(acc + 8, acc10);
    StoreU(acc + 12, acc11);
    StoreU(acc + 16, acc20);
    StoreU(acc + 20, acc21);
    StoreU(acc + 24, acc30);
    StoreU(acc + 28, acc31);
    StoreU(acc + 32, acc40);
    StoreU(acc + 36, acc41);
    StoreU(acc + 40, acc50);
    StoreU(acc + 44, acc51);
    for (int64_t ir = 0; ir < mr; ++ir) {
      float* cr = c + ir * ldc;
      for (int64_t jr = 0; jr < nr; ++jr) cr[jr] += acc[ir * kNR + jr];
    }
  }
#else
  float acc[kMR * kNR];
  for (int64_t i = 0; i < kMR * kNR; ++i) acc[i] = 0.0f;
  for (int64_t p = 0; p < kc; ++p) {
    const float* a = ap + p * kMR;
    const float* b = bp + p * kNR;
    for (int64_t ir = 0; ir < kMR; ++ir) {
      const float av = a[ir];
      for (int64_t jr = 0; jr < kNR; ++jr) {
        acc[ir * kNR + jr] += av * b[jr];
      }
    }
  }
  for (int64_t ir = 0; ir < mr; ++ir) {
    float* cr = c + ir * ldc;
    for (int64_t jr = 0; jr < nr; ++jr) cr[jr] += acc[ir * kNR + jr];
  }
#endif
}

#if defined(__x86_64__) && defined(PMMREC_GEMM_VEC)
#define PMMREC_GEMM_AVX2_DISPATCH 1
// 8-wide variant, selected at runtime when the CPU has AVX2. The target
// attribute deliberately omits "fma": each lane still does a separate
// IEEE multiply then add, so results stay bit-identical to the 4-wide
// and scalar paths — the dispatch can never change an output.
typedef float v8f __attribute__((vector_size(32)));

__attribute__((target("avx2"))) inline v8f LoadU8(const float* p) {
  v8f v;
  __builtin_memcpy(&v, p, sizeof(v));
  return v;
}
__attribute__((target("avx2"))) inline void StoreU8(float* p, v8f v) {
  __builtin_memcpy(p, &v, sizeof(v));
}

__attribute__((target("avx2"))) void MicroKernelAvx2(const float* ap,
                                                     const float* bp,
                                                     int64_t kc, float* c,
                                                     int64_t ldc, int64_t mr,
                                                     int64_t nr) {
  static_assert(kNR == 8, "one ymm register spans the full NR row");
  v8f acc0{}, acc1{}, acc2{}, acc3{}, acc4{}, acc5{};
  for (int64_t p = 0; p < kc; ++p) {
    const float* a = ap + p * kMR;
    const v8f b = LoadU8(bp + p * kNR);
    acc0 += b * a[0];
    acc1 += b * a[1];
    acc2 += b * a[2];
    acc3 += b * a[3];
    acc4 += b * a[4];
    acc5 += b * a[5];
  }
  if (mr == kMR && nr == kNR) {
    const v8f* rows[kMR] = {&acc0, &acc1, &acc2, &acc3, &acc4, &acc5};
    for (int64_t ir = 0; ir < kMR; ++ir) {
      float* cr = c + ir * ldc;
      StoreU8(cr, LoadU8(cr) + *rows[ir]);
    }
  } else {
    float acc[kMR * kNR];
    StoreU8(acc + 0, acc0);
    StoreU8(acc + 8, acc1);
    StoreU8(acc + 16, acc2);
    StoreU8(acc + 24, acc3);
    StoreU8(acc + 32, acc4);
    StoreU8(acc + 40, acc5);
    for (int64_t ir = 0; ir < mr; ++ir) {
      float* cr = c + ir * ldc;
      for (int64_t jr = 0; jr < nr; ++jr) cr[jr] += acc[ir * kNR + jr];
    }
  }
}
#endif  // PMMREC_GEMM_AVX2_DISPATCH

using MicroKernelFn = void (*)(const float*, const float*, int64_t, float*,
                               int64_t, int64_t, int64_t);

MicroKernelFn ResolveMicroKernel() {
#if PMMREC_GEMM_AVX2_DISPATCH
  if (__builtin_cpu_supports("avx2")) return &MicroKernelAvx2;
#endif
  return &MicroKernel;
}

const MicroKernelFn g_micro_kernel = ResolveMicroKernel();

// --- Packed row kernel -----------------------------------------------------
// GemmNTPacked's path for the rows past its last whole kMR-row tile (all
// of them when m < kMR): each A row against kRowPanels NR-wide panels of
// a packed operand at a time, instead of an MR-row tile whose missing
// rows are zero padding. The rows take turns on one group of panels, so
// the group is read from memory once and from L1 by the other rows.
// Every element keeps the microkernel's chain: one accumulator starting
// at 0, p ascending inside each KC block, a separate multiply then add
// per step, one `C += partial` per block. `panels` points at the band's
// first panel (panel s at s * k * kNR); the last panel may be ragged (nc
// not a multiple of kNR): its padded lanes are read, since a packed
// panel is always kNR wide, and dropped at writeback.

constexpr int64_t kRowPanels = 4;

// C[0, nr) += acc[0, nr), one add per element.
inline void AddPartial(float* c, const float* acc, int64_t nr) {
  for (int64_t jr = 0; jr < nr; ++jr) c[jr] += acc[jr];
}

void PackedRowKernel(const float* a, int64_t lda, int64_t m,
                     const float* panels, int64_t k, float* c, int64_t ldc,
                     int64_t nc) {
  const int64_t num_panels = (nc + kNR - 1) / kNR;
  for (int64_t pc = 0; pc < k; pc += kKC) {
    const int64_t kc = std::min(kKC, k - pc);
    for (int64_t s0 = 0; s0 < num_panels; s0 += kRowPanels) {
      const int64_t g = std::min(kRowPanels, num_panels - s0);
      for (int64_t i = 0; i < m; ++i) {
        const float* ap = a + i * lda + pc;
        float acc[kRowPanels][kNR] = {};
        for (int64_t t = 0; t < g; ++t) {
          const float* bp = panels + (s0 + t) * k * kNR + pc * kNR;
          for (int64_t p = 0; p < kc; ++p) {
            for (int64_t jr = 0; jr < kNR; ++jr) {
              acc[t][jr] += bp[p * kNR + jr] * ap[p];
            }
          }
        }
        for (int64_t t = 0; t < g; ++t) {
          const int64_t j0 = (s0 + t) * kNR;
          AddPartial(c + i * ldc + j0, acc[t], std::min(kNR, nc - j0));
        }
      }
    }
  }
}

#if PMMREC_GEMM_AVX2_DISPATCH
// One row against P panels of one KC block, one ymm accumulator per panel
// (P is a constant, so the accumulators live in registers); like
// MicroKernelAvx2, no "fma". `nr_last` is the column count of the last of
// the P panels.
template <int P>
__attribute__((target("avx2"), always_inline)) inline void RowPanelsAvx2(
    const float* ap, const float* bp, int64_t stride, int64_t kc, float* c,
    int64_t nr_last) {
  v8f acc[P] = {};
  for (int64_t p = 0; p < kc; ++p) {
    const float av = ap[p];
#pragma GCC unroll 8
    for (int t = 0; t < P; ++t) {
      acc[t] += LoadU8(bp + t * stride + p * kNR) * av;
    }
  }
#pragma GCC unroll 8
  for (int t = 0; t < P; ++t) {
    float* ct = c + t * kNR;
    if (t < P - 1 || nr_last == kNR) {
      StoreU8(ct, LoadU8(ct) + acc[t]);
    } else {
      float partial[kNR];
      StoreU8(partial, acc[t]);
      AddPartial(ct, partial, nr_last);
    }
  }
}

__attribute__((target("avx2"))) void PackedRowKernelAvx2(
    const float* a, int64_t lda, int64_t m, const float* panels, int64_t k,
    float* c, int64_t ldc, int64_t nc) {
  const int64_t num_panels = (nc + kNR - 1) / kNR;
  const int64_t stride = k * kNR;
  for (int64_t pc = 0; pc < k; pc += kKC) {
    const int64_t kc = std::min(kKC, k - pc);
    for (int64_t s = 0; s < num_panels;) {
      const int64_t left = num_panels - s;
      const int64_t g = left >= kRowPanels ? kRowPanels : left >= 2 ? 2 : 1;
      const float* bp = panels + s * stride + pc * kNR;
      const int64_t nr_last = std::min(kNR, nc - (s + g - 1) * kNR);
      for (int64_t i = 0; i < m; ++i) {
        const float* ap = a + i * lda + pc;
        float* cs = c + i * ldc + s * kNR;
        if (g == kRowPanels) {
          RowPanelsAvx2<kRowPanels>(ap, bp, stride, kc, cs, nr_last);
        } else if (g == 2) {
          RowPanelsAvx2<2>(ap, bp, stride, kc, cs, nr_last);
        } else {
          RowPanelsAvx2<1>(ap, bp, stride, kc, cs, nr_last);
        }
      }
      s += g;
    }
  }
}
#endif  // PMMREC_GEMM_AVX2_DISPATCH

using PackedRowKernelFn = void (*)(const float*, int64_t, int64_t,
                                   const float*, int64_t, float*, int64_t,
                                   int64_t);

PackedRowKernelFn ResolvePackedRowKernel() {
#if PMMREC_GEMM_AVX2_DISPATCH
  if (__builtin_cpu_supports("avx2")) return &PackedRowKernelAvx2;
#endif
  return &PackedRowKernel;
}

const PackedRowKernelFn g_packed_row_kernel = ResolvePackedRowKernel();

// --- Packing ---------------------------------------------------------------
// A blocks pack into column-major MR-row panels (dst[panel][p][ir]), B
// blocks into row-major NR-column panels (dst[panel][p][jr]); ragged
// panel edges are zero-padded so the microkernel always runs full tiles
// (padded lanes are discarded at writeback and never touch C).
//
// PackANoTrans and PackBTrans also serve the pre-packed operand below.
// They are forced inline so BlockedGemm keeps the inlined copies it got
// as their only caller: out of line, they cost the perfbench `train`
// workload about 10% throughput (4-CPU x86-64 host, AVX2).
#if defined(__GNUC__) || defined(__clang__)
#define PMMREC_GEMM_INLINE __attribute__((always_inline)) inline
#else
#define PMMREC_GEMM_INLINE inline
#endif

// (mc x kc) block of a non-transposed left operand; reads stride lda.
PMMREC_GEMM_INLINE void PackANoTrans(const float* a, int64_t lda, int64_t mc,
                                     int64_t kc, float* dst) {
  for (int64_t t = 0; t * kMR < mc; ++t) {
    const int64_t i0 = t * kMR;
    const int64_t mr = std::min(kMR, mc - i0);
    float* d = dst + t * kc * kMR;
    for (int64_t p = 0; p < kc; ++p) {
      for (int64_t ir = 0; ir < mr; ++ir) {
        d[p * kMR + ir] = a[(i0 + ir) * lda + p];
      }
      for (int64_t ir = mr; ir < kMR; ++ir) d[p * kMR + ir] = 0.0f;
    }
  }
}

// (mc x kc) block of a transposed left operand: logical A'[i][p] lives at
// a[p * lda + i], so panel rows are contiguous in memory.
void PackATrans(const float* a, int64_t lda, int64_t mc, int64_t kc,
                float* dst) {
  // Outer loop over p walks each source row exactly once (one contiguous
  // mc-float read), scattering into the per-panel slots; panel-major
  // order would re-stride the whole block once per panel.
  for (int64_t p = 0; p < kc; ++p) {
    const float* src = a + p * lda;
    for (int64_t t = 0; t * kMR < mc; ++t) {
      const int64_t i0 = t * kMR;
      const int64_t mr = std::min(kMR, mc - i0);
      float* d = dst + t * kc * kMR + p * kMR;
      for (int64_t ir = 0; ir < mr; ++ir) d[ir] = src[i0 + ir];
      for (int64_t ir = mr; ir < kMR; ++ir) d[ir] = 0.0f;
    }
  }
}

// (kc x nc) block of a non-transposed right operand; rows contiguous.
void PackBNoTrans(const float* b, int64_t ldb, int64_t kc, int64_t nc,
                  float* dst) {
  for (int64_t s = 0; s * kNR < nc; ++s) {
    const int64_t j0 = s * kNR;
    const int64_t nr = std::min(kNR, nc - j0);
    float* d = dst + s * kc * kNR;
    for (int64_t p = 0; p < kc; ++p) {
      const float* src = b + p * ldb + j0;
      for (int64_t jr = 0; jr < nr; ++jr) d[p * kNR + jr] = src[jr];
      for (int64_t jr = nr; jr < kNR; ++jr) d[p * kNR + jr] = 0.0f;
    }
  }
}

// (kc x nc) block of a transposed right operand: logical B'[p][j] lives at
// b[j * ldb + p]; each output column is one contiguous source row.
PMMREC_GEMM_INLINE void PackBTrans(const float* b, int64_t ldb, int64_t kc,
                                   int64_t nc, float* dst) {
  for (int64_t s = 0; s * kNR < nc; ++s) {
    const int64_t j0 = s * kNR;
    const int64_t nr = std::min(kNR, nc - j0);
    float* d = dst + s * kc * kNR;
    for (int64_t jr = 0; jr < nr; ++jr) {
      const float* src = b + (j0 + jr) * ldb;
      for (int64_t p = 0; p < kc; ++p) d[p * kNR + jr] = src[p];
    }
    for (int64_t jr = nr; jr < kNR; ++jr) {
      for (int64_t p = 0; p < kc; ++p) d[p * kNR + jr] = 0.0f;
    }
  }
}

// --- Blocked driver --------------------------------------------------------

enum class Trans { kNo, kYes };

void BlockedGemm(Trans ta, Trans tb, const float* a, const float* b, float* c,
                 int64_t m, int64_t k, int64_t n, int64_t lda, int64_t ldb,
                 int64_t ldc) {
  std::vector<float>& apack = t_apack;
  std::vector<float>& bpack = t_bpack;
  if (static_cast<int64_t>(apack.size()) < kAPanelCap) apack.resize(kAPanelCap);
  if (static_cast<int64_t>(bpack.size()) < kBPanelCap) bpack.resize(kBPanelCap);
  for (int64_t jc = 0; jc < n; jc += kNC) {
    const int64_t nc = std::min(kNC, n - jc);
    for (int64_t pc = 0; pc < k; pc += kKC) {
      const int64_t kc = std::min(kKC, k - pc);
      if (tb == Trans::kNo) {
        PackBNoTrans(b + pc * ldb + jc, ldb, kc, nc, bpack.data());
      } else {
        PackBTrans(b + jc * ldb + pc, ldb, kc, nc, bpack.data());
      }
      for (int64_t ic = 0; ic < m; ic += kMC) {
        const int64_t mc = std::min(kMC, m - ic);
        if (ta == Trans::kNo) {
          PackANoTrans(a + ic * lda + pc, lda, mc, kc, apack.data());
        } else {
          PackATrans(a + pc * lda + ic, lda, mc, kc, apack.data());
        }
        for (int64_t s = 0; s * kNR < nc; ++s) {
          const int64_t j0 = jc + s * kNR;
          const int64_t nr = std::min(kNR, n - j0);
          const float* bp = bpack.data() + s * kc * kNR;
          for (int64_t t = 0; t * kMR < mc; ++t) {
            const int64_t i0 = ic + t * kMR;
            const int64_t mr = std::min(kMR, m - i0);
            g_micro_kernel(apack.data() + t * kc * kMR, bp, kc,
                        c + i0 * ldc + j0, ldc, mr, nr);
          }
        }
      }
    }
  }
}

// --- Small-shape fallbacks -------------------------------------------------
// Plain loops without packing. Each element reduces k-ascending into a
// fresh local accumulator and then does a single `c += partial` — the
// exact chain the blocked path produces when the reduction fits one KC
// block. UseSmallPath requires k <= kKC, so the size dispatch can never
// change a result, even when C already holds accumulated gradient.
// Where B's columns are contiguous (NN, TN) the accumulators of a strip
// of kSmallStrip columns advance together, one k step at a time, so the
// column loop vectorizes; each element still walks its own chain.

constexpr int64_t kSmallStrip = 64;

void SmallGemmNN(const float* a, const float* b, float* c, int64_t m,
                 int64_t k, int64_t n, int64_t lda, int64_t ldb, int64_t ldc) {
  for (int64_t i = 0; i < m; ++i) {
    const float* ai = a + i * lda;
    float* ci = c + i * ldc;
    for (int64_t j0 = 0; j0 < n; j0 += kSmallStrip) {
      const int64_t nj = std::min(kSmallStrip, n - j0);
      float acc[kSmallStrip] = {};
      for (int64_t p = 0; p < k; ++p) {
        const float aip = ai[p];
        const float* bp = b + p * ldb + j0;
        for (int64_t j = 0; j < nj; ++j) acc[j] += aip * bp[j];
      }
      for (int64_t j = 0; j < nj; ++j) ci[j0 + j] += acc[j];
    }
  }
}

void SmallGemmNT(const float* a, const float* b, float* c, int64_t m,
                 int64_t k, int64_t n, int64_t lda, int64_t ldb, int64_t ldc) {
  for (int64_t i = 0; i < m; ++i) {
    const float* ai = a + i * lda;
    float* ci = c + i * ldc;
    for (int64_t j = 0; j < n; ++j) {
      const float* bj = b + j * ldb;
      float dot = 0.0f;
      for (int64_t p = 0; p < k; ++p) dot += ai[p] * bj[p];
      ci[j] += dot;
    }
  }
}

void SmallGemmTN(const float* a, const float* b, float* c, int64_t m,
                 int64_t k, int64_t n, int64_t lda, int64_t ldb, int64_t ldc) {
  for (int64_t i = 0; i < m; ++i) {
    float* ci = c + i * ldc;
    for (int64_t j0 = 0; j0 < n; j0 += kSmallStrip) {
      const int64_t nj = std::min(kSmallStrip, n - j0);
      float acc[kSmallStrip] = {};
      for (int64_t p = 0; p < k; ++p) {
        const float api = a[p * lda + i];
        const float* bp = b + p * ldb + j0;
        for (int64_t j = 0; j < nj; ++j) acc[j] += api * bp[j];
      }
      for (int64_t j = 0; j < nj; ++j) ci[j0 + j] += acc[j];
    }
  }
}

inline bool UseSmallPath(int64_t m, int64_t k, int64_t n) {
  return k <= kKC && m * k * n <= kSmallCost;
}

// Per-kernel dispatch counters. Call counts and analytic FLOPs
// (2·m·k·n per call) are attributed to the public entry point; which
// inner path ran lands in the gemm.dispatch.* counters. Counting happens
// before the kernel body, so concurrent ParallelFor chunks each attribute
// exactly their own slice of a partitioned MatMul.
inline void CountDispatch(const char* calls, const char* flops, int64_t m,
                          int64_t k, int64_t n, Kernel kernel, bool small) {
  if (!trace::Enabled(trace::Level::kEpoch)) return;
  // Counter names vary per caller, so look them up directly — the
  // PMM_TRACE_COUNT macro caches one name per call site and would pin
  // whichever entry point happened to run first.
  trace::Counter::Get(calls).Add(1);
  trace::Counter::Get(flops).Add(static_cast<uint64_t>(2 * m * k * n));
  if (kernel == Kernel::kReference) {
    trace::Counter::Get("gemm.dispatch.reference").Add(1);
  } else if (small) {
    trace::Counter::Get("gemm.dispatch.small").Add(1);
  } else {
    trace::Counter::Get("gemm.dispatch.blocked").Add(1);
  }
}

}  // namespace

Kernel ActiveKernel() { return g_kernel.load(std::memory_order_relaxed); }
void SetKernel(Kernel kernel) {
  g_kernel.store(kernel, std::memory_order_relaxed);
}

void GemmNN(const float* a, const float* b, float* c, int64_t m, int64_t k,
            int64_t n, int64_t lda, int64_t ldb, int64_t ldc) {
  if (m <= 0 || n <= 0 || k <= 0) return;
  const Kernel kernel = ActiveKernel();
  const bool small = UseSmallPath(m, k, n);
  CountDispatch("gemm.nn.calls", "gemm.nn.flops", m, k, n, kernel, small);
  if (kernel == Kernel::kReference) {
    ReferenceGemmNN(a, b, c, m, k, n, lda, ldb, ldc);
  } else if (small) {
    SmallGemmNN(a, b, c, m, k, n, lda, ldb, ldc);
  } else {
    BlockedGemm(Trans::kNo, Trans::kNo, a, b, c, m, k, n, lda, ldb, ldc);
  }
}

void GemmNT(const float* a, const float* b, float* c, int64_t m, int64_t k,
            int64_t n, int64_t lda, int64_t ldb, int64_t ldc) {
  if (m <= 0 || n <= 0 || k <= 0) return;
  const Kernel kernel = ActiveKernel();
  const bool small = UseSmallPath(m, k, n);
  CountDispatch("gemm.nt.calls", "gemm.nt.flops", m, k, n, kernel, small);
  if (kernel == Kernel::kReference) {
    ReferenceGemmNT(a, b, c, m, k, n, lda, ldb, ldc);
  } else if (small) {
    SmallGemmNT(a, b, c, m, k, n, lda, ldb, ldc);
  } else {
    BlockedGemm(Trans::kNo, Trans::kYes, a, b, c, m, k, n, lda, ldb, ldc);
  }
}

void GemmTN(const float* a, const float* b, float* c, int64_t m, int64_t k,
            int64_t n, int64_t lda, int64_t ldb, int64_t ldc) {
  if (m <= 0 || n <= 0 || k <= 0) return;
  const Kernel kernel = ActiveKernel();
  const bool small = UseSmallPath(m, k, n);
  CountDispatch("gemm.tn.calls", "gemm.tn.flops", m, k, n, kernel, small);
  if (kernel == Kernel::kReference) {
    ReferenceGemmTN(a, b, c, m, k, n, lda, ldb, ldc);
  } else if (small) {
    SmallGemmTN(a, b, c, m, k, n, lda, ldb, ldc);
  } else {
    BlockedGemm(Trans::kYes, Trans::kNo, a, b, c, m, k, n, lda, ldb, ldc);
  }
}

// --- Pre-packed right operand ----------------------------------------------
// PackBTrans over the whole (k x n) operand at once: one NR-wide panel
// per kNR columns spanning the full depth, panel s at s * k * kNR. The
// KC block at pc of panel s is the kc x kNR slab at s * k * kNR + pc *
// kNR, which is the panel BlockedGemm packs for that block per call.

PackedNT PackNT(const float* b, int64_t n, int64_t k, int64_t ldb) {
  PMM_CHECK(b != nullptr);
  PMM_CHECK_GT(n, 0);
  PMM_CHECK_GT(k, 0);
  PackedNT packed;
  packed.n_ = n;
  packed.k_ = k;
  packed.panels_.resize(static_cast<size_t>((n + kNR - 1) / kNR * kNR * k));
  PackBTrans(b, ldb, k, n, packed.panels_.data());
  return packed;
}

void GemmNTPacked(const float* a, const PackedNT& b, float* c, int64_t m,
                  int64_t j0, int64_t nc, int64_t lda, int64_t ldc) {
  if (m <= 0 || nc <= 0) return;
  PMM_CHECK_EQ(j0 % kNR, 0);
  PMM_CHECK(j0 >= 0 && j0 + nc <= b.n_);
  const int64_t k = b.k_;
  const Kernel kernel = ActiveKernel();
  // Fixed names, so the per-site interned counters apply.
  PMM_TRACE_COUNT("gemm.nt.calls", 1);
  PMM_TRACE_COUNT("gemm.nt.flops", 2 * m * k * nc);
  const float* panels = b.panels_.data() + j0 * k;  // panel j0 / kNR
  if (kernel == Kernel::kReference) {
    PMM_TRACE_COUNT("gemm.dispatch.reference", 1);
    // ReferenceGemmNT's chain, reading column j from its panel lane.
    for (int64_t i = 0; i < m; ++i) {
      const float* ai = a + i * lda;
      float* ci = c + i * ldc;
      for (int64_t j = 0; j < nc; ++j) {
        const float* bj = panels + (j / kNR) * k * kNR + j % kNR;
        float dot = 0.0f;
        for (int64_t p = 0; p < k; ++p) dot += ai[p] * bj[p * kNR];
        ci[j] += dot;
      }
    }
    return;
  }
  PMM_TRACE_COUNT("gemm.dispatch.packed", 1);
  // Whole kMR-row tiles run BlockedGemm's loops minus the B packing; the
  // rows after the last whole tile (all of them when m < kMR) run the row
  // kernel. Either way each element sees its KC blocks in ascending
  // order, one `C += partial` per block.
  const int64_t m_tiles = m / kMR * kMR;
  std::vector<float>& apack = t_apack;
  if (static_cast<int64_t>(apack.size()) < kAPanelCap) apack.resize(kAPanelCap);
  for (int64_t pc = 0; pc < k; pc += kKC) {
    const int64_t kc = std::min(kKC, k - pc);
    for (int64_t ic = 0; ic < m_tiles; ic += kMC) {
      const int64_t mc = std::min(kMC, m_tiles - ic);
      PackANoTrans(a + ic * lda + pc, lda, mc, kc, apack.data());
      for (int64_t s = 0; s * kNR < nc; ++s) {
        const int64_t nr = std::min(kNR, nc - s * kNR);
        const float* bp = panels + s * k * kNR + pc * kNR;
        for (int64_t t = 0; t * kMR < mc; ++t) {
          g_micro_kernel(apack.data() + t * kc * kMR, bp, kc,
                         c + (ic + t * kMR) * ldc + s * kNR, ldc, kMR, nr);
        }
      }
    }
  }
  if (m_tiles < m) {
    g_packed_row_kernel(a + m_tiles * lda, lda, m - m_tiles, panels, k,
                        c + m_tiles * ldc, ldc, nc);
  }
}

// --- Reference kernels (the PR-1 loops, leading-dimension form) ------------

void ReferenceGemmNN(const float* a, const float* b, float* c, int64_t m,
                     int64_t k, int64_t n, int64_t lda, int64_t ldb,
                     int64_t ldc) {
  for (int64_t i = 0; i < m; ++i) {
    const float* ai = a + i * lda;
    float* ci = c + i * ldc;
    for (int64_t p = 0; p < k; ++p) {
      const float av = ai[p];
      if (av == 0.0f) continue;
      const float* bp = b + p * ldb;
      for (int64_t j = 0; j < n; ++j) ci[j] += av * bp[j];
    }
  }
}

void ReferenceGemmNT(const float* a, const float* b, float* c, int64_t m,
                     int64_t k, int64_t n, int64_t lda, int64_t ldb,
                     int64_t ldc) {
  for (int64_t i = 0; i < m; ++i) {
    const float* ai = a + i * lda;
    float* ci = c + i * ldc;
    for (int64_t j = 0; j < n; ++j) {
      const float* bj = b + j * ldb;
      float dot = 0.0f;
      for (int64_t p = 0; p < k; ++p) dot += ai[p] * bj[p];
      ci[j] += dot;
    }
  }
}

void ReferenceGemmTN(const float* a, const float* b, float* c, int64_t m,
                     int64_t k, int64_t n, int64_t lda, int64_t ldb,
                     int64_t ldc) {
  for (int64_t r = 0; r < k; ++r) {
    const float* ar = a + r * lda;
    const float* br = b + r * ldb;
    for (int64_t i = 0; i < m; ++i) {
      const float av = ar[i];
      if (av == 0.0f) continue;
      float* ci = c + i * ldc;
      for (int64_t j = 0; j < n; ++j) ci[j] += av * br[j];
    }
  }
}

}  // namespace gemm
}  // namespace pmmrec
