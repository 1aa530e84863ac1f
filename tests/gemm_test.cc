// Equivalence and gradient tests for the blocked GEMM kernel layer
// (tensor/gemm.*) and the fused-transpose MatMul variants.
//
// The blocked kernels promise bit-identical results to the reference
// (pre-blocking) kernels whenever the reduction fits a single KC block
// and C starts zeroed — the accumulation chain per element is the same
// ascending walk in both. These tests assert that with exact float
// equality on ragged shapes that exercise every edge-tile path, and with
// a small relative tolerance once k crosses kKC (where the blocked path
// legitimately re-associates across KC blocks). The pre-packed NT kernel
// (GemmNTPacked) rides along in the NT cases: it must equal GemmNT
// bitwise at every shape and column banding, including its one-row-at-a-
// time path for fewer than kMR rows.

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "gtest/gtest.h"
#include "tensor/gemm.h"
#include "tensor/ops.h"
#include "tensor/tensor.h"
#include "tests/gradcheck.h"
#include "utils/parallel.h"

namespace pmmrec {
namespace {

using testing::ExpectGradientsClose;

std::vector<float> RandomVec(int64_t n, Rng& rng) {
  std::vector<float> v(static_cast<size_t>(n));
  for (float& x : v) x = rng.NormalFloat();
  return v;
}

struct KernelCase {
  const char* name;
  void (*blocked)(const float*, const float*, float*, int64_t, int64_t,
                  int64_t, int64_t, int64_t, int64_t);
  void (*reference)(const float*, const float*, float*, int64_t, int64_t,
                    int64_t, int64_t, int64_t, int64_t);
};

const KernelCase kKernelCases[] = {
    {"NN", &gemm::GemmNN, &gemm::ReferenceGemmNN},
    {"NT", &gemm::GemmNT, &gemm::ReferenceGemmNT},
    {"TN", &gemm::GemmTN, &gemm::ReferenceGemmTN},
};

// Operand sizes for op `name` at logical (m, k, n): returns {a_elems,
// b_elems, lda, ldb}.
struct Operands {
  int64_t a_elems, b_elems, lda, ldb;
};

Operands OperandsFor(const char* name, int64_t m, int64_t k, int64_t n) {
  if (name[0] == 'T') return {k * m, k * n, m, n};       // TN: A[k,m] B[k,n]
  if (name[1] == 'T') return {m * k, n * k, k, k};       // NT: A[m,k] B[n,k]
  return {m * k, k * n, k, n};                           // NN: A[m,k] B[k,n]
}

// C = A[m,k] * B[n,k]^T through one PackNT of B and GemmNTPacked over
// column bands of `band` columns (a multiple of kNR), so every band after
// the first starts at a non-zero panel offset.
std::vector<float> PackedNTInBands(const std::vector<float>& a,
                                   const std::vector<float>& b, int64_t m,
                                   int64_t k, int64_t n, int64_t band) {
  const gemm::PackedNT packed = gemm::PackNT(b.data(), n, k, k);
  EXPECT_EQ(packed.rows(), n);
  EXPECT_EQ(packed.depth(), k);
  std::vector<float> c(static_cast<size_t>(m * n), 0.0f);
  for (int64_t j0 = 0; j0 < n; j0 += band) {
    gemm::GemmNTPacked(a.data(), packed, c.data() + j0, m, j0,
                       std::min(band, n - j0), k, n);
  }
  return c;
}

// Bands the packed kernel is run over for an n-column product: the whole
// product, one register panel, and one cache tile.
std::vector<int64_t> PackedBands(int64_t n) {
  return {n, gemm::kNR, gemm::kNC};
}

TEST(GemmKernelTest, BlockedMatchesReferenceAtRaggedShapes) {
  const int64_t sizes[] = {1, 3, 17, 64, 129};
  Rng rng(31);
  for (const KernelCase& kc : kKernelCases) {
    for (int64_t m : sizes) {
      for (int64_t k : sizes) {
        for (int64_t n : sizes) {
          const Operands ops = OperandsFor(kc.name, m, k, n);
          const std::vector<float> a = RandomVec(ops.a_elems, rng);
          const std::vector<float> b = RandomVec(ops.b_elems, rng);
          std::vector<float> c_blocked(static_cast<size_t>(m * n), 0.0f);
          std::vector<float> c_ref(static_cast<size_t>(m * n), 0.0f);
          kc.blocked(a.data(), b.data(), c_blocked.data(), m, k, n, ops.lda,
                     ops.ldb, n);
          kc.reference(a.data(), b.data(), c_ref.data(), m, k, n, ops.lda,
                       ops.ldb, n);
          for (int64_t i = 0; i < m * n; ++i) {
            ASSERT_EQ(c_blocked[static_cast<size_t>(i)],
                      c_ref[static_cast<size_t>(i)])
                << kc.name << " m=" << m << " k=" << k << " n=" << n
                << " elem=" << i;
          }
          if (kc.blocked != &gemm::GemmNT) continue;
          for (const int64_t band : PackedBands(n)) {
            const std::vector<float> c_packed =
                PackedNTInBands(a, b, m, k, n, band);
            for (int64_t i = 0; i < m * n; ++i) {
              ASSERT_EQ(c_packed[static_cast<size_t>(i)],
                        c_blocked[static_cast<size_t>(i)])
                  << "packed m=" << m << " k=" << k << " n=" << n
                  << " band=" << band << " elem=" << i;
            }
          }
        }
      }
    }
  }
}

// Shapes straddling the MC/KC/NC cache-block boundaries. k = 257 crosses
// kKC, so the blocked path accumulates two partial sums per element and
// exact equality no longer holds — compare with a tight relative bound.
TEST(GemmKernelTest, BlockedMatchesReferenceAcrossBlockBoundaries) {
  struct Shape3 {
    int64_t m, k, n;
  };
  const Shape3 shapes[] = {{97, 129, 513}, {191, 256, 97}, {97, 257, 65}};
  Rng rng(32);
  for (const KernelCase& kc : kKernelCases) {
    for (const Shape3& s : shapes) {
      const Operands ops = OperandsFor(kc.name, s.m, s.k, s.n);
      const std::vector<float> a = RandomVec(ops.a_elems, rng);
      const std::vector<float> b = RandomVec(ops.b_elems, rng);
      std::vector<float> c_blocked(static_cast<size_t>(s.m * s.n), 0.0f);
      std::vector<float> c_ref(static_cast<size_t>(s.m * s.n), 0.0f);
      kc.blocked(a.data(), b.data(), c_blocked.data(), s.m, s.k, s.n, ops.lda,
                 ops.ldb, s.n);
      kc.reference(a.data(), b.data(), c_ref.data(), s.m, s.k, s.n, ops.lda,
                   ops.ldb, s.n);
      const bool exact = s.k <= gemm::kKC;
      if (kc.blocked == &gemm::GemmNT) {
        // Several KC blocks at k = 257: still one chain per element, so
        // the packed kernel stays bitwise GemmNT under every banding.
        for (const int64_t band : PackedBands(s.n)) {
          const std::vector<float> c_packed =
              PackedNTInBands(a, b, s.m, s.k, s.n, band);
          for (int64_t i = 0; i < s.m * s.n; ++i) {
            ASSERT_EQ(c_packed[static_cast<size_t>(i)],
                      c_blocked[static_cast<size_t>(i)])
                << "packed m=" << s.m << " k=" << s.k << " n=" << s.n
                << " band=" << band << " elem=" << i;
          }
        }
      }
      for (int64_t i = 0; i < s.m * s.n; ++i) {
        const float bl = c_blocked[static_cast<size_t>(i)];
        const float rf = c_ref[static_cast<size_t>(i)];
        if (exact) {
          ASSERT_EQ(bl, rf) << kc.name << " m=" << s.m << " k=" << s.k
                            << " n=" << s.n << " elem=" << i;
        } else {
          const float scale =
              std::max(1.0f, std::fabs(rf)) * std::sqrt(static_cast<float>(s.k));
          ASSERT_NEAR(bl, rf, 1e-6f * scale)
              << kc.name << " m=" << s.m << " k=" << s.k << " n=" << s.n
              << " elem=" << i;
        }
      }
    }
  }
}

// Under the reference kernel setting the packed kernel walks
// ReferenceGemmNT's chain, so the two agree bitwise even past kKC, where
// the blocked chain differs.
TEST(GemmKernelTest, PackedFollowsTheReferenceKernelSetting) {
  const int64_t m = 7, k = 257, n = 70;
  Rng rng(34);
  const std::vector<float> a = RandomVec(m * k, rng);
  const std::vector<float> b = RandomVec(n * k, rng);
  std::vector<float> c_ref(static_cast<size_t>(m * n), 0.0f);
  gemm::ReferenceGemmNT(a.data(), b.data(), c_ref.data(), m, k, n, k, k, n);
  const gemm::Kernel before = gemm::ActiveKernel();
  gemm::SetKernel(gemm::Kernel::kReference);
  const std::vector<float> c_packed =
      PackedNTInBands(a, b, m, k, n, gemm::kNR);
  gemm::SetKernel(before);
  for (int64_t i = 0; i < m * n; ++i) {
    ASSERT_EQ(c_packed[static_cast<size_t>(i)], c_ref[static_cast<size_t>(i)])
        << "elem " << i;
  }
}

// The packed kernel runs rows past its last whole kMR tile (every row
// below kMR) one A row at a time over several panels. It must still be
// bitwise GemmNT when C already holds values,
// at ragged band widths, at band offsets past the first panel and tile,
// and across KC blocks (k = 257, 300), with strided A and C, under both
// kernel settings. The operand either ends with the band (zero-padded
// last panel) or continues past it (real columns in the padded lanes,
// which must never reach C).
TEST(GemmKernelTest, PackedSmallMMatchesGemmNT) {
  Rng rng(35);
  const gemm::Kernel before = gemm::ActiveKernel();
  for (const gemm::Kernel kernel :
       {gemm::Kernel::kBlocked, gemm::Kernel::kReference}) {
    gemm::SetKernel(kernel);
    for (const int64_t k : {1, 32, 256, 257, 300}) {
      for (const int64_t j0 : {0, 8, 512}) {
        for (const int64_t nc : {1, 7, 8, 9, 33, 513}) {
          for (const int64_t tail : {0, 3}) {
            const int64_t n = j0 + nc + tail;
            const std::vector<float> b = RandomVec(n * k, rng);
            const gemm::PackedNT packed = gemm::PackNT(b.data(), n, k, k);
            for (const int64_t m : {1, 2, 3, 4, 5, 7, 11}) {
              const int64_t lda = k + 2;
              const int64_t ldc = nc + 5;
              const std::vector<float> a = RandomVec(m * lda, rng);
              const std::vector<float> c0 = RandomVec(m * ldc, rng);
              std::vector<float> want = c0;
              std::vector<float> got = c0;
              gemm::GemmNT(a.data(), b.data() + j0 * k, want.data(), m, k, nc,
                           lda, k, ldc);
              gemm::GemmNTPacked(a.data(), packed, got.data(), m, j0, nc, lda,
                                 ldc);
              for (int64_t i = 0; i < m * ldc; ++i) {
                ASSERT_EQ(std::memcmp(&got[static_cast<size_t>(i)],
                                      &want[static_cast<size_t>(i)],
                                      sizeof(float)),
                          0)
                    << (kernel == gemm::Kernel::kBlocked ? "blocked"
                                                         : "reference")
                    << " m=" << m << " k=" << k << " j0=" << j0
                    << " nc=" << nc << " tail=" << tail << " elem=" << i;
              }
            }
          }
        }
      }
    }
  }
  gemm::SetKernel(before);
}

// Row/column-band restriction via pointer offset + leading dimension: the
// mechanism the parallel MatMul backward uses to partition reductions.
TEST(GemmKernelTest, RowBandsComposeToFullProduct) {
  const int64_t m = 53, k = 37, n = 41;
  Rng rng(33);
  const std::vector<float> a = RandomVec(m * k, rng);
  const std::vector<float> b = RandomVec(k * n, rng);
  std::vector<float> c_full(static_cast<size_t>(m * n), 0.0f);
  std::vector<float> c_bands(static_cast<size_t>(m * n), 0.0f);
  gemm::GemmNN(a.data(), b.data(), c_full.data(), m, k, n, k, n, n);
  const int64_t splits[] = {0, 7, 8, 29, m};
  for (size_t s = 0; s + 1 < std::size(splits); ++s) {
    const int64_t r0 = splits[s], r1 = splits[s + 1];
    gemm::GemmNN(a.data() + r0 * k, b.data(), c_bands.data() + r0 * n,
                 r1 - r0, k, n, k, n, n);
  }
  for (int64_t i = 0; i < m * n; ++i) {
    ASSERT_EQ(c_full[static_cast<size_t>(i)], c_bands[static_cast<size_t>(i)])
        << "elem " << i;
  }
}

// ---------------------------------------------------------------------------
// Fused-transpose ops vs. their materialized compositions.
// ---------------------------------------------------------------------------

void ExpectAllEqual(const Tensor& x, const Tensor& y) {
  ASSERT_EQ(x.numel(), y.numel());
  const float* xv = x.data();
  const float* yv = y.data();
  for (int64_t i = 0; i < x.numel(); ++i) {
    ASSERT_EQ(xv[i], yv[i]) << "elem " << i;
  }
}

TEST(MatMulFusedTest, NTMatchesTransposeComposition) {
  Rng rng(41);
  const Tensor a2 = Tensor::Randn(Shape{19, 23}, rng);
  const Tensor b2 = Tensor::Randn(Shape{29, 23}, rng);
  ExpectAllEqual(MatMulNT(a2, b2), MatMul(a2, TransposeLast2(b2)));

  const Tensor a3 = Tensor::Randn(Shape{3, 19, 23}, rng);
  const Tensor b3 = Tensor::Randn(Shape{3, 29, 23}, rng);
  ExpectAllEqual(MatMulNT(a3, b3), MatMul(a3, TransposeLast2(b3)));

  // Broadcast rhs (3-D x 2-D) has no composed counterpart with a single
  // TransposeLast2; check against per-batch slices instead.
  const Tensor bb = Tensor::Randn(Shape{29, 23}, rng);
  const Tensor fused = MatMulNT(a3, bb);
  const Tensor bt = TransposeLast2(bb);
  for (int64_t bi = 0; bi < 3; ++bi) {
    const Tensor slice = MatMul(
        Reshape(Slice(a3, 0, bi, 1), Shape{19, 23}), bt);
    const float* fv = fused.data() + bi * 19 * 29;
    const float* sv = slice.data();
    for (int64_t i = 0; i < 19 * 29; ++i) ASSERT_EQ(fv[i], sv[i]);
  }
}

TEST(MatMulFusedTest, TNMatchesTransposeComposition) {
  Rng rng(42);
  const Tensor a2 = Tensor::Randn(Shape{23, 19}, rng);
  const Tensor b2 = Tensor::Randn(Shape{23, 29}, rng);
  ExpectAllEqual(MatMulTN(a2, b2), MatMul(TransposeLast2(a2), b2));

  const Tensor a3 = Tensor::Randn(Shape{3, 23, 19}, rng);
  const Tensor b3 = Tensor::Randn(Shape{3, 23, 29}, rng);
  ExpectAllEqual(MatMulTN(a3, b3), MatMul(TransposeLast2(a3), b3));

  const Tensor bb = Tensor::Randn(Shape{23, 29}, rng);
  ExpectAllEqual(MatMulTN(a3, bb), MatMul(TransposeLast2(a3), bb));
}

// ---------------------------------------------------------------------------
// Finite-difference gradchecks for the fused ops.
// ---------------------------------------------------------------------------

TEST(MatMulFusedGradTest, NT2D) {
  Rng rng(51);
  Tensor a = Tensor::Randn(Shape{7, 11}, rng, 0.5f, true);
  Tensor b = Tensor::Randn(Shape{9, 11}, rng, 0.5f, true);
  auto loss = [&] { return SumAll(Square(MatMulNT(a, b))); };
  ExpectGradientsClose(loss, a);
  ExpectGradientsClose(loss, b);
}

TEST(MatMulFusedGradTest, NTBatchedAndBroadcast) {
  Rng rng(52);
  Tensor a = Tensor::Randn(Shape{2, 5, 8}, rng, 0.5f, true);
  Tensor b = Tensor::Randn(Shape{2, 6, 8}, rng, 0.5f, true);
  auto loss = [&] { return SumAll(Square(MatMulNT(a, b))); };
  ExpectGradientsClose(loss, a);
  ExpectGradientsClose(loss, b);

  Tensor shared = Tensor::Randn(Shape{6, 8}, rng, 0.5f, true);
  auto loss_bc = [&] { return SumAll(Square(MatMulNT(a, shared))); };
  ExpectGradientsClose(loss_bc, a);
  ExpectGradientsClose(loss_bc, shared);
}

TEST(MatMulFusedGradTest, TN2D) {
  Rng rng(53);
  Tensor a = Tensor::Randn(Shape{11, 7}, rng, 0.5f, true);
  Tensor b = Tensor::Randn(Shape{11, 9}, rng, 0.5f, true);
  auto loss = [&] { return SumAll(Square(MatMulTN(a, b))); };
  ExpectGradientsClose(loss, a);
  ExpectGradientsClose(loss, b);
}

TEST(MatMulFusedGradTest, TNBatchedAndBroadcast) {
  Rng rng(54);
  Tensor a = Tensor::Randn(Shape{2, 8, 5}, rng, 0.5f, true);
  Tensor b = Tensor::Randn(Shape{2, 8, 6}, rng, 0.5f, true);
  auto loss = [&] { return SumAll(Square(MatMulTN(a, b))); };
  ExpectGradientsClose(loss, a);
  ExpectGradientsClose(loss, b);

  Tensor shared = Tensor::Randn(Shape{8, 6}, rng, 0.5f, true);
  auto loss_bc = [&] { return SumAll(Square(MatMulTN(a, shared))); };
  ExpectGradientsClose(loss_bc, a);
  ExpectGradientsClose(loss_bc, shared);
}

// Gradchecks again with multiple threads, so chunked backward partitions
// (not just the serial path) are validated against finite differences.
TEST(MatMulFusedGradTest, FusedOpsWithThreads) {
  NumThreadsGuard guard(4);
  Rng rng(55);
  Tensor a = Tensor::Randn(Shape{3, 17, 13}, rng, 0.5f, true);
  Tensor b = Tensor::Randn(Shape{3, 21, 13}, rng, 0.5f, true);
  auto loss_nt = [&] { return SumAll(Square(MatMulNT(a, b))); };
  ExpectGradientsClose(loss_nt, a, 1e-2f, 2e-2f, 32);
  ExpectGradientsClose(loss_nt, b, 1e-2f, 2e-2f, 32);

  Tensor at = Tensor::Randn(Shape{3, 13, 17}, rng, 0.5f, true);
  Tensor bt = Tensor::Randn(Shape{3, 13, 21}, rng, 0.5f, true);
  auto loss_tn = [&] { return SumAll(Square(MatMulTN(at, bt))); };
  ExpectGradientsClose(loss_tn, at, 1e-2f, 2e-2f, 32);
  ExpectGradientsClose(loss_tn, bt, 1e-2f, 2e-2f, 32);
}

// The kernel dispatch toggle used by the A/B benchmarks must actually
// switch implementations and restore cleanly.
TEST(GemmKernelTest, KernelToggleRoundTrips) {
  const gemm::Kernel before = gemm::ActiveKernel();
  gemm::SetKernel(gemm::Kernel::kReference);
  EXPECT_EQ(gemm::ActiveKernel(), gemm::Kernel::kReference);
  gemm::SetKernel(gemm::Kernel::kBlocked);
  EXPECT_EQ(gemm::ActiveKernel(), gemm::Kernel::kBlocked);
  gemm::SetKernel(before);
}

}  // namespace
}  // namespace pmmrec
