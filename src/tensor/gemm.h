#ifndef PMMREC_TENSOR_GEMM_H_
#define PMMREC_TENSOR_GEMM_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace pmmrec {
namespace gemm {

// Cache-blocked, register-tiled float32 GEMM microkernels backing MatMul /
// MatMulNT / MatMulTN (tensor/ops_nn.cc).
//
// All routines ACCUMULATE into C (`C += op(A) * op(B)`) and take explicit
// leading dimensions (row strides), so callers can restrict a kernel to a
// row band or a column band of a larger matrix — that is how the parallel
// MatMul backward partitions reductions without changing results.
//
// Determinism contract (see DESIGN.md "Kernel architecture"): the blocking
// parameters below are fixed compile-time constants, chosen independently
// of the thread count, and every output element is accumulated through a
// single chain — one register accumulator per element, walking the
// reduction dimension in ascending order inside each KC block, KC blocks
// ascending, with one `C += partial` per block. The chain depends only on
// (K, the element's coordinates), never on where a caller's row/column
// band begins or how tiles fall inside it, so results are bit-identical
// for every ParallelFor partition and every thread count. For reductions
// no longer than kKC the blocked kernels are additionally bit-identical
// to the reference kernels (both reduce to the same ascending chain).

// Register tile: each microkernel invocation produces an MR x NR block of
// C held entirely in registers across the KC loop. 6x8 fills the SSE2
// register budget (12 accumulator vectors + loads) and autovectorizes to
// wider ISAs under -DPMMREC_NATIVE=ON.
inline constexpr int64_t kMR = 6;
inline constexpr int64_t kNR = 8;
// Cache blocks: A panels (kMC x kKC) target L1/L2 residency, B panels
// (kKC x kNC) stay within L2. kKC also bounds the reduction span of one
// accumulation block (the determinism unit).
inline constexpr int64_t kMC = 96;
inline constexpr int64_t kKC = 256;
inline constexpr int64_t kNC = 512;

// Kernel dispatch. The reference kernels are the pre-blocking (PR 1)
// triple loops, kept for equivalence tests and A/B benchmarking; set
// PMMREC_GEMM=reference (or SetKernel) to route the MatMul ops through
// them.
enum class Kernel { kBlocked, kReference };
Kernel ActiveKernel();
void SetKernel(Kernel kernel);

// C[m,n] += A[m,k] * B[k,n]
void GemmNN(const float* a, const float* b, float* c, int64_t m, int64_t k,
            int64_t n, int64_t lda, int64_t ldb, int64_t ldc);
// C[m,n] += A[m,k] * B[n,k]^T   (fused transpose of the right operand)
void GemmNT(const float* a, const float* b, float* c, int64_t m, int64_t k,
            int64_t n, int64_t lda, int64_t ldb, int64_t ldc);
// C[m,n] += A[k,m]^T * B[k,n]   (fused transpose of the left operand)
void GemmTN(const float* a, const float* b, float* c, int64_t m, int64_t k,
            int64_t n, int64_t lda, int64_t ldb, int64_t ldc);

// --- Pre-packed right operand ----------------------------------------------
// A GemmNT right operand B[n, k] packed once into the blocked kernel's B
// panels, for callers that multiply many left operands by one fixed B
// (the serving snapshot's item table). GemmNTPacked runs the same
// microkernel over the same panels GemmNT packs per call, so every
// element keeps its accumulation chain. The panel layout is private to
// gemm.cc.
class PackedNT {
 public:
  int64_t rows() const { return n_; }   // n: columns of C
  int64_t depth() const { return k_; }  // k: the reduction length
  size_t bytes() const { return panels_.size() * sizeof(float); }

 private:
  friend PackedNT PackNT(const float* b, int64_t n, int64_t k, int64_t ldb);
  friend void GemmNTPacked(const float* a, const PackedNT& b, float* c,
                           int64_t m, int64_t j0, int64_t nc, int64_t lda,
                           int64_t ldc);
  int64_t n_ = 0;
  int64_t k_ = 0;
  std::vector<float> panels_;
};

// Packs B[n, k] (row stride ldb) for GemmNTPacked.
PackedNT PackNT(const float* b, int64_t n, int64_t k, int64_t ldb);

// C[m, nc] += A[m, k] * B[j0, j0 + nc)^T: GemmNT over the column band
// [j0, j0 + nc) of the packed operand, with j0 a multiple of kNR.
// Bitwise GemmNT(a, b + j0 * ldb, c, m, k, nc, lda, ldb, ldc) over the
// source B, under either kernel setting; counted as a GemmNT call. Rows
// past the last whole kMR-row tile (all rows when m < kMR, e.g. one
// query) run one row at a time against several panels rather than in a
// zero-padded tile, with the same per-element chain.
void GemmNTPacked(const float* a, const PackedNT& b, float* c, int64_t m,
                  int64_t j0, int64_t nc, int64_t lda, int64_t ldc);

// Reference (naive) kernels with the same signatures and accumulation
// chains; exact-equality baselines for the blocked path when k <= kKC.
void ReferenceGemmNN(const float* a, const float* b, float* c, int64_t m,
                     int64_t k, int64_t n, int64_t lda, int64_t ldb,
                     int64_t ldc);
void ReferenceGemmNT(const float* a, const float* b, float* c, int64_t m,
                     int64_t k, int64_t n, int64_t lda, int64_t ldb,
                     int64_t ldc);
void ReferenceGemmTN(const float* a, const float* b, float* c, int64_t m,
                     int64_t k, int64_t n, int64_t lda, int64_t ldb,
                     int64_t ldc);

}  // namespace gemm
}  // namespace pmmrec

#endif  // PMMREC_TENSOR_GEMM_H_
