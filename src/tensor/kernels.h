#ifndef PMMREC_TENSOR_KERNELS_H_
#define PMMREC_TENSOR_KERNELS_H_

#include <cstdint>
#include <vector>

#include "tensor/tensor.h"

namespace pmmrec {
namespace kernels {

// Raw forward kernels, callable without Op wrappers — no autograd nodes,
// no shape checks, no shared_ptr churn. Each is the single source of truth
// for its op's forward arithmetic: the eager ops (tensor/ops.cc,
// tensor/ops_nn.cc) call these on validated inputs, and the raw-buffer
// inference forwards (nn/layers.h ForwardRows, the packed user-encoder
// pass) call them directly. Running literally the same code on both paths
// is what makes the packed pass bitwise equal to eager dispatch.
//
// Determinism: elementwise and per-row kernels touch each output element
// from exactly one loop iteration; the GEMM wrappers partition over owner
// rows and inherit the gemm.h determinism contract — so every kernel is
// bit-identical across thread counts.

// Walks the broadcast output elements with linear index in
// [lin_begin, lin_end), calling f(out_linear, a_offset, b_offset).
// Strides of size-1 broadcast dims are zero; restartable at any linear
// index so ParallelFor chunks each walk their own sub-range.
template <typename F>
void ForEachBroadcastPairRange(const Shape& out, const Shape& a,
                               const Shape& b, int64_t lin_begin,
                               int64_t lin_end, F&& f) {
  const int64_t rank = out.rank();
  if (rank == 0) {
    if (lin_begin <= 0 && lin_end > 0) f(0, 0, 0);
    return;
  }
  auto pad_strides = [&](const Shape& s) {
    std::vector<int64_t> st(static_cast<size_t>(rank), 0);
    const auto ss = s.Strides();
    for (int64_t i = 0; i < s.rank(); ++i) {
      const int64_t out_i = rank - s.rank() + i;
      st[static_cast<size_t>(out_i)] =
          (s.dim(i) == 1 && out.dim(out_i) != 1) ? 0
                                                 : ss[static_cast<size_t>(i)];
    }
    return st;
  };
  const auto sa = pad_strides(a);
  const auto sb = pad_strides(b);
  // Seed the multi-index and operand offsets at lin_begin.
  std::vector<int64_t> idx(static_cast<size_t>(rank), 0);
  int64_t a_off = 0;
  int64_t b_off = 0;
  int64_t rest = lin_begin;
  for (int64_t d = rank - 1; d >= 0; --d) {
    const size_t du = static_cast<size_t>(d);
    idx[du] = rest % out.dim(d);
    rest /= out.dim(d);
    a_off += idx[du] * sa[du];
    b_off += idx[du] * sb[du];
  }
  for (int64_t lin = lin_begin; lin < lin_end; ++lin) {
    f(lin, a_off, b_off);
    for (int64_t d = rank - 1; d >= 0; --d) {
      const size_t du = static_cast<size_t>(d);
      ++idx[du];
      a_off += sa[du];
      b_off += sb[du];
      if (idx[du] < out.dim(d)) break;
      a_off -= sa[du] * out.dim(d);
      b_off -= sb[du] * out.dim(d);
      idx[du] = 0;
    }
  }
}

// tanh of one float: a transcription of fdlibm's float tanhf and expm1f,
// the code glibc 2.36 ships, giving libm's bits on every input while
// calling no libm (DESIGN.md "GELU without libm"). The one tanh in src/:
// the eager Tanh op and every GELU run it or its lane form.
float TanhF(float x);

// GELU (tanh approximation) of one element:
// 0.5x(1 + TanhF(sqrt(2/pi)(x + 0.044715x^3))). GeluN, BiasGeluRows and
// GeluBackwardN compute the same bits in lanes and call this on ragged
// tails, so the eager op and the packed passes agree bit for bit.
float GeluScalar(float x);

// TanhF over x[0, n) in the lane form of `width` 4 (every host) or 8
// (AVX2 hosts only, see TanhLanes8Supported); elements past the last
// whole lane group go through TanhF. The GELU kernels pick the widest
// form once per process; this entry point exists for the kernel tests.
void TanhLanes(const float* x, float* y, int64_t n, int width);
bool TanhLanes8Supported();

// out[i] = a[i] + b[i] (identical shapes).
void AddSame(const float* a, const float* b, float* out, int64_t n);
// Broadcast add following NumPy semantics over the given shapes. A
// rank-1 b spanning a's last dim (a bias add) takes a row-loop fast path
// with the same per-element arithmetic.
void AddBroadcast(const float* a, const float* b, float* out,
                  const Shape& out_shape, const Shape& a_shape,
                  const Shape& b_shape);
// out[i] = a[i] * s.
void MulScalarN(const float* a, float s, float* out, int64_t n);
// out[i] = GeluScalar(a[i]).
void GeluN(const float* a, float* out, int64_t n);
// ga[i] += gout[i] * GELU'(x[i]), with t = TanhF(inner):
// 0.5(1 + t) + 0.5x(1 - t^2) sqrt(2/pi)(1 + 3 * 0.044715x^2) — the eager
// Gelu op's backward.
void GeluBackwardN(const float* x, const float* gout, float* ga, int64_t n);
// Numerically-stabilized softmax over each row of [rows, cols].
void SoftmaxRows(const float* x, float* y, int64_t rows, int64_t cols);
// LayerNorm over each row of [rows, d] with affine gamma/beta. When
// `xhat`/`inv_std` are non-null the normalized activations and inverse
// stddevs are saved for the backward pass; inference passes nullptr and
// the per-element arithmetic is unchanged.
void LayerNormRows(const float* x, const float* gamma, const float* beta,
                   float* y, float* xhat, float* inv_std, int64_t rows,
                   int64_t d, float eps);
// Narrow copy: out = a[.., start:start+length, ..] where a decomposes as
// [outer, mid, inner] around the sliced dim.
void CopySlice(const float* a, float* out, int64_t outer, int64_t mid,
               int64_t inner, int64_t start, int64_t length);
// Concat copy along a dim decomposed as [outer, mids[i], inner].
void CopyConcat(const float* const* srcs, const int64_t* mids,
                int64_t n_srcs, float* out, int64_t outer, int64_t inner,
                int64_t total_mid);
// Batched GEMM forwards (out is fully overwritten: each owner-row range is
// zeroed before the accumulating gemm.h kernel runs — bitwise identical to
// accumulating into fresh zero-filled storage).
// C[b,m,n] = A[b,m,k] * B[b|1,k,n]
void MatMulNNForward(const float* a, const float* b, float* out,
                     int64_t batch, int64_t m, int64_t k, int64_t n,
                     bool b_broadcast);
// C[b,m,n] = A[b,m,k] * B[b|1,n,k]^T
void MatMulNTForward(const float* a, const float* b, float* out,
                     int64_t batch, int64_t m, int64_t k, int64_t n,
                     bool b_broadcast);
// C[b,m,n] = A[b,k,m]^T * B[b|1,k,n]
void MatMulTNForward(const float* a, const float* b, float* out,
                     int64_t batch, int64_t m, int64_t k, int64_t n,
                     bool b_broadcast);
// out[r,c] = GeluScalar(x[r,c] + bias[c]) — the bias-broadcast Add followed
// by Gelu, one pass, identical per-element arithmetic (the packed passes'
// FFN, FeedForward::ForwardRows).
void BiasGeluRows(const float* x, const float* bias, float* out,
                  int64_t rows, int64_t cols);

}  // namespace kernels
}  // namespace pmmrec

#endif  // PMMREC_TENSOR_KERNELS_H_
