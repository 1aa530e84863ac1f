#include "tensor/ops.h"

#include <algorithm>
#include <cmath>

#include "tensor/kernels.h"
#include "utils/parallel.h"

namespace pmmrec {
namespace {

bool NeedsGrad(const TensorImpl& impl) {
  return impl.requires_grad || impl.backward_fn != nullptr;
}

// Cache-blocked out-of-place transpose: dst[j, i] (+)= src[i, j] over
// square tiles, so both matrices are touched in short contiguous runs
// instead of striding one of them column-major through every cache line.
constexpr int64_t kTransposeBlock = 32;

template <bool Accumulate>
void BlockedTranspose(const float* src, float* dst, int64_t m, int64_t n) {
  for (int64_t ib = 0; ib < m; ib += kTransposeBlock) {
    const int64_t ie = std::min(m, ib + kTransposeBlock);
    for (int64_t jb = 0; jb < n; jb += kTransposeBlock) {
      const int64_t je = std::min(n, jb + kTransposeBlock);
      for (int64_t i = ib; i < ie; ++i) {
        for (int64_t j = jb; j < je; ++j) {
          if constexpr (Accumulate) {
            dst[j * m + i] += src[i * n + j];
          } else {
            dst[j * m + i] = src[i * n + j];
          }
        }
      }
    }
  }
}

// The restartable broadcast walker lives in tensor/kernels.h now (shared
// with the raw kernels); this wrapper keeps the serial full-range form the
// backward passes use.
using kernels::ForEachBroadcastPairRange;

template <typename F>
void ForEachBroadcastPair(const Shape& out, const Shape& a, const Shape& b,
                          F&& f) {
  ForEachBroadcastPairRange(out, a, b, 0, out.numel(), f);
}

// Generic differentiable binary broadcast op.
// f(a, b) -> out;  da(a, b) = d out/d a;  db(a, b) = d out/d b.
template <typename FwdFn, typename DaFn, typename DbFn>
Tensor BinaryBroadcastOp(const Tensor& a, const Tensor& b, FwdFn f, DaFn da,
                         DbFn db) {
  PMM_CHECK(a.defined());
  PMM_CHECK(b.defined());
  const Shape out_shape = Shape::Broadcast(a.shape(), b.shape());
  auto a_impl = a.impl();
  auto b_impl = b.impl();

  Tensor out = internal::MakeNode(
      out_shape, {a, b}, [a_impl, b_impl, f, da, db](TensorImpl& self) {
        const float* av = a_impl->const_data();
        const float* bv = b_impl->const_data();
        const float* gout = self.grad.data();
        const bool need_a = NeedsGrad(*a_impl);
        const bool need_b = NeedsGrad(*b_impl);
        if (need_a) a_impl->EnsureGrad();
        if (need_b) b_impl->EnsureGrad();
        float* ga = need_a ? a_impl->grad.data() : nullptr;
        float* gb = need_b ? b_impl->grad.data() : nullptr;
        if (a_impl->shape == b_impl->shape) {
          // No broadcasting: every input gradient element is owned by
          // exactly one output element, so chunks never alias.
          const int64_t n = self.shape.numel();
          ParallelFor(0, n, GrainForCost(4), [&](int64_t lo, int64_t hi) {
            for (int64_t i = lo; i < hi; ++i) {
              const float g = gout[i];
              if (ga) ga[i] += g * da(av[i], bv[i]);
              if (gb) gb[i] += g * db(av[i], bv[i]);
            }
          });
        } else {
          // Broadcast dims scatter several output gradients into one input
          // element; stay serial to keep accumulation race-free and in the
          // reference order.
          ForEachBroadcastPair(
              self.shape, a_impl->shape, b_impl->shape,
              [&](int64_t lin, int64_t ao, int64_t bo) {
                const float g = gout[lin];
                if (ga) ga[ao] += g * da(av[ao], bv[bo]);
                if (gb) gb[bo] += g * db(av[ao], bv[bo]);
              });
        }
      });

  // Forward.
  const float* av = a.data();
  const float* bv = b.data();
  float* ov = out.data();
  const int64_t n = out.numel();
  if (a.shape() == b.shape()) {
    ParallelFor(0, n, GrainForCost(1), [&](int64_t lo, int64_t hi) {
      for (int64_t i = lo; i < hi; ++i) ov[i] = f(av[i], bv[i]);
    });
  } else {
    ParallelFor(0, n, GrainForCost(2), [&](int64_t lo, int64_t hi) {
      ForEachBroadcastPairRange(out_shape, a.shape(), b.shape(), lo, hi,
                                [&](int64_t lin, int64_t ao, int64_t bo) {
                                  ov[lin] = f(av[ao], bv[bo]);
                                });
    });
  }
  return out;
}

// Generic differentiable unary op. dydx receives (x, y).
template <typename FwdFn, typename DFn>
Tensor UnaryOp(const Tensor& a, FwdFn f, DFn dydx) {
  PMM_CHECK(a.defined());
  auto a_impl = a.impl();
  Tensor out = internal::MakeNode(
      a.shape(), {a}, [a_impl, dydx](TensorImpl& self) {
        if (!NeedsGrad(*a_impl)) return;
        a_impl->EnsureGrad();
        const float* x = a_impl->const_data();
        const float* y = self.const_data();
        const float* gout = self.grad.data();
        float* ga = a_impl->grad.data();
        const int64_t n = self.shape.numel();
        ParallelFor(0, n, GrainForCost(2), [&](int64_t lo, int64_t hi) {
          for (int64_t i = lo; i < hi; ++i) {
            ga[i] += gout[i] * dydx(x[i], y[i]);
          }
        });
      });
  const float* x = a.data();
  float* y = out.data();
  const int64_t n = a.numel();
  ParallelFor(0, n, GrainForCost(1), [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) y[i] = f(x[i]);
  });
  return out;
}

// Decomposes `shape` around `dim` into [outer, mid, inner] extents.
void SplitAtDim(const Shape& shape, int64_t dim, int64_t* outer, int64_t* mid,
                int64_t* inner) {
  *outer = 1;
  *mid = shape.dim(dim);
  *inner = 1;
  for (int64_t i = 0; i < dim; ++i) *outer *= shape.dim(i);
  for (int64_t i = dim + 1; i < shape.rank(); ++i) *inner *= shape.dim(i);
}

}  // namespace

// --- Elementwise -----------------------------------------------------------

Tensor Add(const Tensor& a, const Tensor& b) {
  // Standalone (not BinaryBroadcastOp): its forward must run the exact raw
  // kernels the packed serving pass calls (nn/layers.h ForwardRows) — the
  // same machine code, not a re-derivation of it.
  PMM_CHECK(a.defined());
  PMM_CHECK(b.defined());
  const Shape out_shape = Shape::Broadcast(a.shape(), b.shape());
  auto a_impl = a.impl();
  auto b_impl = b.impl();
  Tensor out = internal::MakeNode(
      out_shape, {a, b}, [a_impl, b_impl](TensorImpl& self) {
        const float* gout = self.grad.data();
        const bool need_a = NeedsGrad(*a_impl);
        const bool need_b = NeedsGrad(*b_impl);
        if (need_a) a_impl->EnsureGrad();
        if (need_b) b_impl->EnsureGrad();
        float* ga = need_a ? a_impl->grad.data() : nullptr;
        float* gb = need_b ? b_impl->grad.data() : nullptr;
        if (a_impl->shape == b_impl->shape) {
          const int64_t n = self.shape.numel();
          ParallelFor(0, n, GrainForCost(2), [&](int64_t lo, int64_t hi) {
            for (int64_t i = lo; i < hi; ++i) {
              const float g = gout[i];
              if (ga) ga[i] += g;
              if (gb) gb[i] += g;
            }
          });
        } else {
          // Broadcast scatter-adds alias; stay serial (see
          // BinaryBroadcastOp).
          ForEachBroadcastPair(self.shape, a_impl->shape, b_impl->shape,
                               [&](int64_t lin, int64_t ao, int64_t bo) {
                                 const float g = gout[lin];
                                 if (ga) ga[ao] += g;
                                 if (gb) gb[bo] += g;
                               });
        }
      });

  const bool same = a.shape() == b.shape();
  if (same) {
    kernels::AddSame(a.data(), b.data(), out.data(), out.numel());
  } else {
    kernels::AddBroadcast(a.data(), b.data(), out.data(), out_shape,
                          a.shape(), b.shape());
  }
  return out;
}

Tensor Sub(const Tensor& a, const Tensor& b) {
  return BinaryBroadcastOp(
      a, b, [](float x, float y) { return x - y; },
      [](float, float) { return 1.0f; }, [](float, float) { return -1.0f; });
}

Tensor Mul(const Tensor& a, const Tensor& b) {
  return BinaryBroadcastOp(
      a, b, [](float x, float y) { return x * y; },
      [](float, float y) { return y; }, [](float x, float) { return x; });
}

Tensor Div(const Tensor& a, const Tensor& b) {
  return BinaryBroadcastOp(
      a, b, [](float x, float y) { return x / y; },
      [](float, float y) { return 1.0f / y; },
      [](float x, float y) { return -x / (y * y); });
}

Tensor AddScalar(const Tensor& a, float s) {
  return UnaryOp(
      a, [s](float x) { return x + s; }, [](float, float) { return 1.0f; });
}

Tensor MulScalar(const Tensor& a, float s) {
  // Standalone: shares kernels::MulScalarN with the packed serving pass
  // (attention scaling).
  PMM_CHECK(a.defined());
  auto a_impl = a.impl();
  Tensor out = internal::MakeNode(
      a.shape(), {a}, [a_impl, s](TensorImpl& self) {
        if (!NeedsGrad(*a_impl)) return;
        a_impl->EnsureGrad();
        const float* gout = self.grad.data();
        float* ga = a_impl->grad.data();
        const int64_t n = self.shape.numel();
        ParallelFor(0, n, GrainForCost(2), [&](int64_t lo, int64_t hi) {
          for (int64_t i = lo; i < hi; ++i) ga[i] += gout[i] * s;
        });
      });
  kernels::MulScalarN(a.data(), s, out.data(), a.numel());
  return out;
}

Tensor Neg(const Tensor& a) { return MulScalar(a, -1.0f); }

Tensor Exp(const Tensor& a) {
  return UnaryOp(
      a, [](float x) { return std::exp(x); },
      [](float, float y) { return y; });
}

Tensor Log(const Tensor& a) {
  return UnaryOp(
      a, [](float x) { return std::log(std::max(x, 1e-12f)); },
      [](float x, float) { return 1.0f / std::max(x, 1e-12f); });
}

Tensor Sqrt(const Tensor& a) {
  return UnaryOp(
      a, [](float x) { return std::sqrt(x); },
      [](float, float y) { return 0.5f / std::max(y, 1e-12f); });
}

Tensor Square(const Tensor& a) {
  return UnaryOp(
      a, [](float x) { return x * x; },
      [](float x, float) { return 2.0f * x; });
}

// --- Shape manipulation ------------------------------------------------------

Tensor Reshape(const Tensor& a, const Shape& new_shape) {
  PMM_CHECK(a.defined());
  PMM_CHECK_EQ(a.numel(), new_shape.numel());
  auto a_impl = a.impl();
  auto impl = std::make_shared<TensorImpl>();
  impl->shape = new_shape;
  impl->data = a_impl->data;  // Shared storage: zero-copy view.
  if (GradMode::enabled() && NeedsGrad(*a_impl)) {
    impl->parents = {a_impl};
    impl->backward_fn = [a_impl](TensorImpl& self) {
      a_impl->EnsureGrad();
      const int64_t n = self.shape.numel();
      const float* gout = self.grad.data();
      float* ga = a_impl->grad.data();
      for (int64_t i = 0; i < n; ++i) ga[i] += gout[i];
    };
  }
  return Tensor(std::move(impl));
}

Tensor TransposeLast2(const Tensor& a) {
  PMM_CHECK(a.defined());
  PMM_CHECK_GE(a.rank(), 2);
  const int64_t m = a.dim(-2);
  const int64_t n = a.dim(-1);
  int64_t batch = a.numel() / (m * n);
  std::vector<int64_t> dims = a.shape().dims();
  std::swap(dims[dims.size() - 1], dims[dims.size() - 2]);

  auto a_impl = a.impl();
  Tensor out = internal::MakeNode(
      Shape(dims), {a}, [a_impl, batch, m, n](TensorImpl& self) {
        if (!NeedsGrad(*a_impl)) return;
        a_impl->EnsureGrad();
        const float* gout = self.grad.data();
        float* ga = a_impl->grad.data();
        // gout slices are [n, m]; transposing them back accumulates one
        // value per dA element, so the batch partition is race-free and
        // the result is partition-invariant.
        ParallelFor(0, batch, GrainForCost(m * n),
                    [&](int64_t b0, int64_t b1) {
                      for (int64_t b = b0; b < b1; ++b) {
                        BlockedTranspose<true>(gout + b * m * n,
                                               ga + b * m * n, n, m);
                      }
                    });
      });
  const float* av = a.data();
  float* ov = out.data();
  ParallelFor(0, batch, GrainForCost(m * n), [&](int64_t b0, int64_t b1) {
    for (int64_t b = b0; b < b1; ++b) {
      BlockedTranspose<false>(av + b * m * n, ov + b * m * n, m, n);
    }
  });
  return out;
}

Tensor Concat(const std::vector<Tensor>& tensors, int64_t dim) {
  PMM_CHECK(!tensors.empty());
  const Shape& first = tensors[0].shape();
  if (dim < 0) dim += first.rank();
  PMM_CHECK_GE(dim, 0);
  PMM_CHECK_LT(dim, first.rank());

  int64_t total_mid = 0;
  for (const Tensor& t : tensors) {
    PMM_CHECK_EQ(t.rank(), first.rank());
    for (int64_t i = 0; i < first.rank(); ++i) {
      if (i != dim) PMM_CHECK_EQ(t.dim(i), first.dim(i));
    }
    total_mid += t.dim(dim);
  }
  std::vector<int64_t> dims = first.dims();
  dims[static_cast<size_t>(dim)] = total_mid;
  const Shape out_shape{dims};

  int64_t outer = 1;
  int64_t inner = 1;
  for (int64_t i = 0; i < dim; ++i) outer *= first.dim(i);
  for (int64_t i = dim + 1; i < first.rank(); ++i) inner *= first.dim(i);

  std::vector<std::shared_ptr<TensorImpl>> impls;
  impls.reserve(tensors.size());
  std::vector<int64_t> mids;
  for (const Tensor& t : tensors) {
    impls.push_back(t.impl());
    mids.push_back(t.dim(dim));
  }

  Tensor out = internal::MakeNode(
      out_shape, tensors,
      [impls, mids, outer, inner, total_mid](TensorImpl& self) {
        const float* gout = self.grad.data();
        int64_t mid_offset = 0;
        for (size_t t = 0; t < impls.size(); ++t) {
          auto& impl = impls[t];
          const int64_t mid = mids[t];
          if (NeedsGrad(*impl)) {
            impl->EnsureGrad();
            float* g = impl->grad.data();
            for (int64_t o = 0; o < outer; ++o) {
              const float* src =
                  gout + (o * total_mid + mid_offset) * inner;
              float* dst = g + o * mid * inner;
              for (int64_t i = 0; i < mid * inner; ++i) dst[i] += src[i];
            }
          }
          mid_offset += mid;
        }
      });

  std::vector<const float*> srcs;
  srcs.reserve(tensors.size());
  for (const Tensor& t : tensors) srcs.push_back(t.data());
  kernels::CopyConcat(srcs.data(), mids.data(),
                      static_cast<int64_t>(srcs.size()), out.data(), outer,
                      inner, total_mid);
  return out;
}

Tensor Slice(const Tensor& a, int64_t dim, int64_t start, int64_t length) {
  PMM_CHECK(a.defined());
  if (dim < 0) dim += a.rank();
  PMM_CHECK_GE(dim, 0);
  PMM_CHECK_LT(dim, a.rank());
  PMM_CHECK_GE(start, 0);
  PMM_CHECK_LE(start + length, a.dim(dim));

  int64_t outer, mid, inner;
  SplitAtDim(a.shape(), dim, &outer, &mid, &inner);
  std::vector<int64_t> dims = a.shape().dims();
  dims[static_cast<size_t>(dim)] = length;

  auto a_impl = a.impl();
  Tensor out = internal::MakeNode(
      Shape(dims), {a},
      [a_impl, outer, mid, inner, start, length](TensorImpl& self) {
        if (!NeedsGrad(*a_impl)) return;
        a_impl->EnsureGrad();
        const float* gout = self.grad.data();
        float* ga = a_impl->grad.data();
        for (int64_t o = 0; o < outer; ++o) {
          const float* src = gout + o * length * inner;
          float* dst = ga + (o * mid + start) * inner;
          for (int64_t i = 0; i < length * inner; ++i) dst[i] += src[i];
        }
      });

  kernels::CopySlice(a.data(), out.data(), outer, mid, inner, start, length);
  return out;
}

Tensor SelectRows(const Tensor& a, const std::vector<int32_t>& rows) {
  PMM_CHECK(a.defined());
  PMM_CHECK_GE(a.rank(), 1);
  const int64_t n_rows = a.dim(0);
  const int64_t row_size = a.numel() / std::max<int64_t>(n_rows, 1);
  std::vector<int64_t> dims = a.shape().dims();
  dims[0] = static_cast<int64_t>(rows.size());
  for (int32_t r : rows) {
    PMM_CHECK_GE(r, 0);
    PMM_CHECK_LT(static_cast<int64_t>(r), n_rows);
  }

  auto a_impl = a.impl();
  auto rows_copy = rows;
  Tensor out = internal::MakeNode(
      Shape(dims), {a}, [a_impl, rows_copy, row_size](TensorImpl& self) {
        if (!NeedsGrad(*a_impl)) return;
        a_impl->EnsureGrad();
        const float* gout = self.grad.data();
        float* ga = a_impl->grad.data();
        // Serial: duplicate indices scatter-add into the same source row,
        // so a parallel partition over the gather axis would race.
        for (size_t i = 0; i < rows_copy.size(); ++i) {
          const float* src = gout + static_cast<int64_t>(i) * row_size;
          float* dst = ga + static_cast<int64_t>(rows_copy[i]) * row_size;
          for (int64_t j = 0; j < row_size; ++j) dst[j] += src[j];
        }
      });

  const float* av = a.data();
  float* ov = out.data();
  ParallelFor(0, static_cast<int64_t>(rows.size()), GrainForCost(row_size),
              [&](int64_t i0, int64_t i1) {
                for (int64_t i = i0; i < i1; ++i) {
                  const int64_t r =
                      static_cast<int64_t>(rows[static_cast<size_t>(i)]);
                  std::copy(av + r * row_size, av + (r + 1) * row_size,
                            ov + i * row_size);
                }
              });
  return out;
}

// --- Activations --------------------------------------------------------------

Tensor Relu(const Tensor& a) {
  return UnaryOp(
      a, [](float x) { return x > 0.0f ? x : 0.0f; },
      [](float x, float) { return x > 0.0f ? 1.0f : 0.0f; });
}

Tensor Gelu(const Tensor& a) {
  // tanh approximation: 0.5x(1 + tanh(sqrt(2/pi)(x + 0.044715 x^3))).
  // Forward and backward are kernels::GeluN and kernels::GeluBackwardN:
  // lane kernels over kernels::TanhF, whose bits the packed passes'
  // BiasGeluRows shares.
  PMM_CHECK(a.defined());
  auto a_impl = a.impl();
  Tensor out = internal::MakeNode(
      a.shape(), {a}, [a_impl](TensorImpl& self) {
        if (!NeedsGrad(*a_impl)) return;
        a_impl->EnsureGrad();
        kernels::GeluBackwardN(a_impl->const_data(), self.grad.data(),
                               a_impl->grad.data(), self.shape.numel());
      });
  kernels::GeluN(a.data(), out.data(), a.numel());
  return out;
}

Tensor Tanh(const Tensor& a) {
  return UnaryOp(
      a, [](float x) { return kernels::TanhF(x); },
      [](float, float y) { return 1.0f - y * y; });
}

Tensor Sigmoid(const Tensor& a) {
  return UnaryOp(
      a, [](float x) { return 1.0f / (1.0f + std::exp(-x)); },
      [](float, float y) { return y * (1.0f - y); });
}

Tensor Softmax(const Tensor& a) {
  PMM_CHECK(a.defined());
  PMM_CHECK_GE(a.rank(), 1);
  const int64_t cols = a.dim(-1);
  const int64_t rows = a.numel() / cols;

  auto a_impl = a.impl();
  Tensor out = internal::MakeNode(
      a.shape(), {a}, [a_impl, rows, cols](TensorImpl& self) {
        if (!NeedsGrad(*a_impl)) return;
        a_impl->EnsureGrad();
        const float* y = self.const_data();
        const float* gout = self.grad.data();
        float* ga = a_impl->grad.data();
        ParallelFor(0, rows, GrainForCost(cols * 3),
                    [&](int64_t r0, int64_t r1) {
                      for (int64_t r = r0; r < r1; ++r) {
                        const float* yr = y + r * cols;
                        const float* gr = gout + r * cols;
                        float dot = 0.0f;
                        for (int64_t c = 0; c < cols; ++c) {
                          dot += yr[c] * gr[c];
                        }
                        float* gar = ga + r * cols;
                        for (int64_t c = 0; c < cols; ++c) {
                          gar[c] += yr[c] * (gr[c] - dot);
                        }
                      }
                    });
      });

  kernels::SoftmaxRows(a.data(), out.data(), rows, cols);
  return out;
}

Tensor LogSoftmax(const Tensor& a) {
  PMM_CHECK(a.defined());
  PMM_CHECK_GE(a.rank(), 1);
  const int64_t cols = a.dim(-1);
  const int64_t rows = a.numel() / cols;

  auto a_impl = a.impl();
  Tensor out = internal::MakeNode(
      a.shape(), {a}, [a_impl, rows, cols](TensorImpl& self) {
        if (!NeedsGrad(*a_impl)) return;
        a_impl->EnsureGrad();
        const float* y = self.const_data();  // log p
        const float* gout = self.grad.data();
        float* ga = a_impl->grad.data();
        ParallelFor(0, rows, GrainForCost(cols * 3),
                    [&](int64_t r0, int64_t r1) {
                      for (int64_t r = r0; r < r1; ++r) {
                        const float* yr = y + r * cols;
                        const float* gr = gout + r * cols;
                        float gsum = 0.0f;
                        for (int64_t c = 0; c < cols; ++c) gsum += gr[c];
                        float* gar = ga + r * cols;
                        for (int64_t c = 0; c < cols; ++c) {
                          gar[c] += gr[c] - std::exp(yr[c]) * gsum;
                        }
                      }
                    });
      });

  const float* x = a.data();
  float* y = out.data();
  ParallelFor(0, rows, GrainForCost(cols * 4), [&](int64_t r0, int64_t r1) {
    for (int64_t r = r0; r < r1; ++r) {
      const float* xr = x + r * cols;
      float* yr = y + r * cols;
      float max_v = xr[0];
      for (int64_t c = 1; c < cols; ++c) max_v = std::max(max_v, xr[c]);
      float sum = 0.0f;
      for (int64_t c = 0; c < cols; ++c) sum += std::exp(xr[c] - max_v);
      const float log_z = max_v + std::log(sum);
      for (int64_t c = 0; c < cols; ++c) yr[c] = xr[c] - log_z;
    }
  });
  return out;
}

Tensor Dropout(const Tensor& a, float p, Rng& rng, bool training) {
  PMM_CHECK(a.defined());
  PMM_CHECK_GE(p, 0.0f);
  PMM_CHECK_LT(p, 1.0f);
  if (!training || p == 0.0f) return a;
  // A stochastic forward under the inference guard is almost certainly a
  // missing SetTraining(false); fail loudly instead of serving noisy,
  // RNG-consuming scores.
  PMM_CHECK_MSG(!InferenceMode::enabled(),
                "training-mode Dropout under InferenceMode — call "
                "SetTraining(false) before scoring");

  const int64_t n = a.numel();
  auto mask = std::make_shared<std::vector<float>>(static_cast<size_t>(n));
  const float scale = 1.0f / (1.0f - p);
  for (int64_t i = 0; i < n; ++i) {
    (*mask)[static_cast<size_t>(i)] = rng.Bernoulli(p) ? 0.0f : scale;
  }

  auto a_impl = a.impl();
  Tensor out = internal::MakeNode(
      a.shape(), {a}, [a_impl, mask](TensorImpl& self) {
        if (!NeedsGrad(*a_impl)) return;
        a_impl->EnsureGrad();
        const float* gout = self.grad.data();
        float* ga = a_impl->grad.data();
        const int64_t n = self.shape.numel();
        for (int64_t i = 0; i < n; ++i) {
          ga[i] += gout[i] * (*mask)[static_cast<size_t>(i)];
        }
      });
  const float* x = a.data();
  float* y = out.data();
  for (int64_t i = 0; i < n; ++i) {
    y[i] = x[i] * (*mask)[static_cast<size_t>(i)];
  }
  return out;
}

// --- Reductions -----------------------------------------------------------------

Tensor SumAll(const Tensor& a) {
  PMM_CHECK(a.defined());
  auto a_impl = a.impl();
  Tensor out = internal::MakeNode(Shape{}, {a}, [a_impl](TensorImpl& self) {
    if (!NeedsGrad(*a_impl)) return;
    a_impl->EnsureGrad();
    const float g = self.grad[0];
    float* ga = a_impl->grad.data();
    const int64_t n = a_impl->shape.numel();
    for (int64_t i = 0; i < n; ++i) ga[i] += g;
  });
  const float* x = a.data();
  double sum = 0.0;
  for (int64_t i = 0; i < a.numel(); ++i) sum += x[i];
  out.data()[0] = static_cast<float>(sum);
  return out;
}

Tensor MeanAll(const Tensor& a) {
  PMM_CHECK(a.defined());
  PMM_CHECK_GT(a.numel(), 0);
  return MulScalar(SumAll(a), 1.0f / static_cast<float>(a.numel()));
}

Tensor Sum(const Tensor& a, int64_t dim, bool keepdim) {
  PMM_CHECK(a.defined());
  if (dim < 0) dim += a.rank();
  PMM_CHECK_GE(dim, 0);
  PMM_CHECK_LT(dim, a.rank());

  int64_t outer, mid, inner;
  SplitAtDim(a.shape(), dim, &outer, &mid, &inner);
  std::vector<int64_t> dims;
  for (int64_t i = 0; i < a.rank(); ++i) {
    if (i == dim) {
      if (keepdim) dims.push_back(1);
    } else {
      dims.push_back(a.dim(i));
    }
  }

  auto a_impl = a.impl();
  Tensor out = internal::MakeNode(
      Shape(dims), {a}, [a_impl, outer, mid, inner](TensorImpl& self) {
        if (!NeedsGrad(*a_impl)) return;
        a_impl->EnsureGrad();
        const float* gout = self.grad.data();
        float* ga = a_impl->grad.data();
        for (int64_t o = 0; o < outer; ++o) {
          for (int64_t m = 0; m < mid; ++m) {
            float* dst = ga + (o * mid + m) * inner;
            const float* src = gout + o * inner;
            for (int64_t i = 0; i < inner; ++i) dst[i] += src[i];
          }
        }
      });

  const float* x = a.data();
  float* y = out.data();
  std::fill(y, y + out.numel(), 0.0f);
  for (int64_t o = 0; o < outer; ++o) {
    for (int64_t m = 0; m < mid; ++m) {
      const float* src = x + (o * mid + m) * inner;
      float* dst = y + o * inner;
      for (int64_t i = 0; i < inner; ++i) dst[i] += src[i];
    }
  }
  return out;
}

Tensor Mean(const Tensor& a, int64_t dim, bool keepdim) {
  if (dim < 0) dim += a.rank();
  const float inv = 1.0f / static_cast<float>(a.dim(dim));
  return MulScalar(Sum(a, dim, keepdim), inv);
}

}  // namespace pmmrec
