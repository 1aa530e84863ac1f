#include "tensor/kernels.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>

#include "tensor/gemm.h"
#include "utils/check.h"
#include "utils/parallel.h"

namespace pmmrec {
namespace kernels {

// --- tanh and GELU without libm ----------------------------------------------
//
// TanhF transcribes fdlibm's s_tanhf.c and s_expm1f.c as glibc 2.36 ships
// them: the same constants, operation order and exponent-bit steps, so it
// returns glibc's tanhf bits on every float (DESIGN.md "GELU without
// libm"). The lane form runs the same operations on 4 or 8 floats at once
// with every branch computed and selected per lane. No form may contract
// a multiply and an add into an FMA: this file is compiled with
// -ffp-contract=off, and the AVX2 target omits "fma".

namespace {

float BitsToFloat(uint32_t u) { return std::bit_cast<float>(u); }
uint32_t FloatToBits(float f) { return std::bit_cast<uint32_t>(f); }

// fdlibm's constants, spelled as in the C sources; the asserts pin the
// bit patterns those sources list beside them.
constexpr float kOne = 1.0f;
constexpr float kTwo = 2.0f;
constexpr float kHuge = 1.0e+30f;
constexpr float kTiny = 1.0e-30f;
constexpr float kOThreshold = 8.8721679688e+01f;
constexpr float kLn2Hi = 6.9313812256e-01f;
constexpr float kLn2Lo = 9.0580006145e-06f;
constexpr float kInvLn2 = 1.4426950216e+00f;
constexpr float kQ1 = -3.3333335072e-02f;
constexpr float kQ2 = 1.5873016091e-03f;
constexpr float kQ3 = -7.9365076090e-05f;
constexpr float kQ4 = 4.0082177293e-06f;
constexpr float kQ5 = -2.0109921195e-07f;
static_assert(std::bit_cast<uint32_t>(kOThreshold) == 0x42b17180u);
static_assert(std::bit_cast<uint32_t>(kLn2Hi) == 0x3f317180u);
static_assert(std::bit_cast<uint32_t>(kLn2Lo) == 0x3717f7d1u);
static_assert(std::bit_cast<uint32_t>(kInvLn2) == 0x3fb8aa3bu);
static_assert(std::bit_cast<uint32_t>(kQ1) == 0xbd088889u);
static_assert(std::bit_cast<uint32_t>(kQ2) == 0x3ad00d01u);
static_assert(std::bit_cast<uint32_t>(kQ3) == 0xb8a670cdu);
static_assert(std::bit_cast<uint32_t>(kQ4) == 0x36867e54u);
static_assert(std::bit_cast<uint32_t>(kQ5) == 0xb457edbbu);

// GELU's constants.
constexpr float kGeluC = 0.7978845608028654f;  // sqrt(2/pi)
constexpr float kGeluA = 0.044715f;

// s_expm1f.c. Left out: errno and the forced evaluations that raise the
// inexact and underflow flags, none of which changes a returned value.
float Expm1F(float x) {
  uint32_t hx = FloatToBits(x);
  const uint32_t xsb = hx & 0x80000000u;  // sign bit of x
  hx &= 0x7fffffffu;                      // |x|

  // Huge and non-finite arguments.
  if (hx >= 0x4195b844u) {    // |x| >= 27 ln2
    if (hx >= 0x42b17218u) {  // |x| >= 88.721...
      if (hx > 0x7f800000u) return x + x;  // NaN
      if (hx == 0x7f800000u) return xsb == 0 ? x : -1.0f;  // exp(+-inf) - 1
      if (x > kOThreshold) return kHuge * kHuge;            // overflow
    }
    if (xsb != 0) return kTiny - kOne;  // x < -27 ln2: -1
  }

  // Argument reduction: x = k ln2 + r with r = hi - lo in the primary
  // range; c is the rounding error of hi - lo.
  float hi;
  float lo;
  float c = 0.0f;
  int32_t k;
  if (hx > 0x3eb17218u) {    // |x| > 0.5 ln2
    if (hx < 0x3f851592u) {  // and |x| < 1.5 ln2
      if (xsb == 0) {
        hi = x - kLn2Hi;
        lo = kLn2Lo;
        k = 1;
      } else {
        hi = x + kLn2Hi;
        lo = -kLn2Lo;
        k = -1;
      }
    } else {
      k = static_cast<int32_t>(kInvLn2 * x + (xsb == 0 ? 0.5f : -0.5f));
      const float t = static_cast<float>(k);
      hi = x - t * kLn2Hi;  // t * kLn2Hi is exact here
      lo = t * kLn2Lo;
    }
    x = hi - lo;
    c = (hi - x) - lo;
  } else if (hx < 0x33000000u) {  // |x| < 2^-25: x itself
    const float t = kHuge + x;
    return x - (t - (kHuge + x));
  } else {
    k = 0;
  }

  // x is now in the primary range.
  const float hfx = 0.5f * x;
  const float hxs = x * hfx;
  const float r1 =
      kOne + hxs * (kQ1 + hxs * (kQ2 + hxs * (kQ3 + hxs * (kQ4 + hxs * kQ5))));
  float t = 3.0f - r1 * hfx;
  float e = hxs * ((r1 - t) / (6.0f - x * t));
  if (k == 0) return x - (x * e - hxs);  // c is 0
  e = (x * (e - c) - c);
  e -= hxs;
  if (k == -1) return 0.5f * (x - e) - 0.5f;
  if (k == 1) {
    if (x < -0.25f) return -2.0f * (e - (x + 0.5f));
    return kOne + 2.0f * (x - e);
  }
  // Adds k to a float's exponent field.
  const uint32_t k_exp = static_cast<uint32_t>(k) << 23;
  if (k <= -2 || k > 56) {  // far from 0: exp(x), then - 1, suffices
    const float y = kOne - (e - x);
    return BitsToFloat(FloatToBits(y) + k_exp) - kOne;
  }
  float y;
  if (k < 23) {
    t = BitsToFloat(0x3f800000u - (0x1000000u >> k));  // 1 - 2^-k
    y = t - (e - x);
  } else {
    t = BitsToFloat(static_cast<uint32_t>(0x7f - k) << 23);  // 2^-k
    y = x - (e + t);
    y += kOne;
  }
  return BitsToFloat(FloatToBits(y) + k_exp);
}

// ga + gout * GELU'(x): GeluBackwardN's element, the eager backward's
// expression.
float GeluBackwardScalar(float x, float gout, float ga) {
  const float inner = kGeluC * (x + kGeluA * x * x * x);
  const float t = TanhF(inner);
  const float dinner = kGeluC * (1.0f + 3.0f * kGeluA * x * x);
  return ga + gout * (0.5f * (1.0f + t) + 0.5f * x * (1.0f - t * t) * dinner);
}

// --- Lane form -------------------------------------------------------------
// GCC vector extensions: W floats per value, the 4-lane form on the SSE2
// baseline, the 8-lane one inside target("avx2") functions. The helpers
// take and return vectors by value but are always inlined into a caller
// of their own width, so no vector crosses a call and -Wpsabi's warning
// about the 32-byte return convention does not apply. (GCC reports it at
// the end of the file, so the pragma cannot be popped.)
#pragma GCC diagnostic ignored "-Wpsabi"

template <int W>
struct Lanes {
  typedef float F __attribute__((vector_size(4 * W)));
  typedef int32_t I __attribute__((vector_size(4 * W)));
  typedef uint32_t U __attribute__((vector_size(4 * W)));
};

template <typename To, typename From>
[[gnu::always_inline]] inline To BitCast(const From& v) {
  static_assert(sizeof(To) == sizeof(From));
  To out;
  std::memcpy(&out, &v, sizeof(out));
  return out;
}

template <typename V>
[[gnu::always_inline]] inline V Load(const float* p) {
  V v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

template <typename V>
[[gnu::always_inline]] inline void Store(float* p, const V& v) {
  std::memcpy(p, &v, sizeof(v));
}

// Every lane's value: vector ?: selects need vector operands.
template <typename V, typename S>
[[gnu::always_inline]] inline V Splat(S s) {
  V v;
  for (size_t i = 0; i < sizeof(V) / sizeof(S); ++i) v[i] = s;
  return v;
}

// Expm1F on the arguments TanhLanes passes it: 2|x| in [2, 44] or -2|x|
// in (-2, -0]. That range never reaches the huge-argument filter
// (positive arguments stay below 88.7 and negative ones above -27 ln2)
// nor k == 1 (every positive argument exceeds 1.5 ln2), so those
// branches are left out. The rest run in every lane and are selected by
// k. The k of the narrow band (+-1 in s_expm1f.c) and k == 0 go through
// the general reduction: t = +-1 or 0 gives hi and lo the very bits of
// the special-cased expressions.
template <int W>
[[gnu::always_inline]] inline typename Lanes<W>::F Expm1Lanes(
    const typename Lanes<W>::F& x) {
  using F = typename Lanes<W>::F;
  using I = typename Lanes<W>::I;
  using U = typename Lanes<W>::U;
  const U hx = BitCast<U>(x) & 0x7fffffffu;
  const I negative = BitCast<I>(x) < 0;

  const I reduce = hx > 0x3eb17218u;  // |x| > 0.5 ln2
  const I narrow = hx < 0x3f851592u;  // |x| < 1.5 ln2
  const I k_round = __builtin_convertvector(
      kInvLn2 * x + (negative ? Splat<F>(-0.5f) : Splat<F>(0.5f)), I);
  const I k = reduce ? (narrow ? (negative ? Splat<I>(-1) : Splat<I>(1))
                               : k_round)
                     : Splat<I>(0);
  const F t_k = __builtin_convertvector(k, F);
  const F hi = x - t_k * kLn2Hi;
  const F lo = t_k * kLn2Lo;
  const F r = hi - lo;
  const F c = (hi - r) - lo;

  const F hfx = 0.5f * r;
  const F hxs = r * hfx;
  const F r1 =
      kOne + hxs * (kQ1 + hxs * (kQ2 + hxs * (kQ3 + hxs * (kQ4 + hxs * kQ5))));
  const F t = 3.0f - r1 * hfx;
  F e = hxs * ((r1 - t) / (6.0f - r * t));
  const F y_k0 = r - (r * e - hxs);
  e = (r * (e - c) - c);
  e -= hxs;
  const F y_km1 = 0.5f * (r - e) - 0.5f;
  const U k_exp = BitCast<U>(k) << 23;
  const F y_wide = BitCast<F>(BitCast<U>(kOne - (e - r)) + k_exp) - kOne;
  // k < 23: t = 1 - 2^-k. Shift counts stay in [0, 31] in the lanes this
  // branch does not own.
  const U k_shift = BitCast<U>(k) & 31u;
  const F t_small =
      BitCast<F>(0x3f800000u - (Splat<U>(0x1000000u) >> k_shift));
  const F y_small = BitCast<F>(BitCast<U>(t_small - (e - r)) + k_exp);
  // Otherwise t = 2^-k.
  const F t_large = BitCast<F>((0x7fu - BitCast<U>(k)) << 23);
  const F y_large =
      BitCast<F>(BitCast<U>((r - (e + t_large)) + kOne) + k_exp);

  F y = k < 23 ? y_small : y_large;
  y = (k <= -2) | (k > 56) ? y_wide : y;
  y = k == -1 ? y_km1 : y;
  y = k == 0 ? y_k0 : y;
  return hx < 0x33000000u ? x : y;  // |x| < 2^-25: x itself
}

// TanhF on W finite lanes (the callers route blocks holding an inf or a
// NaN through TanhF). The x == +-0 return merges into the |x| < 2^-55 one:
// x * (1 + x) is x there.
template <int W>
[[gnu::always_inline]] inline typename Lanes<W>::F TanhLanesFinite(
    const typename Lanes<W>::F& x) {
  using F = typename Lanes<W>::F;
  using I = typename Lanes<W>::I;
  using U = typename Lanes<W>::U;
  const U jx = BitCast<U>(x);
  const U ix = jx & 0x7fffffffu;
  const I below_22 = ix < 0x41b00000u;
  const I at_least_1 = ix >= 0x3f800000u;
  // Lanes at |x| >= 22 return +-1 below; capping their argument keeps
  // every lane of Expm1Lanes inside its range.
  const F ax = below_22 ? BitCast<F>(ix) : Splat<F>(22.0f);
  const F twice = kTwo * ax;
  const F t = Expm1Lanes<W>(at_least_1 ? twice : -twice);
  // One division for both |x| >= 1 (two / (t + two)) and |x| < 1
  // (-t / (t + two)).
  const F q = (at_least_1 ? Splat<F>(kTwo) : -t) / (t + kTwo);
  F z = at_least_1 ? kOne - q : q;
  z = below_22 ? z : Splat<F>(kOne - kTiny);
  z = BitCast<F>(BitCast<U>(z) ^ (jx & 0x80000000u));  // x < 0: -z
  return ix < 0x24000000u ? x * (kOne + x) : z;        // |x| < 2^-55
}

// No lane holds an inf or a NaN. The lane mask is read as 64-bit words,
// which compiles to a few vector moves rather than one compare per lane.
template <int W>
[[gnu::always_inline]] inline bool AllFinite(const typename Lanes<W>::F& x) {
  using I = typename Lanes<W>::I;
  using U = typename Lanes<W>::U;
  const I non_finite = (BitCast<U>(x) & 0x7fffffffu) >= 0x7f800000u;
  uint64_t words[W / 2];
  std::memcpy(words, &non_finite, sizeof(words));
  uint64_t any = 0;
  for (const uint64_t w : words) any |= w;
  return any == 0;
}

template <int W>
[[gnu::always_inline]] inline void TanhSpan(const float* x, float* y,
                                            int64_t n) {
  using F = typename Lanes<W>::F;
  int64_t i = 0;
  for (; i + W <= n; i += W) {
    const F v = Load<F>(x + i);
    if (AllFinite<W>(v)) {
      Store(y + i, TanhLanesFinite<W>(v));
    } else {
      for (int j = 0; j < W; ++j) y[i + j] = TanhF(x[i + j]);
    }
  }
  for (; i < n; ++i) y[i] = TanhF(x[i]);
}

// out[i] = GeluScalar(x[i] (+ bias[i])) in lanes.
template <int W, bool kBias>
[[gnu::always_inline]] inline void GeluSpan(const float* x, const float* bias,
                                            float* out, int64_t n) {
  using F = typename Lanes<W>::F;
  int64_t i = 0;
  for (; i + W <= n; i += W) {
    F v = Load<F>(x + i);
    if constexpr (kBias) v = v + Load<F>(bias + i);
    const F inner = kGeluC * (v + kGeluA * v * v * v);
    if (AllFinite<W>(inner)) {
      Store(out + i, 0.5f * v * (kOne + TanhLanesFinite<W>(inner)));
    } else {
      for (int j = 0; j < W; ++j) out[i + j] = GeluScalar(v[j]);
    }
  }
  for (; i < n; ++i) out[i] = GeluScalar(kBias ? x[i] + bias[i] : x[i]);
}

template <int W>
[[gnu::always_inline]] inline void GeluBackwardSpan(const float* x,
                                                    const float* gout,
                                                    float* ga, int64_t n) {
  using F = typename Lanes<W>::F;
  int64_t i = 0;
  for (; i + W <= n; i += W) {
    const F xi = Load<F>(x + i);
    const F inner = kGeluC * (xi + kGeluA * xi * xi * xi);
    if (AllFinite<W>(inner)) {
      const F t = TanhLanesFinite<W>(inner);
      const F dinner = kGeluC * (1.0f + 3.0f * kGeluA * xi * xi);
      Store(ga + i, Load<F>(ga + i) +
                        Load<F>(gout + i) * (0.5f * (1.0f + t) +
                                             0.5f * xi * (1.0f - t * t) *
                                                 dinner));
    } else {
      for (int j = 0; j < W; ++j) {
        ga[i + j] = GeluBackwardScalar(x[i + j], gout[i + j], ga[i + j]);
      }
    }
  }
  for (; i < n; ++i) ga[i] = GeluBackwardScalar(x[i], gout[i], ga[i]);
}

// One set of span kernels per lane width, chosen once per process the way
// gemm.cc chooses its microkernel.
struct LaneKernels {
  void (*tanh)(const float*, float*, int64_t);
  void (*gelu)(const float*, float*, int64_t);
  void (*bias_gelu)(const float*, const float*, float*, int64_t);
  void (*gelu_backward)(const float*, const float*, float*, int64_t);
};

constexpr LaneKernels kLanes4 = {
    [](const float* x, float* y, int64_t n) { TanhSpan<4>(x, y, n); },
    [](const float* x, float* y, int64_t n) {
      GeluSpan<4, false>(x, nullptr, y, n);
    },
    [](const float* x, const float* b, float* y, int64_t n) {
      GeluSpan<4, true>(x, b, y, n);
    },
    [](const float* x, const float* g, float* ga, int64_t n) {
      GeluBackwardSpan<4>(x, g, ga, n);
    },
};

#if defined(__x86_64__)
#define PMMREC_KERNELS_AVX2_LANES 1
__attribute__((target("avx2"))) void Tanh8(const float* x, float* y,
                                           int64_t n) {
  TanhSpan<8>(x, y, n);
}
__attribute__((target("avx2"))) void Gelu8(const float* x, float* y,
                                           int64_t n) {
  GeluSpan<8, false>(x, nullptr, y, n);
}
__attribute__((target("avx2"))) void BiasGelu8(const float* x,
                                               const float* b, float* y,
                                               int64_t n) {
  GeluSpan<8, true>(x, b, y, n);
}
__attribute__((target("avx2"))) void GeluBackward8(const float* x,
                                                   const float* g, float* ga,
                                                   int64_t n) {
  GeluBackwardSpan<8>(x, g, ga, n);
}
constexpr LaneKernels kLanes8 = {&Tanh8, &Gelu8, &BiasGelu8, &GeluBackward8};
#endif

const LaneKernels& WidestLanes() {
#if PMMREC_KERNELS_AVX2_LANES
  static const LaneKernels& lanes =
      __builtin_cpu_supports("avx2") ? kLanes8 : kLanes4;
  return lanes;
#else
  return kLanes4;
#endif
}

}  // namespace

float TanhF(float x) {
  const uint32_t jx = FloatToBits(x);
  const uint32_t ix = jx & 0x7fffffffu;
  const bool negative = (jx & 0x80000000u) != 0;
  if (ix >= 0x7f800000u) {  // inf or NaN: +-1, or NaN
    return negative ? kOne / x - kOne : kOne / x + kOne;
  }
  float z;
  if (ix < 0x41b00000u) {                         // |x| < 22
    if (ix == 0) return x;                        // +-0
    if (ix < 0x24000000u) return x * (kOne + x);  // |x| < 2^-55
    if (ix >= 0x3f800000u) {                      // |x| >= 1
      const float t = Expm1F(kTwo * std::fabs(x));
      z = kOne - kTwo / (t + kTwo);
    } else {
      const float t = Expm1F(-kTwo * std::fabs(x));
      z = -t / (t + kTwo);
    }
  } else {  // |x| >= 22: +-1
    z = kOne - kTiny;
  }
  return negative ? -z : z;
}

float GeluScalar(float x) {
  const float inner = kGeluC * (x + kGeluA * x * x * x);
  return 0.5f * x * (1.0f + TanhF(inner));
}

bool TanhLanes8Supported() {
#if PMMREC_KERNELS_AVX2_LANES
  return &WidestLanes() == &kLanes8;
#else
  return false;
#endif
}

void TanhLanes(const float* x, float* y, int64_t n, int width) {
  PMM_CHECK_MSG(width == 4 || (width == 8 && TanhLanes8Supported()),
                "no tanh lane form of this width on this host");
#if PMMREC_KERNELS_AVX2_LANES
  if (width == 8) return kLanes8.tanh(x, y, n);
#endif
  kLanes4.tanh(x, y, n);
}

void AddSame(const float* a, const float* b, float* out, int64_t n) {
  ParallelFor(0, n, GrainForCost(1), [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) out[i] = a[i] + b[i];
  });
}

void AddBroadcast(const float* a, const float* b, float* out,
                  const Shape& out_shape, const Shape& a_shape,
                  const Shape& b_shape) {
  // One row of b added to every row of a — a Linear's bias add — runs as
  // a plain row loop: the same a + b per element, without the per-element
  // index walk.
  if (a_shape == out_shape && b_shape.rank() == 1 && out_shape.rank() >= 1 &&
      out_shape.dim(-1) == b_shape.dim(0)) {
    const int64_t cols = b_shape.dim(0);
    ParallelFor(0, out_shape.numel() / std::max<int64_t>(cols, 1),
                GrainForCost(cols), [&](int64_t r0, int64_t r1) {
                  for (int64_t r = r0; r < r1; ++r) {
                    const float* ar = a + r * cols;
                    float* yr = out + r * cols;
                    for (int64_t c = 0; c < cols; ++c) yr[c] = ar[c] + b[c];
                  }
                });
    return;
  }
  ParallelFor(0, out_shape.numel(), GrainForCost(2),
              [&](int64_t lo, int64_t hi) {
                ForEachBroadcastPairRange(
                    out_shape, a_shape, b_shape, lo, hi,
                    [&](int64_t lin, int64_t ao, int64_t bo) {
                      out[lin] = a[ao] + b[bo];
                    });
              });
}

void MulScalarN(const float* a, float s, float* out, int64_t n) {
  ParallelFor(0, n, GrainForCost(1), [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) out[i] = a[i] * s;
  });
}

void GeluN(const float* a, float* out, int64_t n) {
  const LaneKernels& lanes = WidestLanes();
  ParallelFor(0, n, GrainForCost(1), [&](int64_t lo, int64_t hi) {
    lanes.gelu(a + lo, out + lo, hi - lo);
  });
}

void GeluBackwardN(const float* x, const float* gout, float* ga, int64_t n) {
  const LaneKernels& lanes = WidestLanes();
  ParallelFor(0, n, GrainForCost(2), [&](int64_t lo, int64_t hi) {
    lanes.gelu_backward(x + lo, gout + lo, ga + lo, hi - lo);
  });
}

void SoftmaxRows(const float* x, float* y, int64_t rows, int64_t cols) {
  ParallelFor(0, rows, GrainForCost(cols * 4), [&](int64_t r0, int64_t r1) {
    for (int64_t r = r0; r < r1; ++r) {
      const float* xr = x + r * cols;
      float* yr = y + r * cols;
      float max_v = xr[0];
      for (int64_t c = 1; c < cols; ++c) max_v = std::max(max_v, xr[c]);
      float sum = 0.0f;
      for (int64_t c = 0; c < cols; ++c) {
        yr[c] = std::exp(xr[c] - max_v);
        sum += yr[c];
      }
      const float inv = 1.0f / sum;
      for (int64_t c = 0; c < cols; ++c) yr[c] *= inv;
    }
  });
}

void LayerNormRows(const float* x, const float* gamma, const float* beta,
                   float* y, float* xhat, float* inv_std, int64_t rows,
                   int64_t d, float eps) {
  ParallelFor(0, rows, GrainForCost(d * 5), [&](int64_t r0, int64_t r1) {
    for (int64_t r = r0; r < r1; ++r) {
      const float* xr = x + r * d;
      float mean = 0.0f;
      for (int64_t c = 0; c < d; ++c) mean += xr[c];
      mean /= static_cast<float>(d);
      float var = 0.0f;
      for (int64_t c = 0; c < d; ++c) {
        const float diff = xr[c] - mean;
        var += diff * diff;
      }
      var /= static_cast<float>(d);
      const float istd = 1.0f / std::sqrt(var + eps);
      if (inv_std != nullptr) inv_std[r] = istd;
      // One loop body for both modes: the xhat store is a side effect only,
      // so training-time and inference-time compute the same expressions.
      float* xh_row = xhat != nullptr ? xhat + r * d : nullptr;
      float* yr = y + r * d;
      for (int64_t c = 0; c < d; ++c) {
        const float xh = (xr[c] - mean) * istd;
        if (xh_row != nullptr) xh_row[c] = xh;
        yr[c] = gamma[c] * xh + beta[c];
      }
    }
  });
}

void CopySlice(const float* a, float* out, int64_t outer, int64_t mid,
               int64_t inner, int64_t start, int64_t length) {
  for (int64_t o = 0; o < outer; ++o) {
    std::copy(a + (o * mid + start) * inner,
              a + (o * mid + start + length) * inner,
              out + o * length * inner);
  }
}

void CopyConcat(const float* const* srcs, const int64_t* mids,
                int64_t n_srcs, float* out, int64_t outer, int64_t inner,
                int64_t total_mid) {
  int64_t mid_offset = 0;
  for (int64_t t = 0; t < n_srcs; ++t) {
    const float* src = srcs[t];
    const int64_t mid = mids[t];
    for (int64_t o = 0; o < outer; ++o) {
      std::copy(src + o * mid * inner, src + (o + 1) * mid * inner,
                out + (o * total_mid + mid_offset) * inner);
    }
    mid_offset += mid;
  }
}

namespace {

// Invokes fn(bi, r, rows) for the maximal row runs inside one batch entry
// covering [begin, end) of the flattened batch*m row space (mirrors the
// eager ops' ForEachBatchRun).
template <typename Fn>
void ForEachBatchRun(int64_t m, int64_t begin, int64_t end, Fn&& fn) {
  int64_t r = begin;
  while (r < end) {
    const int64_t bi = r / m;
    const int64_t hi = std::min(end, (bi + 1) * m);
    fn(bi, r, hi - r);
    r = hi;
  }
}

}  // namespace

void MatMulNNForward(const float* a, const float* b, float* out,
                     int64_t batch, int64_t m, int64_t k, int64_t n,
                     bool b_broadcast) {
  ParallelFor(0, batch * m, GrainForCost(k * n), [&](int64_t r0, int64_t r1) {
    std::fill(out + r0 * n, out + r1 * n, 0.0f);
    ForEachBatchRun(m, r0, r1, [&](int64_t bi, int64_t r, int64_t rows) {
      gemm::GemmNN(a + r * k, b_broadcast ? b : b + bi * k * n, out + r * n,
                   rows, k, n, k, n, n);
    });
  });
}

void MatMulNTForward(const float* a, const float* b, float* out,
                     int64_t batch, int64_t m, int64_t k, int64_t n,
                     bool b_broadcast) {
  ParallelFor(0, batch * m, GrainForCost(k * n), [&](int64_t r0, int64_t r1) {
    std::fill(out + r0 * n, out + r1 * n, 0.0f);
    ForEachBatchRun(m, r0, r1, [&](int64_t bi, int64_t r, int64_t rows) {
      gemm::GemmNT(a + r * k, b_broadcast ? b : b + bi * n * k, out + r * n,
                   rows, k, n, k, k, n);
    });
  });
}

void MatMulTNForward(const float* a, const float* b, float* out,
                     int64_t batch, int64_t m, int64_t k, int64_t n,
                     bool b_broadcast) {
  // Output row r is column (r - bi*m) of A_bi, selected via the column
  // offset with lda = m.
  ParallelFor(0, batch * m, GrainForCost(k * n), [&](int64_t r0, int64_t r1) {
    std::fill(out + r0 * n, out + r1 * n, 0.0f);
    ForEachBatchRun(m, r0, r1, [&](int64_t bi, int64_t r, int64_t rows) {
      gemm::GemmTN(a + bi * k * m + (r - bi * m),
                   b_broadcast ? b : b + bi * k * n, out + r * n, rows, k, n,
                   m, n, n);
    });
  });
}

void BiasGeluRows(const float* x, const float* bias, float* out,
                  int64_t rows, int64_t cols) {
  const LaneKernels& lanes = WidestLanes();
  ParallelFor(0, rows, GrainForCost(cols * 2), [&](int64_t r0, int64_t r1) {
    for (int64_t r = r0; r < r1; ++r) {
      lanes.bias_gelu(x + r * cols, bias, out + r * cols, cols);
    }
  });
}

}  // namespace kernels
}  // namespace pmmrec
