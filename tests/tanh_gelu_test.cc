// The libm-free tanh and the GELU lane kernels (DESIGN.md "GELU without
// libm"):
//  1. kernels::TanhF returns glibc 2.36's tanhf bits — it transcribes that
//     code — on a strided sweep of the bit space and on every branch
//     threshold of tanhf and expm1f, +-1 ulp: pinned by a hash of
//     glibc 2.36's results on any host, and compared with the host's
//     std::tanh where the host libm is glibc 2.36.
//  2. The 4-lane form, and the 8-lane form on AVX2 hosts, return TanhF's
//     bits on the same inputs, wherever a value sits in its lane group.
//  3. GeluN, BiasGeluRows and GeluBackwardN return the bits of the scalar
//     loops they replaced on random rows with ragged tails, at 1 and 4
//     threads. The loops call TanhF where they called std::tanh, so the
//     check holds on any host; on glibc 2.36 the two agree (1).
// The full 2^32 sweep of (1) and (2) is too slow for a unit test; its
// result is recorded in CHANGES.md.

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#if defined(__GLIBC__)
#include <gnu/libc-version.h>
#endif

#include "tensor/kernels.h"
#include "utils/parallel.h"
#include "utils/rng.h"

namespace pmmrec {
namespace {

float FromBits(uint32_t u) {
  float f;
  std::memcpy(&f, &u, sizeof(f));
  return f;
}

uint32_t Bits(float f) {
  uint32_t u;
  std::memcpy(&u, &f, sizeof(u));
  return u;
}

// Every 257th bit pattern: both signs, every exponent, NaNs and infs.
std::vector<float> StridedSweep() {
  std::vector<float> x;
  x.reserve((uint64_t{1} << 32) / 257 + 1);
  for (uint64_t u = 0; u < (uint64_t{1} << 32); u += 257) {
    x.push_back(FromBits(static_cast<uint32_t>(u)));
  }
  return x;
}

// +-0, subnormals, +-inf, NaNs, and each branch threshold of tanhf and of
// expm1f (whose argument is 2|x|, so its thresholds sit at half the
// value: one less in the exponent field), each +-1 ulp, both signs.
std::vector<float> EdgeCases() {
  const uint32_t tanh_thresholds[] = {
      0x24000000u,  // 2^-55
      0x3f800000u,  // 1
      0x41b00000u,  // 22
      0x7f800000u,  // inf
  };
  const uint32_t expm1_thresholds[] = {
      0x33000000u,  // 2^-25
      0x3eb17218u,  // 0.5 ln2
      0x3f851592u,  // 1.5 ln2
      0x4195b844u,  // 27 ln2
  };
  std::vector<uint32_t> magnitudes = {
      0x00000000u, 0x00000001u, 0x00000002u, 0x003fffffu, 0x00400000u,
      0x007fffffu, 0x00800000u, 0x7f7fffffu, 0x7fc00000u, 0x7fa00000u,
      0x7fffffffu, 0x7f800001u,
  };
  for (const uint32_t t : tanh_thresholds) {
    magnitudes.insert(magnitudes.end(), {t - 1, t, t + 1});
  }
  for (const uint32_t t : expm1_thresholds) {
    const uint32_t half = t - 0x00800000u;
    magnitudes.insert(magnitudes.end(), {half - 1, half, half + 1});
  }
  std::vector<float> x;
  for (const uint32_t m : magnitudes) {
    x.push_back(FromBits(m));
    x.push_back(FromBits(m | 0x80000000u));
  }
  return x;
}

std::string Hex(uint32_t u) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "0x%08x", u);
  return buf;
}

// Runs the lane form over x at offsets [0, shifts): with shifts == width
// each value takes every lane position, in lane groups with and without
// an inf or a NaN.
void ExpectLanesMatchScalar(const std::vector<float>& x, int width,
                            int shifts) {
  std::vector<float> y(x.size());
  for (int shift = 0; shift < shifts; ++shift) {
    const int64_t n = static_cast<int64_t>(x.size()) - shift;
    kernels::TanhLanes(x.data() + shift, y.data(), n, width);
    int64_t mismatches = 0;
    for (int64_t i = 0; i < n; ++i) {
      const float want = kernels::TanhF(x[static_cast<size_t>(i + shift)]);
      if (Bits(y[static_cast<size_t>(i)]) != Bits(want)) {
        if (++mismatches <= 5) {
          ADD_FAILURE() << width << "-lane tanh("
                        << Hex(Bits(x[static_cast<size_t>(i + shift)]))
                        << ") = " << Hex(Bits(y[static_cast<size_t>(i)]))
                        << ", scalar " << Hex(Bits(want));
        }
      }
    }
    EXPECT_EQ(mismatches, 0) << "width " << width << " shift " << shift;
  }
}

std::vector<float> SweepAndEdges() {
  std::vector<float> x = StridedSweep();
  const std::vector<float> edges = EdgeCases();
  x.insert(x.end(), edges.begin(), edges.end());
  return x;
}

// FNV-1a over the result bits in input order, every NaN hashed as one
// canonical pattern (which NaN payload survives is the hardware's rule).
uint64_t HashBits(const std::vector<float>& y) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (const float v : y) {
    const uint32_t b = std::isnan(v) ? 0x7fc00000u : Bits(v);
    for (int i = 0; i < 4; ++i) {
      h ^= (b >> (8 * i)) & 0xffu;
      h *= 0x100000001b3ull;
    }
  }
  return h;
}

// HashBits of glibc 2.36's tanhf over SweepAndEdges() (x86-64).
constexpr uint64_t kGlibc236TanhfHash = 0xf0687167f3dcca3eull;

TEST(TanhTest, ScalarMatchesGlibc236Bits) {
  const std::vector<float> x = SweepAndEdges();
  std::vector<float> y(x.size());
  for (size_t i = 0; i < x.size(); ++i) y[i] = kernels::TanhF(x[i]);
  EXPECT_EQ(HashBits(y), kGlibc236TanhfHash);
}

TEST(TanhTest, ScalarMatchesHostLibm) {
#if defined(__GLIBC__)
  if (std::string(gnu_get_libc_version()) != "2.36") {
    GTEST_SKIP() << "host libm is glibc " << gnu_get_libc_version()
                 << "; TanhF transcribes 2.36 (pinned by "
                    "ScalarMatchesGlibc236Bits)";
  }
#else
  GTEST_SKIP() << "host libm is not glibc";
#endif
  const std::vector<float> x = SweepAndEdges();
  std::vector<float> libm(x.size());
  int64_t mismatches = 0;
  for (size_t i = 0; i < x.size(); ++i) {
    libm[i] = std::tanh(x[i]);
    const float got = kernels::TanhF(x[i]);
    if (Bits(got) != Bits(libm[i]) && ++mismatches <= 5) {
      ADD_FAILURE() << "TanhF(" << Hex(Bits(x[i])) << ") = " << Hex(Bits(got))
                    << ", libm " << Hex(Bits(libm[i]));
    }
  }
  EXPECT_EQ(mismatches, 0);
  EXPECT_EQ(HashBits(libm), kGlibc236TanhfHash);
}

TEST(TanhTest, FourLanesMatchScalar) {
  ExpectLanesMatchScalar(EdgeCases(), 4, /*shifts=*/4);
  ExpectLanesMatchScalar(StridedSweep(), 4, /*shifts=*/1);
}

TEST(TanhTest, EightLanesMatchScalar) {
  if (!kernels::TanhLanes8Supported()) {
    GTEST_SKIP() << "no AVX2 on this host";
  }
  ExpectLanesMatchScalar(EdgeCases(), 8, /*shifts=*/8);
  ExpectLanesMatchScalar(StridedSweep(), 8, /*shifts=*/1);
}

// --- GELU kernels against the loops they replaced -----------------------------

constexpr float kC = 0.7978845608028654f;  // sqrt(2/pi)
constexpr float kA = 0.044715f;

float OldGelu(float x) {
  const float inner = kC * (x + kA * x * x * x);
  return 0.5f * x * (1.0f + kernels::TanhF(inner));
}

float OldGeluGrad(float xi, float gout, float ga) {
  const float inner = kC * (xi + kA * xi * xi * xi);
  const float t = kernels::TanhF(inner);
  const float dinner = kC * (1.0f + 3.0f * kA * xi * xi);
  return ga + gout * (0.5f * (1.0f + t) + 0.5f * xi * (1.0f - t * t) * dinner);
}

// Normal values at several scales, so the tanh argument crosses every
// branch (|inner| >= 22 from |x| > ~6.3); with `non_finite`, also an inf,
// a -inf and a NaN, which send their lane groups down the scalar path.
std::vector<float> RandomValues(int64_t n, uint64_t seed,
                                bool non_finite = false) {
  Rng rng(seed);
  std::vector<float> x(static_cast<size_t>(n));
  const float scales[] = {0.01f, 1.0f, 3.0f, 12.0f};
  for (int64_t i = 0; i < n; ++i) {
    x[static_cast<size_t>(i)] =
        rng.NormalFloat(0.0f, scales[static_cast<size_t>(i) % 4]);
  }
  if (non_finite && n > 40) {
    x[7] = std::numeric_limits<float>::infinity();
    x[19] = -std::numeric_limits<float>::infinity();
    x[33] = std::numeric_limits<float>::quiet_NaN();
  }
  return x;
}

// Bitwise, except that any NaN matches any NaN: which operand's payload a
// two-NaN operation keeps is the compiler's choice.
void ExpectBitwise(const std::vector<float>& got,
                   const std::vector<float>& want, const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (size_t i = 0; i < got.size(); ++i) {
    if (std::isnan(got[i]) && std::isnan(want[i])) continue;
    ASSERT_EQ(Bits(got[i]), Bits(want[i]))
        << what << " element " << i << ": " << got[i] << " vs " << want[i];
  }
}

TEST(GeluKernelsTest, GeluNMatchesScalarLoop) {
  for (const int64_t n :
       {int64_t{1}, int64_t{7}, int64_t{61}, int64_t{40003}}) {
    const std::vector<float> x =
        RandomValues(n, 11 + static_cast<uint64_t>(n), /*non_finite=*/true);
    std::vector<float> want(x.size());
    for (size_t i = 0; i < x.size(); ++i) want[i] = OldGelu(x[i]);
    for (const int64_t threads : {int64_t{1}, int64_t{4}}) {
      NumThreadsGuard guard(threads);
      std::vector<float> got(x.size());
      kernels::GeluN(x.data(), got.data(), n);
      ExpectBitwise(got, want,
                    "GeluN n=" + std::to_string(n) +
                        " threads=" + std::to_string(threads));
    }
  }
}

TEST(GeluKernelsTest, BiasGeluRowsMatchesScalarLoop) {
  for (const int64_t cols : {int64_t{5}, int64_t{64}, int64_t{67}}) {
    const int64_t rows = 301;
    const std::vector<float> x =
        RandomValues(rows * cols, 5, /*non_finite=*/true);
    const std::vector<float> bias =
        RandomValues(cols, 6 + static_cast<uint64_t>(cols));
    std::vector<float> want(x.size());
    for (int64_t r = 0; r < rows; ++r) {
      for (int64_t c = 0; c < cols; ++c) {
        const size_t i = static_cast<size_t>(r * cols + c);
        want[i] = OldGelu(x[i] + bias[static_cast<size_t>(c)]);
      }
    }
    for (const int64_t threads : {int64_t{1}, int64_t{4}}) {
      NumThreadsGuard guard(threads);
      std::vector<float> got(x.size());
      kernels::BiasGeluRows(x.data(), bias.data(), got.data(), rows, cols);
      ExpectBitwise(got, want,
                    "BiasGeluRows cols=" + std::to_string(cols) +
                        " threads=" + std::to_string(threads));
    }
  }
}

TEST(GeluKernelsTest, GeluBackwardNMatchesScalarLoop) {
  for (const int64_t n : {int64_t{3}, int64_t{61}, int64_t{40003}}) {
    const std::vector<float> x = RandomValues(n, 21, /*non_finite=*/true);
    const std::vector<float> gout = RandomValues(n, 22);
    const std::vector<float> ga0 = RandomValues(n, 23);
    std::vector<float> want(ga0);
    for (size_t i = 0; i < want.size(); ++i) {
      want[i] = OldGeluGrad(x[i], gout[i], want[i]);
    }
    for (const int64_t threads : {int64_t{1}, int64_t{4}}) {
      NumThreadsGuard guard(threads);
      std::vector<float> got(ga0);
      kernels::GeluBackwardN(x.data(), gout.data(), got.data(), n);
      ExpectBitwise(got, want,
                    "GeluBackwardN n=" + std::to_string(n) +
                        " threads=" + std::to_string(threads));
    }
  }
}

}  // namespace
}  // namespace pmmrec
