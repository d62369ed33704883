#include "apps/linalg/blas.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstring>

#include "common/prng.hpp"

namespace lpt::apps {

namespace detail {

// Each variant sizes the micro-kernel to its register file: kLanes doubles
// per vector, a kMR x kNR micro-tile. Baseline x86-64 has 16 xmm registers
// of two doubles: an 8 x 4 tile is 16 of them. AVX2 has 16 ymm registers of
// four: an 8 x 6 tile is 12, leaving room for two of A and a broadcast of B.
// AVX-512 has 32 zmm registers of eight: a 16 x 8 tile is 16, two vectors
// per column. A vector wider than the target's own would be split into
// halves and passed in memory (-Wpsabi), so the width comes from here.
namespace baseline {
constexpr int kLanes = 2, kMR = 8, kNR = 4;
#include "apps/linalg/blas_kernels.inc"
}  // namespace baseline

#pragma GCC push_options
#pragma GCC target("avx2,fma")
namespace avx2 {
constexpr int kLanes = 4, kMR = 8, kNR = 6;
#include "apps/linalg/blas_kernels.inc"
}  // namespace avx2
#pragma GCC pop_options

#pragma GCC push_options
#pragma GCC target("avx512f,avx2,fma")
namespace avx512 {
constexpr int kLanes = 8, kMR = 16, kNR = 8;
#include "apps/linalg/blas_kernels.inc"
}  // namespace avx512
#pragma GCC pop_options

const BlasKernels kBaselineKernels{"baseline", baseline::gemm, baseline::syrk,
                                   baseline::trsm, baseline::potrf};
const BlasKernels kAvx2Kernels{"avx2", avx2::gemm, avx2::syrk, avx2::trsm,
                               avx2::potrf};
const BlasKernels kAvx512Kernels{"avx512", avx512::gemm, avx512::syrk,
                                 avx512::trsm, avx512::potrf};

bool avx2_supported() {
  // Also runs from a load-time constructor, possibly before libgcc's.
  __builtin_cpu_init();
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
}

bool avx512_supported() {
  return avx2_supported() && __builtin_cpu_supports("avx512f");
}

namespace {

// Constant-initialised, so a call from another static initializer still
// finds a working variant; upgraded once, before main.
const BlasKernels* g_kernels = &kBaselineKernels;

[[gnu::constructor]] void pick_kernels() {
  if (avx512_supported())
    g_kernels = &kAvx512Kernels;
  else if (avx2_supported())
    g_kernels = &kAvx2Kernels;
}

}  // namespace

const BlasKernels& active_kernels() { return *g_kernels; }

}  // namespace detail

void dgemm_nt_minus(int m, int n, int k, const double* a, int lda,
                    const double* b, int ldb, double* c, int ldc) {
  detail::g_kernels->gemm(m, n, k, a, lda, b, ldb, c, ldc);
}

void dsyrk_ln_minus(int n, int k, const double* a, int lda, double* c, int ldc) {
  detail::g_kernels->syrk(n, k, a, lda, c, ldc);
}

void dtrsm_rltn(int m, int n, const double* l, int ldl, double* b, int ldb) {
  detail::g_kernels->trsm(m, n, l, ldl, b, ldb);
}

bool dpotrf_lower(int n, double* a, int lda) {
  return detail::g_kernels->potrf(n, a, lda);
}

bool cholesky_reference(int n, double* a, int lda) {
  for (int j = 0; j < n; ++j) {
    double d = a[j + j * lda];
    for (int p = 0; p < j; ++p) d -= a[j + p * lda] * a[j + p * lda];
    if (d <= 0.0) return false;
    d = std::sqrt(d);
    a[j + j * lda] = d;
    for (int i = j + 1; i < n; ++i) {
      double s = a[i + j * lda];
      for (int p = 0; p < j; ++p) s -= a[i + p * lda] * a[j + p * lda];
      a[i + j * lda] = s / d;
    }
  }
  return true;
}

double lower_max_diff(int n, const double* a, int lda, const double* b, int ldb) {
  double mx = 0;
  for (int j = 0; j < n; ++j)
    for (int i = j; i < n; ++i) {
      const double d = std::fabs(a[i + j * lda] - b[i + j * ldb]);
      if (d > mx) mx = d;
    }
  return mx;
}

void make_spd(int n, double* a, int lda, unsigned seed) {
  const auto at = [lda](int i, int j) { return i + static_cast<std::ptrdiff_t>(j) * lda; };
  Xoshiro256 rng(seed);
  for (int j = 0; j < n; ++j)
    for (int i = j; i < n; ++i) a[at(i, j)] = rng.next_double() - 0.5;
  // Mirror the lower triangle into the upper in 32 x 32 blocks: a strided
  // store per element across the whole matrix would touch a new cache line
  // (and, at large lda, a new page) every time.
  constexpr int kB = 32;
  for (int j0 = 0; j0 < n; j0 += kB)
    for (int i0 = j0; i0 < n; i0 += kB)
      for (int j = j0; j < std::min(n, j0 + kB); ++j)
        for (int i = std::max(i0, j + 1); i < std::min(n, i0 + kB); ++i)
          a[at(j, i)] = a[at(i, j)];
  // Diagonal dominance makes it positive definite.
  for (int j = 0; j < n; ++j) a[at(j, j)] += n;
}

}  // namespace lpt::apps
