// Dense tile kernels (column-major, double) backing the Cholesky
// application: the operations SLATE's kernel issues per tile — DGEMM, DSYRK,
// DTRSM, DPOTRF (§4.1). One packed GEMM path does the bulk of all four
// (blas_kernels.inc): like MKL's, it copies its operands into contiguous
// micro-panels before one register-blocked micro-kernel runs on them, so a
// tile inside a large matrix runs as fast as a contiguous one. The kernel
// body is compiled three times, for baseline x86-64, for AVX2+FMA and for
// AVX-512F (with AVX2+FMA), and the public entries call the widest variant
// the CPU runs, picked from CPUID once, before main.
//
// The packing buffers live on the calling thread's stack: a call needs at
// most 44 KiB of it (kStackBudget), about a sixth of the default 256 KiB
// ULT stack. The AVX-512 variant's 16-row micro-panels set that figure: its
// gemm_packed frame is 37,200 B by -fstack-usage, the widest of the three.
// The kernels use no heap, no thread-local state and no locks, so a
// preempted ULT may resume them on another KLT. lpt_apps is built with
// -fstack-clash-protection, so a ULT whose stack is too small for the
// buffers ends in a contained stack overflow rather than writing past its
// guard page.
#pragma once

#include <cstddef>

namespace lpt::apps {

/// Stack, in bytes, that one call of any kernel below may use.
inline constexpr std::size_t kStackBudget = 44 * 1024;

/// C(m x n) -= A(m x k) * B(n x k)^T   (the trailing update of Cholesky)
void dgemm_nt_minus(int m, int n, int k, const double* a, int lda,
                    const double* b, int ldb, double* c, int ldc);

/// C(n x n) -= A(n x k) * A(n x k)^T, lower triangle only (SYRK).
void dsyrk_ln_minus(int n, int k, const double* a, int lda, double* c, int ldc);

/// B(m x n) <- B * L^-T where L is the lower-triangular n x n tile (TRSM,
/// right-side, lower, transposed — the Cholesky panel solve).
void dtrsm_rltn(int m, int n, const double* l, int ldl, double* b, int ldb);

/// Blocked Cholesky of the lower triangle of A(n x n). Returns false if the
/// matrix is not positive definite.
bool dpotrf_lower(int n, double* a, int lda);

/// Unblocked full-matrix lower Cholesky, the plain loop (for tests).
bool cholesky_reference(int n, double* a, int lda);

/// max_ij |a_ij - b_ij| over the lower triangle.
double lower_max_diff(int n, const double* a, int lda, const double* b, int ldb);

/// Fill `a` (n x n, lda) with a deterministic symmetric positive definite
/// matrix (random-ish entries, diagonally dominated).
void make_spd(int n, double* a, int lda, unsigned seed);

namespace detail {

/// One compiled variant of the four kernels, callable directly (tests and
/// benchmarks compare the variants).
struct BlasKernels {
  const char* name;
  void (*gemm)(int m, int n, int k, const double* a, int lda, const double* b,
               int ldb, double* c, int ldc);
  void (*syrk)(int n, int k, const double* a, int lda, double* c, int ldc);
  void (*trsm)(int m, int n, const double* l, int ldl, double* b, int ldb);
  bool (*potrf)(int n, double* a, int lda);
};

extern const BlasKernels kBaselineKernels;
/// Runs only where avx2_supported().
extern const BlasKernels kAvx2Kernels;

/// Runs only where avx512_supported().
extern const BlasKernels kAvx512Kernels;

/// True when the CPU has AVX2 and FMA.
bool avx2_supported();

/// True when the CPU has AVX-512F, AVX2 and FMA (all that kAvx512Kernels is
/// compiled for).
bool avx512_supported();

/// The variant the public entries call.
const BlasKernels& active_kernels();

}  // namespace detail

}  // namespace lpt::apps
