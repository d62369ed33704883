#include "apps/linalg/blas.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <ostream>
#include <string>
#include <vector>

#include "common/prng.hpp"
#include "runtime/fault.hpp"
#include "runtime/lpt.hpp"

namespace lpt::apps {

namespace detail {
// gtest prints a variant parameter by name rather than by address.
void PrintTo(const BlasKernels* k, std::ostream* os) { *os << k->name; }
}  // namespace detail

namespace {

TEST(Blas, PotrfMatchesHandComputedCholesky) {
  // A = L L^T with known L = [[2,0],[1,3]] -> A = [[4,2],[2,10]].
  std::vector<double> a = {4, 2, 2, 10};  // column-major 2x2
  ASSERT_TRUE(dpotrf_lower(2, a.data(), 2));
  EXPECT_NEAR(a[0], 2.0, 1e-12);
  EXPECT_NEAR(a[1], 1.0, 1e-12);
  EXPECT_NEAR(a[3], 3.0, 1e-12);
}

TEST(Blas, PotrfRejectsIndefiniteMatrix) {
  std::vector<double> a = {1, 2, 2, 1};  // eigenvalues 3, -1
  EXPECT_FALSE(dpotrf_lower(2, a.data(), 2));
}

TEST(Blas, PotrfReconstructsSpdMatrix) {
  constexpr int n = 24;
  std::vector<double> a(n * n), orig;
  make_spd(n, a.data(), n, 7);
  orig = a;
  ASSERT_TRUE(dpotrf_lower(n, a.data(), n));
  // Check L * L^T == original (lower triangle).
  for (int j = 0; j < n; ++j)
    for (int i = j; i < n; ++i) {
      double s = 0;
      for (int k = 0; k <= j; ++k) s += a[i + k * n] * a[j + k * n];
      EXPECT_NEAR(s, orig[i + j * n], 1e-9) << "at (" << i << "," << j << ")";
    }
}

TEST(Blas, GemmNtMinusMatchesNaive) {
  constexpr int m = 5, n = 4, k = 3;
  std::vector<double> a(m * k), b(n * k), c(m * n, 1.0), ref(m * n, 1.0);
  for (int i = 0; i < m * k; ++i) a[i] = i * 0.25 + 1;
  for (int i = 0; i < n * k; ++i) b[i] = i * 0.5 - 2;
  dgemm_nt_minus(m, n, k, a.data(), m, b.data(), n, c.data(), m);
  for (int j = 0; j < n; ++j)
    for (int i = 0; i < m; ++i) {
      double s = ref[i + j * m];
      for (int p = 0; p < k; ++p) s -= a[i + p * m] * b[j + p * n];
      EXPECT_NEAR(c[i + j * m], s, 1e-12);
    }
}

TEST(Blas, SyrkMatchesGemmOnLowerTriangle) {
  constexpr int n = 6, k = 4;
  std::vector<double> a(n * k);
  for (int i = 0; i < n * k; ++i) a[i] = 0.3 * i - 1;
  std::vector<double> c1(n * n, 2.0), c2(n * n, 2.0);
  dsyrk_ln_minus(n, k, a.data(), n, c1.data(), n);
  dgemm_nt_minus(n, n, k, a.data(), n, a.data(), n, c2.data(), n);
  EXPECT_NEAR(lower_max_diff(n, c1.data(), n, c2.data(), n), 0.0, 1e-12);
}

TEST(Blas, TrsmSolvesAgainstLowerTriangular) {
  constexpr int m = 4, n = 3;
  // L lower triangular with positive diagonal.
  std::vector<double> l = {2, 1, 4, 0, 3, 5, 0, 0, 6};  // 3x3 col-major
  std::vector<double> x(m * n);
  for (int i = 0; i < m * n; ++i) x[i] = 0.7 * i - 1;
  std::vector<double> b = x;  // B := X * L^T, then solve back
  // compute B = X * L^T
  std::vector<double> bb(m * n, 0.0);
  for (int j = 0; j < n; ++j)
    for (int p = 0; p < n; ++p) {
      const double ljp = l[j + p * n];  // L(j,p)
      if (ljp == 0.0) continue;
      for (int i = 0; i < m; ++i) bb[i + j * m] += x[i + p * m] * ljp;
    }
  dtrsm_rltn(m, n, l.data(), n, bb.data(), m);
  for (int i = 0; i < m * n; ++i) EXPECT_NEAR(bb[i], x[i], 1e-10);
  (void)b;
}

TEST(Blas, MakeSpdIsSymmetricAndFactorizable) {
  constexpr int n = 16;
  std::vector<double> a(n * n);
  make_spd(n, a.data(), n, 42);
  for (int j = 0; j < n; ++j)
    for (int i = 0; i < n; ++i) EXPECT_EQ(a[i + j * n], a[j + i * n]);
  EXPECT_TRUE(dpotrf_lower(n, a.data(), n));
}

TEST(Blas, MakeSpdMatchesTheUnblockedMirrorBytewise) {
  // The reference is the plain loop make_spd replaced: each lower-triangle
  // value is stored to both its places as it is drawn.
  const auto unblocked = [](int n, double* a, int lda, unsigned seed) {
    Xoshiro256 rng(seed);
    for (int j = 0; j < n; ++j)
      for (int i = j; i < n; ++i) {
        const double v = rng.next_double() - 0.5;
        a[i + j * lda] = v;
        a[j + i * lda] = v;
      }
    for (int j = 0; j < n; ++j) a[j + j * lda] += n;
  };
  for (const int n : {1, 5, 31, 32, 33, 64, 100, 130})
    for (const int pad : {0, 3, 29})
      for (const unsigned seed : {1u, 42u, 0xdeadbeefu}) {
        const int lda = n + pad;
        // The padding rows must stay as they were.
        std::vector<double> got(static_cast<std::size_t>(lda) * n, -7.0), want = got;
        make_spd(n, got.data(), lda, seed);
        unblocked(n, want.data(), lda, seed);
        EXPECT_EQ(std::memcmp(got.data(), want.data(), sizeof(double) * got.size()), 0)
            << "n " << n << " lda " << lda << " seed " << seed;
      }
}

// --- every compiled kernel variant against naive loops ---------------------
//
// The sizes reach full micro-tiles (16 x 8 for AVX-512, 8 x 6 for AVX2,
// 8 x 4 baseline), ragged edges in both dimensions (m = 9..47 leave a ragged
// 16-row panel, TRSM rows off a multiple of 8 a scalar tail), several packed
// blocks in depth (k = 300) and in rows (m = 77, with a ragged last block),
// every column count modulo every micro-tile width, several TRSM and POTRF
// halving levels, and leading dimensions larger than the rows used
// (sub-views, like the team's row split of a GEMM tile). The naive loops
// form one more BlasKernels; POTRF's is the library's unblocked
// cholesky_reference.

double at(const std::vector<double>& v, int i, int j, int ld) {
  return v[i + static_cast<std::size_t>(j) * ld];
}

std::vector<double> random_matrix(int rows, int cols, int ld, unsigned seed) {
  std::vector<double> v(static_cast<std::size_t>(ld) * cols, 0.0);
  Xoshiro256 rng(seed);
  for (int j = 0; j < cols; ++j)
    for (int i = 0; i < rows; ++i) v[i + static_cast<std::size_t>(j) * ld] = rng.next_double() - 0.5;
  return v;
}

void naive_gemm(int m, int n, int k, const double* a, int lda, const double* b,
                int ldb, double* c, int ldc) {
  for (int j = 0; j < n; ++j)
    for (int i = 0; i < m; ++i) {
      double s = 0;
      for (int p = 0; p < k; ++p) s += a[i + p * lda] * b[j + p * ldb];
      c[i + j * ldc] -= s;
    }
}

void naive_syrk(int n, int k, const double* a, int lda, double* c, int ldc) {
  for (int j = 0; j < n; ++j)
    for (int i = j; i < n; ++i) {
      double s = 0;
      for (int p = 0; p < k; ++p) s += a[i + p * lda] * a[j + p * lda];
      c[i + j * ldc] -= s;
    }
}

void naive_trsm(int m, int n, const double* l, int ldl, double* b, int ldb) {
  for (int i = 0; i < m; ++i)
    for (int j = 0; j < n; ++j) {
      double s = b[i + j * ldb];
      for (int p = 0; p < j; ++p) s -= b[i + p * ldb] * l[j + p * ldl];
      b[i + j * ldb] = s / l[j + j * ldl];
    }
}

const detail::BlasKernels kNaive{"naive", naive_gemm, naive_syrk, naive_trsm,
                                 cholesky_reference};

/// max |x - y| over the whole ld-strided rows x cols view.
double max_diff(int rows, int cols, const std::vector<double>& x,
                const std::vector<double>& y, int ld) {
  double mx = 0;
  for (int j = 0; j < cols; ++j)
    for (int i = 0; i < rows; ++i) mx = std::max(mx, std::fabs(at(x, i, j, ld) - at(y, i, j, ld)));
  return mx;
}

bool bitwise_equal(const std::vector<double>& x, const std::vector<double>& y) {
  return x.size() == y.size() && std::memcmp(x.data(), y.data(), sizeof(double) * x.size()) == 0;
}

// One case per shape: the kernel runs on fixed inputs and the case returns
// the whole ld-strided output, padding rows included (they must stay
// untouched).

struct GemmShape { int m, n, k, pad; };

std::vector<GemmShape> gemm_shapes() {
  std::vector<GemmShape> shapes = {{37, 29, 23, 3},  {8, 4, 1, 0},    {64, 32, 40, 0},
                                   {7, 3, 5, 1},     {9, 5, 3, 2},    {128, 128, 128, 11},
                                   {77, 13, 300, 0}, {15, 8, 33, 0},  {17, 16, 64, 2},
                                   {33, 24, 65, 3},  {47, 11, 129, 0}};
  // n = 24..35 leaves every remainder modulo 4, 6 and 8.
  for (int n = 24; n < 36; ++n) shapes.push_back(GemmShape{77, n, 70, 2});
  return shapes;
}

std::vector<double> gemm_case(const detail::BlasKernels& k, GemmShape sh) {
  const int ld = sh.m + sh.pad;
  const std::vector<double> a = random_matrix(sh.m, sh.k, ld, 1);
  const std::vector<double> b = random_matrix(sh.n, sh.k, ld, 2);
  std::vector<double> c = random_matrix(ld, sh.n, ld, 3);
  k.gemm(sh.m, sh.n, sh.k, a.data(), ld, b.data(), ld, c.data(), ld);
  return c;
}

// n off a multiple of 8 or 16 puts micro-tiles across the diagonal; 77
// spans two packed row blocks, the second ragged, and k = 300 five depth
// blocks.
constexpr int kSyrkSizes[] = {37, 64, 128, 5, 77, 13, 17, 33, 47};

std::vector<double> syrk_case(const detail::BlasKernels& k, int n) {
  const int kk = n == 128 ? 128 : n == 77 ? 300 : 23, ld = n + 2;
  const std::vector<double> a = random_matrix(n, kk, ld, 7);
  std::vector<double> c = random_matrix(ld, n, ld, 8);
  k.syrk(n, kk, a.data(), ld, c.data(), ld);
  return c;
}

struct TrsmShape { int m, n, pad; };

constexpr TrsmShape kTrsmShapes[] = {{37, 29, 3}, {128, 128, 0}, {5, 16, 1},  {32, 45, 7},
                                     {77, 17, 2}, {128, 45, 0},  {9, 20, 1},  {15, 33, 0},
                                     {23, 7, 0},  {47, 16, 2},   {100, 64, 5}};

int trsm_ld(TrsmShape sh) { return std::max(sh.m, sh.n) + sh.pad; }

std::vector<double> trsm_case(const detail::BlasKernels& k, TrsmShape sh) {
  const int ld = trsm_ld(sh);
  std::vector<double> l = random_matrix(sh.n, sh.n, ld, 9);
  for (int j = 0; j < sh.n; ++j) l[j + static_cast<std::size_t>(j) * ld] = 2.0 + j % 3;
  std::vector<double> x = random_matrix(sh.m, sh.n, ld, 10);
  k.trsm(sh.m, sh.n, l.data(), ld, x.data(), ld);
  return x;
}

constexpr int kPotrfSizes[] = {45, 128, 16, 3, 17, 33, 47};

std::vector<double> potrf_case(const detail::BlasKernels& k, int n) {
  const int ld = n + 5;
  std::vector<double> a(static_cast<std::size_t>(ld) * n, 0.0);
  make_spd(n, a.data(), ld, 11);
  EXPECT_TRUE(k.potrf(n, a.data(), ld)) << k.name << " n " << n;
  return a;
}

// The solves multiply by reciprocals of the diagonal where the naive loops
// divide by it. These cases spread the diagonal of L over 1e-3 .. 1e3, where
// the two differ most: L = D L_S, with L_S the Cholesky factor of a
// make_spd matrix and D a diagonal that sets L's diagonal to 10^e,
// e = -3 .. 3 permuted along it. Row i of L is row i of L_S scaled by d_i,
// and column j of the TRSM solution X = B L^-T is scaled by 1 / d_j, so each
// error is taken relative to the largest magnitude in its own row or column.

double scaled_exponent(int j) { return -3.0 + 6.0 * ((j * 37) % 64) / 63.0; }

/// The diagonal scaling d_j that gives L = D L_S the diagonal 10^e_j.
std::vector<double> scaling_for(int n, const std::vector<double>& ls, int ld) {
  std::vector<double> d(n);
  for (int j = 0; j < n; ++j) d[j] = std::pow(10.0, scaled_exponent(j)) / at(ls, j, j, ld);
  return d;
}

std::vector<double> spd_factor(int n, int ld, unsigned seed) {
  std::vector<double> ls(static_cast<std::size_t>(ld) * n, 0.0);
  make_spd(n, ls.data(), ld, seed);
  EXPECT_TRUE(cholesky_reference(n, ls.data(), ld));
  return ls;
}

std::vector<double> scaled_trsm_case(const detail::BlasKernels& k, TrsmShape sh) {
  const int ld = trsm_ld(sh);
  std::vector<double> l = spd_factor(sh.n, ld, 13);
  const std::vector<double> d = scaling_for(sh.n, l, ld);
  for (int j = 0; j < sh.n; ++j)
    for (int i = j; i < sh.n; ++i) l[i + static_cast<std::size_t>(j) * ld] *= d[i];
  std::vector<double> x = random_matrix(sh.m, sh.n, ld, 14);
  k.trsm(sh.m, sh.n, l.data(), ld, x.data(), ld);
  return x;
}

std::vector<double> scaled_potrf_case(const detail::BlasKernels& k, int n) {
  const int ld = n + 5;
  const std::vector<double> ls = spd_factor(n, ld, 15);
  const std::vector<double> d = scaling_for(n, ls, ld);
  // A = D S D, with S = L_S L_S^T rebuilt so that A's factor is D L_S.
  std::vector<double> a(static_cast<std::size_t>(ld) * n, 0.0);
  for (int j = 0; j < n; ++j)
    for (int i = j; i < n; ++i) {
      double s = 0;
      for (int p = 0; p <= j; ++p) s += at(ls, i, p, ld) * at(ls, j, p, ld);
      a[i + static_cast<std::size_t>(j) * ld] = d[i] * s * d[j];
    }
  EXPECT_TRUE(k.potrf(n, a.data(), ld)) << k.name << " n " << n;
  return a;
}

bool variant_supported(const detail::BlasKernels* k) {
  if (k == &detail::kAvx512Kernels) return detail::avx512_supported();
  if (k == &detail::kAvx2Kernels) return detail::avx2_supported();
  return true;
}

class BlasVariant : public ::testing::TestWithParam<const detail::BlasKernels*> {
 protected:
  void SetUp() override {
    if (!variant_supported(GetParam())) GTEST_SKIP() << "CPU lacks " << GetParam()->name;
  }
  const detail::BlasKernels& kernels() const { return *GetParam(); }
};

INSTANTIATE_TEST_SUITE_P(Variants, BlasVariant,
                         ::testing::Values(&detail::kBaselineKernels, &detail::kAvx2Kernels,
                                           &detail::kAvx512Kernels),
                         [](const auto& info) { return std::string(info.param->name); });

TEST_P(BlasVariant, GemmMatchesNaiveOnRaggedSubViews) {
  for (const GemmShape sh : gemm_shapes()) {
    const int ld = sh.m + sh.pad;
    EXPECT_LT(max_diff(ld, sh.n, gemm_case(kernels(), sh), gemm_case(kNaive, sh), ld), 1e-12)
        << sh.m << "x" << sh.n << "x" << sh.k << " ld " << ld;
  }
}

TEST_P(BlasVariant, GemmRowSplitMatchesWholeTile) {
  // The team's split of one GEMM tile: rank r updates rows [r0, r1) through
  // `a + r0` / `c + r0` with the tile's leading dimension.
  constexpr int b = 96, ld = 131;
  const std::vector<double> a = random_matrix(b, b, ld, 4), bt = random_matrix(b, b, ld, 5);
  const std::vector<double> c0 = random_matrix(b, b, ld, 6);
  std::vector<double> ref = c0;
  naive_gemm(b, b, b, a.data(), ld, bt.data(), ld, ref.data(), ld);
  for (int width : {3, 4, 5}) {
    std::vector<double> c = c0;
    const int per = (b + width - 1) / width;
    for (int r0 = 0; r0 < b; r0 += per) {
      const int r1 = std::min(b, r0 + per);
      kernels().gemm(r1 - r0, b, b, a.data() + r0, ld, bt.data(), ld, c.data() + r0, ld);
    }
    EXPECT_LT(max_diff(b, b, c, ref, ld), 1e-12) << "width " << width;
  }
}

TEST_P(BlasVariant, SyrkMatchesNaiveAndKeepsUpperTriangle) {
  for (const int n : kSyrkSizes) {
    const int ld = n + 2;
    EXPECT_LT(max_diff(ld, n, syrk_case(kernels(), n), syrk_case(kNaive, n), ld), 1e-12)
        << "n " << n;
  }
}

TEST_P(BlasVariant, TrsmMatchesNaive) {
  for (const TrsmShape sh : kTrsmShapes)
    EXPECT_LT(max_diff(trsm_ld(sh), sh.n, trsm_case(kernels(), sh), trsm_case(kNaive, sh),
                       trsm_ld(sh)),
              1e-12)
        << sh.m << "x" << sh.n;
}

TEST_P(BlasVariant, BlockedPotrfMatchesNaive) {
  for (const int n : kPotrfSizes) {
    const int ld = n + 5;
    EXPECT_LT(lower_max_diff(n, potrf_case(kernels(), n).data(), ld,
                             potrf_case(kNaive, n).data(), ld),
              1e-12)
        << "n " << n;
  }
}

TEST_P(BlasVariant, TrsmWithWidelyScaledDiagonalMatchesNaive) {
  for (const TrsmShape sh : kTrsmShapes) {
    const int ld = trsm_ld(sh);
    const std::vector<double> x = scaled_trsm_case(kernels(), sh);
    const std::vector<double> ref = scaled_trsm_case(kNaive, sh);
    for (int j = 0; j < sh.n; ++j) {
      double err = 0, mag = 0;
      for (int i = 0; i < sh.m; ++i) {
        err = std::max(err, std::fabs(at(x, i, j, ld) - at(ref, i, j, ld)));
        mag = std::max(mag, std::fabs(at(ref, i, j, ld)));
      }
      EXPECT_LE(err, 1e-12 * mag) << sh.m << "x" << sh.n << " column " << j;
    }
  }
}

TEST_P(BlasVariant, PotrfWithWidelyScaledDiagonalMatchesNaive) {
  for (const int n : kPotrfSizes) {
    const int ld = n + 5;
    const std::vector<double> l = scaled_potrf_case(kernels(), n);
    const std::vector<double> ref = scaled_potrf_case(kNaive, n);
    for (int i = 0; i < n; ++i) {
      double err = 0, mag = 0;
      for (int j = 0; j <= i; ++j) {
        err = std::max(err, std::fabs(at(l, i, j, ld) - at(ref, i, j, ld)));
        mag = std::max(mag, std::fabs(at(ref, i, j, ld)));
      }
      EXPECT_LE(err, 1e-12 * mag) << "n " << n << " row " << i;
    }
  }
}

TEST_P(BlasVariant, BlockedPotrfRejectsMatrixIndefiniteInALaterBlock) {
  // A positive diagonal entry at `bad` set to half of what the columns left
  // of it subtract: its pivot turns negative only after the earlier blocks'
  // SYRK updates have reached it.
  for (const int n : {45, 128}) {
    const int bad = n - 5;
    std::vector<double> a(static_cast<std::size_t>(n) * n, 0.0);
    make_spd(n, a.data(), n, 12);
    std::vector<double> l = a;
    ASSERT_TRUE(cholesky_reference(n, l.data(), n));
    double s = 0;
    for (int p = 0; p < bad; ++p) s += at(l, bad, p, n) * at(l, bad, p, n);
    a[bad + static_cast<std::size_t>(bad) * n] = s / 2;
    std::vector<double> ref = a;
    EXPECT_FALSE(cholesky_reference(n, ref.data(), n));
    EXPECT_FALSE(kernels().potrf(n, a.data(), n)) << "n " << n;
  }
}

TEST(Blas, Avx512ResultsEqualAvx2Bitwise) {
  // Both variants fuse each multiply-subtract (FMA) and take the products in
  // the same k order, so a wider vector changes no rounding.
  if (!detail::avx512_supported()) GTEST_SKIP() << "CPU lacks AVX-512F";
  const detail::BlasKernels& wide = detail::kAvx512Kernels;
  const detail::BlasKernels& narrow = detail::kAvx2Kernels;
  for (const GemmShape sh : gemm_shapes())
    EXPECT_TRUE(bitwise_equal(gemm_case(wide, sh), gemm_case(narrow, sh)))
        << "gemm " << sh.m << "x" << sh.n << "x" << sh.k;
  for (const int n : kSyrkSizes)
    EXPECT_TRUE(bitwise_equal(syrk_case(wide, n), syrk_case(narrow, n))) << "syrk n " << n;
  for (const TrsmShape sh : kTrsmShapes)
    EXPECT_TRUE(bitwise_equal(trsm_case(wide, sh), trsm_case(narrow, sh)))
        << "trsm " << sh.m << "x" << sh.n;
  for (const int n : kPotrfSizes)
    EXPECT_TRUE(bitwise_equal(potrf_case(wide, n), potrf_case(narrow, n))) << "potrf n " << n;
}

// --- the kernels on ULT stacks ----------------------------------------------
//
// The packing buffers sit on the caller's stack (blas.hpp, kStackBudget).
// isolate_faults contains a stray access beyond the guard page as kSegv, so
// an overflow that skipped the guard shows as a wrong fault kind, not as a
// corrupted neighbour.

RuntimeOptions blas_ult_opts() {
  RuntimeOptions o;
  o.num_workers = 1;
  o.timer = TimerKind::None;
  o.isolate_faults = true;
  return o;
}

TEST(BlasOnUlt, AllKernelsRunOn64KiBStack) {
  static_assert(kStackBudget + 16 * 1024 <= 64 * 1024, "budget leaves the ULT no room");
  constexpr int b = 128, ld = 131;
  const std::vector<double> a = random_matrix(b, b, ld, 13), bt = random_matrix(b, b, ld, 14);
  const std::vector<double> c0 = random_matrix(b, b, ld, 15);
  std::vector<double> l = random_matrix(b, b, ld, 16);
  for (int j = 0; j < b; ++j) l[j + static_cast<std::size_t>(j) * ld] = 2.0 + j % 3;
  std::vector<double> spd(static_cast<std::size_t>(ld) * b, 0.0);
  make_spd(b, spd.data(), ld, 17);

  std::vector<double> gemm_ref = c0, syrk_ref = c0, trsm_ref = a, potrf_ref = spd;
  naive_gemm(b, b, b, a.data(), ld, bt.data(), ld, gemm_ref.data(), ld);
  naive_syrk(b, b, a.data(), ld, syrk_ref.data(), ld);
  naive_trsm(b, b, l.data(), ld, trsm_ref.data(), ld);
  ASSERT_TRUE(cholesky_reference(b, potrf_ref.data(), ld));

  Runtime rt(blas_ult_opts());
  ThreadAttrs attrs;
  attrs.stack_size = 64 * 1024;
  for (const detail::BlasKernels* k :
       {&detail::kBaselineKernels, &detail::kAvx2Kernels, &detail::kAvx512Kernels}) {
    if (!variant_supported(k)) continue;
    std::vector<double> gemm_c = c0, syrk_c = c0, trsm_x = a, potrf_a = spd;
    bool factored = false;
    const ThreadStatus st = rt.spawn([&] {
                               k->gemm(b, b, b, a.data(), ld, bt.data(), ld, gemm_c.data(), ld);
                               k->syrk(b, b, a.data(), ld, syrk_c.data(), ld);
                               k->trsm(b, b, l.data(), ld, trsm_x.data(), ld);
                               factored = k->potrf(b, potrf_a.data(), ld);
                             },
                             attrs)
                                .join_status();
    ASSERT_TRUE(st.completed);
    ASSERT_FALSE(st.failed()) << k->name;
    EXPECT_LT(max_diff(b, b, gemm_c, gemm_ref, ld), 1e-12) << k->name;
    EXPECT_LT(max_diff(b, b, syrk_c, syrk_ref, ld), 1e-12) << k->name;
    EXPECT_LT(max_diff(b, b, trsm_x, trsm_ref, ld), 1e-12) << k->name;
    ASSERT_TRUE(factored) << k->name;
    EXPECT_LT(lower_max_diff(b, potrf_a.data(), ld, potrf_ref.data(), ld), 1e-12) << k->name;
  }
}

TEST(BlasOnUlt, GemmOnMinimumStackIsAContainedOverflow) {
  Runtime rt(blas_ult_opts());
  if (!fault::available()) GTEST_SKIP() << "containment off in this build";
  constexpr int b = 128;
  const std::vector<double> a = random_matrix(b, b, b, 18), bt = random_matrix(b, b, b, 19);
  std::vector<double> c = random_matrix(b, b, b, 20);
  ThreadAttrs attrs;
  attrs.stack_size = kMinStackSize;
  const ThreadStatus st = rt.spawn([&] {
                             dgemm_nt_minus(b, b, b, a.data(), b, bt.data(), b, c.data(), b);
                           },
                           attrs)
                              .join_status();
  ASSERT_TRUE(st.completed);
  EXPECT_EQ(st.fault.kind, FaultKind::kStackOverflow);
  // The runtime goes on running ULTs.
  bool ran = false;
  rt.spawn([&] { ran = true; }).join();
  EXPECT_TRUE(ran);
}

TEST(Blas, ActiveVariantIsTheWidestTheCpuRuns) {
  EXPECT_EQ(&detail::active_kernels(), detail::avx512_supported() ? &detail::kAvx512Kernels
                                        : detail::avx2_supported() ? &detail::kAvx2Kernels
                                                                   : &detail::kBaselineKernels);
}

}  // namespace
}  // namespace lpt::apps
