// Level-1 ops, triangular solves, syrk, and layout transforms.
#include <gtest/gtest.h>

#include <cmath>

#include "blas/gemm.hpp"
#include "blas/level1.hpp"
#include "blas/transform.hpp"
#include "blas/trsm.hpp"
#include "common/error.hpp"
#include "common/half.hpp"
#include "la/generate.hpp"
#include "la/matrix.hpp"
#include "la/norms.hpp"

namespace rocqr {
namespace {

TEST(Level1, AxpyContiguousAndStrided) {
  float x[6] = {1, 2, 3, 4, 5, 6};
  float y[6] = {0, 0, 0, 0, 0, 0};
  blas::axpy(6, 2.0f, x, 1, y, 1);
  for (int i = 0; i < 6; ++i) EXPECT_FLOAT_EQ(y[i], 2.0f * x[i]);
  float y2[6] = {0, 0, 0, 0, 0, 0};
  blas::axpy(3, 1.0f, x, 2, y2, 2); // x[0], x[2], x[4] into y2[0], y2[2], y2[4]
  EXPECT_FLOAT_EQ(y2[0], 1.0f);
  EXPECT_FLOAT_EQ(y2[2], 3.0f);
  EXPECT_FLOAT_EQ(y2[4], 5.0f);
  EXPECT_FLOAT_EQ(y2[1], 0.0f);
}

TEST(Level1, AxpyAlphaZeroIsNoop) {
  float x[2] = {1, 2};
  float y[2] = {7, 8};
  blas::axpy(2, 0.0f, x, 1, y, 1);
  EXPECT_FLOAT_EQ(y[0], 7.0f);
  EXPECT_FLOAT_EQ(y[1], 8.0f);
}

TEST(Level1, Scal) {
  float x[4] = {1, -2, 3, -4};
  blas::scal(4, -0.5f, x, 1);
  EXPECT_FLOAT_EQ(x[0], -0.5f);
  EXPECT_FLOAT_EQ(x[3], 2.0f);
}

TEST(Level1, DotMatchesManualSum) {
  float x[3] = {1, 2, 3};
  float y[3] = {4, 5, 6};
  EXPECT_DOUBLE_EQ(blas::dot(3, x, 1, y, 1), 32.0);
  EXPECT_DOUBLE_EQ(blas::dot(0, x, 1, y, 1), 0.0);
}

TEST(Level1, Nrm2BasicAndScaled) {
  float x[4] = {3, 4, 0, 0};
  EXPECT_NEAR(blas::nrm2(4, x, 1), 5.0, 1e-12);
  // Values that would overflow a naive sum of squares in fp32/fp64.
  float big[2] = {3e18f, 4e18f};
  EXPECT_NEAR(blas::nrm2(2, big, 1), 5e18, 5e18 * 1e-6);
  float tiny[2] = {3e-30f, 4e-30f};
  EXPECT_NEAR(blas::nrm2(2, tiny, 1) / 5e-30, 1.0, 1e-5);
  EXPECT_DOUBLE_EQ(blas::nrm2(0, x, 1), 0.0);
}

TEST(Trsm, RightUpperSolvesXRequalsB) {
  const index_t m = 7;
  const index_t n = 5;
  la::Matrix r = la::random_uniform(n, n, 1);
  for (index_t j = 0; j < n; ++j) {
    r(j, j) = 2.0f + std::fabs(r(j, j)); // well away from zero
    for (index_t i = j + 1; i < n; ++i) r(i, j) = 0.0f;
  }
  la::Matrix x_true = la::random_uniform(m, n, 2);
  la::Matrix b(m, n);
  blas::gemm(blas::Op::NoTrans, blas::Op::NoTrans, m, n, n, 1.0f,
             x_true.data(), x_true.ld(), r.data(), r.ld(), 0.0f, b.data(),
             b.ld());
  blas::trsm_right_upper(m, n, r.data(), r.ld(), b.data(), b.ld());
  EXPECT_LT(la::relative_difference(b.view(), x_true.view()), 1e-5);
}

TEST(Trsm, LeftUpperSolvesRXequalsB) {
  const index_t m = 6;
  const index_t n = 4;
  la::Matrix r = la::random_uniform(m, m, 3);
  for (index_t j = 0; j < m; ++j) {
    r(j, j) = 2.0f + std::fabs(r(j, j));
    for (index_t i = j + 1; i < m; ++i) r(i, j) = 0.0f;
  }
  la::Matrix x_true = la::random_uniform(m, n, 4);
  la::Matrix b(m, n);
  blas::gemm(blas::Op::NoTrans, blas::Op::NoTrans, m, n, m, 1.0f, r.data(),
             r.ld(), x_true.data(), x_true.ld(), 0.0f, b.data(), b.ld());
  blas::trsm_left_upper(m, n, r.data(), r.ld(), b.data(), b.ld());
  EXPECT_LT(la::relative_difference(b.view(), x_true.view()), 1e-5);
}

TEST(Trsm, RightUpperBlockedPathMatchesTruth) {
  // n > 64 crosses into the blocked path (gemm trailing updates between
  // diagonal-block solves); the solve must still recover X to fp32 accuracy.
  const index_t m = 40;
  const index_t n = 150;
  la::Matrix r = la::random_uniform(n, n, 11);
  for (index_t j = 0; j < n; ++j) {
    r(j, j) = 2.0f + std::fabs(r(j, j));
    for (index_t i = j + 1; i < n; ++i) r(i, j) = 0.0f;
    // Keep off-diagonal mass small so the triangle stays well conditioned.
    for (index_t i = 0; i < j; ++i) r(i, j) *= 0.1f;
  }
  la::Matrix x_true = la::random_uniform(m, n, 12);
  la::Matrix b(m, n);
  blas::gemm(blas::Op::NoTrans, blas::Op::NoTrans, m, n, n, 1.0f,
             x_true.data(), x_true.ld(), r.data(), r.ld(), 0.0f, b.data(),
             b.ld());
  blas::trsm_right_upper(m, n, r.data(), r.ld(), b.data(), b.ld());
  EXPECT_LT(la::relative_difference(b.view(), x_true.view()), 1e-4);
}

TEST(Trsm, LeftSolvesMatchAcrossRhsCounts) {
  // The left solves parallelize over right-hand sides; each column's math is
  // untouched, so solving many rhs at once must equal solving one at a time.
  const index_t m = 48;
  const index_t n = 96; // big enough to cross the pool threshold with m*m*n
  la::Matrix r = la::random_uniform(m, m, 13);
  for (index_t j = 0; j < m; ++j) {
    r(j, j) = 2.0f + std::fabs(r(j, j));
    for (index_t i = j + 1; i < m; ++i) r(i, j) = 0.0f;
  }
  la::Matrix b0 = la::random_uniform(m, n, 14);
  la::Matrix batch = la::materialize(b0.view());
  blas::trsm_left_upper(m, n, r.data(), r.ld(), batch.data(), batch.ld());
  for (index_t j = 0; j < n; ++j) {
    la::Matrix single(m, 1);
    for (index_t i = 0; i < m; ++i) single(i, 0) = b0(i, j);
    blas::trsm_left_upper(m, 1, r.data(), r.ld(), single.data(), single.ld());
    for (index_t i = 0; i < m; ++i) {
      ASSERT_EQ(batch(i, j), single(i, 0)) << "i=" << i << " j=" << j;
    }
  }
}

TEST(Trsm, ThrowsOnSingularDiagonal) {
  la::Matrix r(2, 2);
  r(0, 0) = 1.0f;
  r(1, 1) = 0.0f;
  la::Matrix b = la::random_uniform(3, 2, 5);
  EXPECT_THROW(blas::trsm_right_upper(3, 2, r.data(), r.ld(), b.data(),
                                      b.ld()),
               InvalidArgument);
  la::Matrix b2 = la::random_uniform(2, 3, 6);
  EXPECT_THROW(blas::trsm_left_upper(2, 3, r.data(), r.ld(), b2.data(),
                                     b2.ld()),
               InvalidArgument);
}

TEST(Syrk, UpperTriangleMatchesGemm) {
  const index_t n = 6;
  const index_t k = 9;
  la::Matrix a = la::random_uniform(k, n, 7);
  la::Matrix c_syrk(n, n);
  blas::syrk_upper_t(n, k, 1.0f, a.data(), a.ld(), 0.0f, c_syrk.data(),
                     c_syrk.ld());
  la::Matrix c_gemm(n, n);
  blas::gemm(blas::Op::Trans, blas::Op::NoTrans, n, n, k, 1.0f, a.data(),
             a.ld(), a.data(), a.ld(), 0.0f, c_gemm.data(), c_gemm.ld());
  for (index_t j = 0; j < n; ++j) {
    for (index_t i = 0; i <= j; ++i) {
      EXPECT_NEAR(c_syrk(i, j), c_gemm(i, j), 1e-5) << i << "," << j;
    }
  }
}

TEST(Transform, CopyMatrixRespectsLeadingDims) {
  la::Matrix src = la::random_uniform(5, 4, 8);
  la::Matrix dst(8, 6);
  blas::copy_matrix(3, 2, &src(1, 1), src.ld(), &dst(2, 3), dst.ld());
  for (index_t j = 0; j < 2; ++j) {
    for (index_t i = 0; i < 3; ++i) {
      EXPECT_FLOAT_EQ(dst(2 + i, 3 + j), src(1 + i, 1 + j));
    }
  }
  EXPECT_FLOAT_EQ(dst(0, 0), 0.0f); // untouched
}

TEST(Transform, TransposeOutOfPlace) {
  la::Matrix a = la::random_uniform(4, 7, 9);
  la::Matrix t(7, 4);
  blas::transpose(4, 7, a.data(), a.ld(), t.data(), t.ld());
  for (index_t j = 0; j < 7; ++j) {
    for (index_t i = 0; i < 4; ++i) EXPECT_FLOAT_EQ(t(j, i), a(i, j));
  }
}

TEST(Transform, RoundToHalfIsIdempotent) {
  la::Matrix a = la::random_uniform(6, 6, 10);
  la::Matrix once = la::materialize(a.view());
  blas::round_to_half(6, 6, once.data(), once.ld());
  la::Matrix twice = la::materialize(once.view());
  blas::round_to_half(6, 6, twice.data(), twice.ld());
  for (index_t j = 0; j < 6; ++j) {
    for (index_t i = 0; i < 6; ++i) {
      EXPECT_EQ(once(i, j), twice(i, j));
      EXPECT_EQ(once(i, j), float(half(a(i, j))));
    }
  }
}

TEST(Transform, FillAndZeroLowerTriangle) {
  la::Matrix a(4, 3);
  blas::fill(4, 3, 7.0f, a.data(), a.ld());
  EXPECT_FLOAT_EQ(a(3, 2), 7.0f);
  blas::zero_lower_triangle(4, 3, a.data(), a.ld());
  EXPECT_FLOAT_EQ(a(0, 0), 7.0f);
  EXPECT_FLOAT_EQ(a(1, 0), 0.0f);
  EXPECT_FLOAT_EQ(a(1, 1), 7.0f);
  EXPECT_FLOAT_EQ(a(3, 2), 0.0f);
  EXPECT_FLOAT_EQ(a(2, 2), 7.0f);
}

TEST(Transform, InPlaceTransformsRejectBadDimensions) {
  la::Matrix a(4, 3);
  float* x = a.data();
  EXPECT_THROW(blas::round_to_half(-1, 3, x, 4), InvalidArgument);
  EXPECT_THROW(blas::round_to_half(4, -1, x, 4), InvalidArgument);
  EXPECT_THROW(blas::round_to_half(4, 3, x, 3), InvalidArgument);
  EXPECT_THROW(blas::fill(-1, 3, 0.0f, x, 4), InvalidArgument);
  EXPECT_THROW(blas::fill(4, -2, 0.0f, x, 4), InvalidArgument);
  EXPECT_THROW(blas::fill(4, 3, 0.0f, x, 2), InvalidArgument);
  EXPECT_THROW(blas::zero_lower_triangle(-1, 3, x, 4), InvalidArgument);
  EXPECT_THROW(blas::zero_lower_triangle(4, -1, x, 4), InvalidArgument);
  EXPECT_THROW(blas::zero_lower_triangle(4, 3, x, 1), InvalidArgument);
  // ldx must be at least 1 even for an empty block, as in copy_matrix.
  EXPECT_THROW(blas::fill(0, 3, 0.0f, x, 0), InvalidArgument);
  // Empty blocks with a valid ldx are no-ops.
  EXPECT_NO_THROW(blas::round_to_half(0, 3, x, 1));
  EXPECT_NO_THROW(blas::fill(4, 0, 1.0f, x, 4));
  EXPECT_NO_THROW(blas::zero_lower_triangle(0, 0, x, 1));
}

} // namespace
} // namespace rocqr
