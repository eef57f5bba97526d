// GEMM: blocked kernel vs double-precision reference across shapes,
// transposes, precisions, and alpha/beta combinations.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <tuple>
#include <vector>

#include "blas/gemm.hpp"
#include "common/half.hpp"
#include "la/generate.hpp"
#include "la/matrix.hpp"
#include "la/norms.hpp"

namespace rocqr {
namespace {

using blas::GemmPrecision;
using blas::Op;

la::Matrix make_operand(Op op, index_t rows_op, index_t cols_op,
                        std::uint64_t seed) {
  // Stored shape is the transpose of the op-shape for Op::Trans.
  return op == Op::NoTrans ? la::random_uniform(rows_op, cols_op, seed)
                           : la::random_uniform(cols_op, rows_op, seed);
}

class GemmParamTest
    : public ::testing::TestWithParam<std::tuple<
          std::tuple<index_t, index_t, index_t>, Op, Op, GemmPrecision>> {};

TEST_P(GemmParamTest, MatchesReference) {
  const auto [shape, opa, opb, prec] = GetParam();
  const auto [m, n, k] = shape;
  la::Matrix a = make_operand(opa, m, k, 1);
  la::Matrix b = make_operand(opb, k, n, 2);
  la::Matrix c = la::random_uniform(m, n, 3);
  la::Matrix c_ref = la::materialize(c.view());

  const float alpha = 1.25f;
  const float beta = -0.5f;
  blas::gemm(opa, opb, m, n, k, alpha, a.data(), a.ld(), b.data(), b.ld(),
             beta, c.data(), c.ld(), prec);
  blas::gemm_reference(opa, opb, m, n, k, alpha, a.data(), a.ld(), b.data(),
                       b.ld(), beta, c_ref.data(), c_ref.ld(), prec);

  // fp32 accumulation error vs the double-accumulated reference grows with
  // k; elements are O(1) so an absolute k-scaled bound is appropriate.
  const double tol = 1e-6 * std::sqrt(static_cast<double>(k + 1)) * 16.0;
  EXPECT_LT(la::relative_difference(c.view(), c_ref.view()), tol)
      << "m=" << m << " n=" << n << " k=" << k;
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GemmParamTest,
    ::testing::Combine(
        ::testing::Values(std::tuple<index_t, index_t, index_t>{1, 1, 1},
                          std::tuple<index_t, index_t, index_t>{5, 3, 4},
                          std::tuple<index_t, index_t, index_t>{16, 16, 16},
                          std::tuple<index_t, index_t, index_t>{33, 17, 55},
                          std::tuple<index_t, index_t, index_t>{64, 1, 128},
                          std::tuple<index_t, index_t, index_t>{1, 64, 128},
                          std::tuple<index_t, index_t, index_t>{96, 80, 112},
                          // Cross the kMC=128 / kKC=256 cache-block edges
                          // and leave ragged kMR/kNR register tiles.
                          std::tuple<index_t, index_t, index_t>{130, 70, 300},
                          std::tuple<index_t, index_t, index_t>{257, 96, 129}),
        ::testing::Values(Op::NoTrans, Op::Trans),
        ::testing::Values(Op::NoTrans, Op::Trans),
        ::testing::Values(GemmPrecision::FP32, GemmPrecision::FP16_FP32)));

TEST(Gemm, BetaZeroIgnoresGarbageC) {
  const index_t n = 8;
  la::Matrix a = la::random_uniform(n, n, 1);
  la::Matrix b = la::random_uniform(n, n, 2);
  la::Matrix c(n, n);
  for (index_t j = 0; j < n; ++j) {
    for (index_t i = 0; i < n; ++i) {
      c(i, j) = std::numeric_limits<float>::quiet_NaN();
    }
  }
  blas::gemm(Op::NoTrans, Op::NoTrans, n, n, n, 1.0f, a.data(), a.ld(),
             b.data(), b.ld(), 0.0f, c.data(), c.ld());
  for (index_t j = 0; j < n; ++j) {
    for (index_t i = 0; i < n; ++i) EXPECT_FALSE(std::isnan(c(i, j)));
  }
}

TEST(Gemm, AlphaZeroOnlyScalesC) {
  const index_t n = 6;
  la::Matrix a = la::random_uniform(n, n, 1);
  la::Matrix b = la::random_uniform(n, n, 2);
  la::Matrix c = la::random_uniform(n, n, 3);
  la::Matrix expected = la::materialize(c.view());
  blas::gemm(Op::NoTrans, Op::NoTrans, n, n, n, 0.0f, a.data(), a.ld(),
             b.data(), b.ld(), 2.0f, c.data(), c.ld());
  for (index_t j = 0; j < n; ++j) {
    for (index_t i = 0; i < n; ++i) {
      EXPECT_FLOAT_EQ(c(i, j), 2.0f * expected(i, j));
    }
  }
}

TEST(Gemm, KZeroActsAsScale) {
  la::Matrix c = la::random_uniform(4, 4, 3);
  la::Matrix expected = la::materialize(c.view());
  blas::gemm(Op::NoTrans, Op::NoTrans, 4, 4, 0, 1.0f, nullptr, 4, nullptr, 1,
             0.5f, c.data(), c.ld());
  for (index_t j = 0; j < 4; ++j) {
    for (index_t i = 0; i < 4; ++i) {
      EXPECT_FLOAT_EQ(c(i, j), 0.5f * expected(i, j));
    }
  }
}

TEST(Gemm, EmptyOutputIsNoop) {
  // m == 0 and n == 0 are valid degenerate calls.
  blas::gemm(Op::NoTrans, Op::NoTrans, 0, 4, 4, 1.0f, nullptr, 1, nullptr, 4,
             0.0f, nullptr, 1);
  blas::gemm(Op::NoTrans, Op::NoTrans, 4, 0, 4, 1.0f, nullptr, 4, nullptr, 4,
             0.0f, nullptr, 4);
}

TEST(Gemm, Fp16PathRoundsInputs) {
  // Pick a value with a long mantissa: fp16 rounding must change the result.
  const index_t n = 1;
  la::Matrix a(1, 1);
  la::Matrix b(1, 1);
  la::Matrix c(1, 1);
  a(0, 0) = 1.0009765625f + 0x1.0p-12f; // not representable in fp16
  b(0, 0) = 1.0f;
  blas::gemm(Op::NoTrans, Op::NoTrans, n, n, 1, 1.0f, a.data(), 1, b.data(), 1,
             0.0f, c.data(), 1, blas::GemmPrecision::FP16_FP32);
  EXPECT_EQ(c(0, 0), float(half(a(0, 0))));
  EXPECT_NE(c(0, 0), a(0, 0));
}

std::uint32_t bits_of(float f) {
  std::uint32_t u;
  std::memcpy(&u, &f, sizeof(u));
  return u;
}

float from_bits(std::uint32_t u) {
  float f;
  std::memcpy(&f, &u, sizeof(f));
  return f;
}

/// Element-wise float(half(x)) through common::half, the rounding oracle.
la::Matrix half_rounded(const la::Matrix& x) {
  la::Matrix r = la::materialize(x.view());
  for (index_t j = 0; j < r.cols(); ++j) {
    for (index_t i = 0; i < r.rows(); ++i) r(i, j) = float(half(r(i, j)));
  }
  return r;
}

// The fp16 path differs from fp32 only in rounding the operands on pack:
// gemm(FP16_FP32) must equal, bit for bit, gemm(FP32) run on operands that
// were first rounded through half. Payload NaNs (which half canonicalizes)
// and overflow-edge values carry the rounding's special cases end to end;
// m, n, k leave ragged kMR/kNR tiles and cross the kMC/kKC block edges. The
// baseline kernel (whole-operand pack) and the reference obey the same rule.
TEST(Gemm, Fp16PathEqualsFp32OnHalfRoundedOperands) {
  const index_t m = 137;
  const index_t n = 29;
  const index_t k = 301;
  const float payload_nan = from_bits(0x7fc12345u);
  using GemmFn = void (*)(Op, Op, index_t, index_t, index_t, float,
                          const float*, index_t, const float*, index_t, float,
                          float*, index_t, GemmPrecision);
  const GemmFn kernels[] = {
      [](Op opa, Op opb, index_t mm, index_t nn, index_t kk, float alpha,
         const float* a, index_t lda, const float* b, index_t ldb, float beta,
         float* c, index_t ldc, GemmPrecision p) {
        blas::gemm(opa, opb, mm, nn, kk, alpha, a, lda, b, ldb, beta, c, ldc,
                   p);
      },
      [](Op opa, Op opb, index_t mm, index_t nn, index_t kk, float alpha,
         const float* a, index_t lda, const float* b, index_t ldb, float beta,
         float* c, index_t ldc, GemmPrecision p) {
        blas::gemm_baseline(opa, opb, mm, nn, kk, alpha, a, lda, b, ldb, beta,
                            c, ldc, p);
      },
      &blas::gemm_reference,
  };
  for (Op opa : {Op::NoTrans, Op::Trans}) {
    for (Op opb : {Op::NoTrans, Op::Trans}) {
      la::Matrix a = make_operand(opa, m, k, 11);
      la::Matrix b = make_operand(opb, k, n, 12);
      // A few specials; each poisons one row or column of C, the rest of C
      // stays finite and is compared bit for bit as well.
      a(0, 0) = payload_nan;
      a(3, 2) = std::nextafter(65520.0f, 0.0f); // rounds to 65504
      a(5, 1) = -65520.0f;                      // rounds to -inf
      b(1, 4) = -payload_nan;
      b(2, 0) = 65519.0f; // rounds to 65504
      // Rounds to inf, so alpha * inf; scaling before rounding would not.
      b(3, 2) = 65520.0f;
      const la::Matrix a_r = half_rounded(a);
      const la::Matrix b_r = half_rounded(b);
      for (float alpha : {1.0f, -0.5f}) {
        for (float beta : {0.0f, 1.0f}) {
          for (size_t kern = 0; kern < std::size(kernels); ++kern) {
            la::Matrix c16 = la::random_uniform(m, n, 13);
            la::Matrix c32 = la::materialize(c16.view());
            kernels[kern](opa, opb, m, n, k, alpha, a.data(), a.ld(), b.data(),
                          b.ld(), beta, c16.data(), c16.ld(),
                          GemmPrecision::FP16_FP32);
            kernels[kern](opa, opb, m, n, k, alpha, a_r.data(), a_r.ld(),
                          b_r.data(), b_r.ld(), beta, c32.data(), c32.ld(),
                          GemmPrecision::FP32);
            index_t mismatches = 0;
            for (index_t j = 0; j < n; ++j) {
              for (index_t i = 0; i < m; ++i) {
                if (bits_of(c16(i, j)) != bits_of(c32(i, j))) ++mismatches;
              }
            }
            EXPECT_EQ(mismatches, 0)
                << "kernel " << kern << " opa=" << static_cast<int>(opa)
                << " opb=" << static_cast<int>(opb) << " alpha=" << alpha
                << " beta=" << beta;
          }
        }
      }
    }
  }
}

TEST(Gemm, SubviewLeadingDimensions) {
  // Operate on an interior block of a larger matrix.
  la::Matrix big = la::random_uniform(10, 10, 4);
  la::Matrix a = la::random_uniform(3, 4, 1);
  la::Matrix b = la::random_uniform(4, 3, 2);
  la::Matrix expected(3, 3);
  blas::gemm(Op::NoTrans, Op::NoTrans, 3, 3, 4, 1.0f, a.data(), a.ld(),
             b.data(), b.ld(), 0.0f, expected.data(), expected.ld());
  float* cptr = &big(2, 5);
  blas::gemm(Op::NoTrans, Op::NoTrans, 3, 3, 4, 1.0f, a.data(), a.ld(),
             b.data(), b.ld(), 0.0f, cptr, big.ld());
  for (index_t j = 0; j < 3; ++j) {
    for (index_t i = 0; i < 3; ++i) {
      EXPECT_FLOAT_EQ(big(2 + i, 5 + j), expected(i, j));
    }
  }
}

TEST(Gemm, RejectsBadArguments) {
  la::Matrix a = la::random_uniform(4, 4, 1);
  EXPECT_THROW(blas::gemm(Op::NoTrans, Op::NoTrans, -1, 4, 4, 1.0f, a.data(),
                          4, a.data(), 4, 0.0f, a.data(), 4),
               InvalidArgument);
  // lda smaller than the stored row count.
  EXPECT_THROW(blas::gemm(Op::NoTrans, Op::NoTrans, 4, 4, 4, 1.0f, a.data(),
                          2, a.data(), 4, 0.0f, a.data(), 4),
               InvalidArgument);
  // Null pointers with nonzero work.
  EXPECT_THROW(blas::gemm(Op::NoTrans, Op::NoTrans, 4, 4, 4, 1.0f, nullptr, 4,
                          a.data(), 4, 0.0f, a.data(), 4),
               InvalidArgument);
}

TEST(Gemm, BaselineKernelMatchesBlocked) {
  // The seed pack-and-multiply kernel survives as the benchmark baseline;
  // both kernels must stay within reference tolerance of each other.
  const index_t m = 150;
  const index_t n = 90;
  const index_t k = 260;
  la::Matrix a = la::random_uniform(m, k, 1);
  la::Matrix b = la::random_uniform(k, n, 2);
  la::Matrix c_blocked = la::random_uniform(m, n, 3);
  la::Matrix c_baseline = la::materialize(c_blocked.view());
  blas::gemm(Op::NoTrans, Op::NoTrans, m, n, k, 1.5f, a.data(), a.ld(),
             b.data(), b.ld(), 0.25f, c_blocked.data(), c_blocked.ld());
  blas::gemm_baseline(Op::NoTrans, Op::NoTrans, m, n, k, 1.5f, a.data(),
                      a.ld(), b.data(), b.ld(), 0.25f, c_baseline.data(),
                      c_baseline.ld());
  const double tol = 1e-6 * std::sqrt(static_cast<double>(k + 1)) * 16.0;
  EXPECT_LT(la::relative_difference(c_blocked.view(), c_baseline.view()), tol);
}

TEST(Gemm, SplittingKIsBitwiseInvariant) {
  // The OOC drivers re-slice one multiply into several k-panels and are
  // tested to produce identical bits; the host kernel must honor that.
  const index_t m = 96;
  const index_t n = 41;
  const index_t k = 300;
  la::Matrix a = la::random_uniform(m, k, 4);
  la::Matrix b = la::random_uniform(k, n, 5);
  la::Matrix c_whole(m, n);
  la::Matrix c_split(m, n);
  blas::gemm(Op::NoTrans, Op::NoTrans, m, n, k, 1.0f, a.data(), a.ld(),
             b.data(), b.ld(), 0.0f, c_whole.data(), c_whole.ld());
  const index_t k1 = 113; // awkward split, not a block multiple
  blas::gemm(Op::NoTrans, Op::NoTrans, m, n, k1, 1.0f, a.data(), a.ld(),
             b.data(), b.ld(), 0.0f, c_split.data(), c_split.ld());
  blas::gemm(Op::NoTrans, Op::NoTrans, m, n, k - k1, 1.0f, &a(0, k1), a.ld(),
             &b(k1, 0), b.ld(), 1.0f, c_split.data(), c_split.ld());
  for (index_t j = 0; j < n; ++j) {
    for (index_t i = 0; i < m; ++i) {
      EXPECT_EQ(c_whole(i, j), c_split(i, j)) << "i=" << i << " j=" << j;
    }
  }
}

// Regression: calling gemm from inside a parallel_for body used to re-enter
// the global pool's round state and deadlock or corrupt pending_.
TEST(Gemm, CallableFromInsideParallelForBody) {
  const index_t n = 48;
  la::Matrix a = la::random_uniform(n, n, 1);
  la::Matrix b = la::random_uniform(n, n, 2);
  la::Matrix expected(n, n);
  blas::gemm_reference(Op::NoTrans, Op::NoTrans, n, n, n, 1.0f, a.data(),
                       a.ld(), b.data(), b.ld(), 0.0f, expected.data(),
                       expected.ld());
  constexpr index_t kSlots = 8;
  std::vector<la::Matrix> results;
  for (index_t s = 0; s < kSlots; ++s) results.emplace_back(n, n);
  ThreadPool::global().parallel_for(kSlots, [&](index_t s0, index_t s1) {
    for (index_t s = s0; s < s1; ++s) {
      blas::gemm(Op::NoTrans, Op::NoTrans, n, n, n, 1.0f, a.data(), a.ld(),
                 b.data(), b.ld(), 0.0f, results[static_cast<size_t>(s)].data(),
                 results[static_cast<size_t>(s)].ld());
    }
  });
  const double tol = 1e-6 * std::sqrt(static_cast<double>(n + 1)) * 16.0;
  for (const auto& r : results) {
    EXPECT_LT(la::relative_difference(r.view(), expected.view()), tol);
  }
}

TEST(Gemm, PackBuffersReusedAcrossCalls) {
  const index_t n = 64;
  la::Matrix a = la::random_uniform(n, n, 1);
  la::Matrix b = la::random_uniform(n, n, 2);
  la::Matrix c(n, n);
  // First call may grow the thread-local pack scratch...
  blas::gemm(Op::NoTrans, Op::NoTrans, n, n, n, 1.0f, a.data(), a.ld(),
             b.data(), b.ld(), 0.0f, c.data(), c.ld());
  const std::int64_t warm = blas::gemm_pack_allocations();
  // ...steady state (same or smaller shapes) must not allocate at all.
  for (int round = 0; round < 5; ++round) {
    blas::gemm(Op::NoTrans, Op::Trans, n, n / 2, n, 1.0f, a.data(), a.ld(),
               b.data(), b.ld(), 0.5f, c.data(), c.ld());
  }
  EXPECT_EQ(blas::gemm_pack_allocations(), warm);
}

TEST(Gemm, FlopCountConvention) {
  EXPECT_EQ(blas::gemm_flops(2, 3, 4), 48);
  EXPECT_EQ(blas::gemm_flops(65536, 131072, 65536),
            2LL * 65536 * 131072 * 65536);
}

TEST(Gemm, OpShapeHelpers) {
  EXPECT_EQ(blas::op_rows(Op::NoTrans, 3, 7), 3);
  EXPECT_EQ(blas::op_cols(Op::NoTrans, 3, 7), 7);
  EXPECT_EQ(blas::op_rows(Op::Trans, 3, 7), 7);
  EXPECT_EQ(blas::op_cols(Op::Trans, 3, 7), 3);
}

} // namespace
} // namespace rocqr
