// Host GEMM: C = alpha * op(A) * op(B) + beta * C, column-major.
//
// Two precision paths:
//  - FP32       : plain single-precision ("CUDA core SGEMM" analogue).
//  - FP16_FP32  : inputs rounded element-wise to IEEE binary16 before the
//                 multiply, accumulation in fp32 — exactly the TensorCore
//                 TC-GEMM numerical contract this reproduction studies.
//                 Every kernel here rounds through blas::round_fp16 /
//                 round_fp16_span (fp16_round.hpp), which equals
//                 float(half(x)) bit for bit, NaNs included (canonical quiet
//                 NaN). So gemm(FP16_FP32) is bitwise gemm(FP32) on operands
//                 first rounded through half. alpha scales after rounding.
//
// The production path is a cache-blocked, packed kernel (register tile and
// tiling parameters in gemm_kernel.hpp) parallelized over both output
// dimensions through ThreadPool::parallel_for_2d. Pack buffers are
// thread-local and reused across calls; gemm_pack_allocations() exposes the
// buffer-growth count so benchmarks can assert steady-state makes zero
// allocations. The seed pack-everything-then-multiply scheme survives as
// gemm_baseline for A/B benchmarking.
#pragma once

#include <cstdint>

#include "common/thread_pool.hpp"
#include "common/types.hpp"

namespace rocqr::blas {

enum class Op { NoTrans, Trans };

enum class GemmPrecision {
  FP32,      ///< fp32 inputs, fp32 accumulate
  FP16_FP32, ///< fp16-rounded inputs, fp32 accumulate (TensorCore contract)
};

/// Rows of op(X) for a matrix X that is m-by-n before the op.
inline index_t op_rows(Op op, index_t rows, index_t cols) {
  return op == Op::NoTrans ? rows : cols;
}
inline index_t op_cols(Op op, index_t rows, index_t cols) {
  return op == Op::NoTrans ? cols : rows;
}

/// General matrix multiply. Shapes: op(A) is m x k, op(B) is k x n,
/// C is m x n. Leading dimensions must satisfy the usual BLAS constraints
/// (lda >= rows of A as stored, etc.). Throws InvalidArgument on violation.
void gemm(Op opa, Op opb, index_t m, index_t n, index_t k, float alpha,
          const float* a, index_t lda, const float* b, index_t ldb, float beta,
          float* c, index_t ldc, GemmPrecision precision = GemmPrecision::FP32,
          ThreadPool* pool = nullptr);

/// The pre-blocking kernel (pack both operands whole, then multiply): kept
/// as the benchmark baseline the blocked kernel is measured against, and as
/// a second oracle in tests. Allocates O(m*k + k*n) scratch per call.
void gemm_baseline(Op opa, Op opb, index_t m, index_t n, index_t k,
                   float alpha, const float* a, index_t lda, const float* b,
                   index_t ldb, float beta, float* c, index_t ldc,
                   GemmPrecision precision = GemmPrecision::FP32,
                   ThreadPool* pool = nullptr);

/// Number of times any thread grew its thread-local pack buffer, process
/// wide. Steady-state gemm calls (same or smaller shapes) must not move
/// this counter — bench/micro_host_kernels asserts exactly that.
std::int64_t gemm_pack_allocations();

/// Unblocked triple-loop reference used to validate the blocked kernel.
void gemm_reference(Op opa, Op opb, index_t m, index_t n, index_t k,
                    float alpha, const float* a, index_t lda, const float* b,
                    index_t ldb, float beta, float* c, index_t ldc,
                    GemmPrecision precision = GemmPrecision::FP32);

/// FLOP count convention used throughout the project (paper's convention).
inline flops_t gemm_flops(index_t m, index_t n, index_t k) {
  return 2 * static_cast<flops_t>(m) * static_cast<flops_t>(n) *
         static_cast<flops_t>(k);
}

} // namespace rocqr::blas
