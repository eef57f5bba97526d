// Layout transforms: submatrix copy, out-of-place transpose, precision
// round-trips. These model the pack/unpack steps around tile transfers.
#pragma once

#include "common/types.hpp"

namespace rocqr::blas {

/// dst(0:m, 0:n) = src(0:m, 0:n), both column-major with leading dimensions.
void copy_matrix(index_t m, index_t n, const float* src, index_t ld_src,
                 float* dst, index_t ld_dst);

/// dst(j, i) = src(i, j); dst is n x m.
void transpose(index_t m, index_t n, const float* src, index_t ld_src,
               float* dst, index_t ld_dst);

// The in-place transforms below take an m x n block with leading dimension
// ldx and, like copy_matrix, throw InvalidArgument on a negative m or n or
// on ldx < max(1, m).

/// In-place element-wise rounding through IEEE binary16 (simulates storing
/// a tile in fp16 on the device and reading it back): round_fp16_span
/// (fp16_round.hpp) over each column, bit-identical to common::half.
void round_to_half(index_t m, index_t n, float* x, index_t ldx);

/// Fills with a constant.
void fill(index_t m, index_t n, float value, float* x, index_t ldx);

/// Sets the strict lower triangle to zero (used to clean R factors).
void zero_lower_triangle(index_t m, index_t n, float* x, index_t ldx);

} // namespace rocqr::blas
