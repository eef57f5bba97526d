#include "blas/transform.hpp"

#include "blas/fp16_round.hpp"
#include "common/error.hpp"

namespace rocqr::blas {

void copy_matrix(index_t m, index_t n, const float* src, index_t ld_src,
                 float* dst, index_t ld_dst) {
  ROCQR_CHECK(m >= 0 && n >= 0, "copy_matrix: negative dimension");
  ROCQR_CHECK(ld_src >= (m > 0 ? m : 1) && ld_dst >= (m > 0 ? m : 1),
              "copy_matrix: leading dimension too small");
  for (index_t j = 0; j < n; ++j) {
    const float* s = src + j * ld_src;
    float* d = dst + j * ld_dst;
    for (index_t i = 0; i < m; ++i) d[i] = s[i];
  }
}

void transpose(index_t m, index_t n, const float* src, index_t ld_src,
               float* dst, index_t ld_dst) {
  ROCQR_CHECK(m >= 0 && n >= 0, "transpose: negative dimension");
  ROCQR_CHECK(ld_src >= (m > 0 ? m : 1), "transpose: ld_src too small");
  ROCQR_CHECK(ld_dst >= (n > 0 ? n : 1), "transpose: ld_dst too small");
  for (index_t j = 0; j < n; ++j) {
    for (index_t i = 0; i < m; ++i) {
      dst[j + i * ld_dst] = src[i + j * ld_src];
    }
  }
}

void round_to_half(index_t m, index_t n, float* x, index_t ldx) {
  ROCQR_CHECK(m >= 0 && n >= 0, "round_to_half: negative dimension");
  ROCQR_CHECK(ldx >= (m > 0 ? m : 1),
              "round_to_half: leading dimension too small");
  for (index_t j = 0; j < n; ++j) {
    float* col = x + j * ldx;
    round_fp16_span(col, col, m);
  }
}

void fill(index_t m, index_t n, float value, float* x, index_t ldx) {
  ROCQR_CHECK(m >= 0 && n >= 0, "fill: negative dimension");
  ROCQR_CHECK(ldx >= (m > 0 ? m : 1), "fill: leading dimension too small");
  for (index_t j = 0; j < n; ++j) {
    float* col = x + j * ldx;
    for (index_t i = 0; i < m; ++i) col[i] = value;
  }
}

void zero_lower_triangle(index_t m, index_t n, float* x, index_t ldx) {
  ROCQR_CHECK(m >= 0 && n >= 0, "zero_lower_triangle: negative dimension");
  ROCQR_CHECK(ldx >= (m > 0 ? m : 1),
              "zero_lower_triangle: leading dimension too small");
  for (index_t j = 0; j < n; ++j) {
    float* col = x + j * ldx;
    for (index_t i = j + 1; i < m; ++i) col[i] = 0.0f;
  }
}

} // namespace rocqr::blas
