#include "blas/fp16_round.hpp"

#if defined(__F16C__)
#include <immintrin.h>

#include <cmath>
#include <limits>
#else
#include "common/half.hpp"
#endif

namespace rocqr::blas {

#if defined(__F16C__)

namespace {

// Rounding comes from the immediate, not from MXCSR.RC.
constexpr int kNearestEven = _MM_FROUND_TO_NEAREST_INT;

/// Eight lanes of round_fp16: convert down and back, then replace NaN lanes
/// (whose payload F16C keeps) by half's canonical sign | 0x7fc00000.
inline __m256 round8(__m256 x) {
  const __m256 rounded = _mm256_cvtph_ps(_mm256_cvtps_ph(x, kNearestEven));
  const __m256 is_nan = _mm256_cmp_ps(x, x, _CMP_UNORD_Q);
  const __m256 canonical =
      _mm256_or_ps(_mm256_and_ps(x, _mm256_set1_ps(-0.0f)),
                   _mm256_set1_ps(std::numeric_limits<float>::quiet_NaN()));
  return _mm256_blendv_ps(rounded, canonical, is_nan);
}

} // namespace

float round_fp16(float x) noexcept {
  if (std::isnan(x)) {
    return std::copysign(std::numeric_limits<float>::quiet_NaN(), x);
  }
  return _cvtsh_ss(_cvtss_sh(x, kNearestEven));
}

void round_fp16_span(const float* src, float* dst, index_t n) noexcept {
  index_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(dst + i, round8(_mm256_loadu_ps(src + i)));
  }
  for (; i < n; ++i) dst[i] = round_fp16(src[i]);
}

#else

float round_fp16(float x) noexcept { return static_cast<float>(half(x)); }

void round_fp16_span(const float* src, float* dst, index_t n) noexcept {
  for (index_t i = 0; i < n; ++i) dst[i] = round_fp16(src[i]);
}

#endif

} // namespace rocqr::blas
