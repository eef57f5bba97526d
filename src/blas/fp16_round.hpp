// fp16 input rounding: x -> float(half(x)), round-to-nearest-even.
//
// This is the one place the host numerics round through IEEE binary16: the
// GEMM packs under GemmPrecision::FP16_FP32 (the TensorCore input contract)
// and every write to an FP16-stored sim::Device matrix (round_to_half).
//
// When rocqr_blas is compiled with F16C (`__F16C__`, which the default
// ROCQR_NATIVE_KERNELS -march=native build defines on any x86-64 host that
// has it), the span form converts 8 lanes at a time with vcvtps2ph /
// vcvtph2ps under an explicit round-to-nearest-even immediate, so MXCSR's
// rounding mode never matters. Without F16C both forms are
// static_cast<float>(half(x)). The selection is compile-time only.
//
// common::half is the reference and both paths equal it bit for bit on
// every float input. The one place F16C differs natively is NaN: it keeps
// the payload, while half returns the canonical quiet NaN (sign | 0x7e00,
// which widens to sign | 0x7fc00000). NaN lanes are blended back to that
// canonical value. tests/blas_fp16_round_test.cpp pins the equality.
#pragma once

#include "common/types.hpp"

namespace rocqr::blas {

/// float(half(x)), bit for bit.
float round_fp16(float x) noexcept;

/// dst[i] = round_fp16(src[i]) for i in [0, n). src == dst (in place) is
/// allowed; any other overlap is not. n <= 0 is a no-op.
void round_fp16_span(const float* src, float* dst, index_t n) noexcept;

} // namespace rocqr::blas
