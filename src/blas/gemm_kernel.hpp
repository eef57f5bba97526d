// Cache-blocked GEMM micro-kernel: packing layouts and the register tile.
//
// The blocked driver in gemm.cpp walks the classic three-level tiling
// (Goto/BLIS scheme, cf. the tiled-kernel designs in Buttari et al. and the
// TSQR kernel discussion in Demmel et al.):
//
//   for jc in N step kNC:            // B panel column block
//     for pc in K step kKC:          //   shared depth block
//       pack B(pc:pc+kc, jc:jc+nc)   //   -> kNR-column strips, alpha folded
//       for ic in M step kMC:        //     A block, per-thread
//         pack A(ic:ic+mc, pc:pc+kc) //     -> kMR-row strips
//         micro-kernel over every (kMR x kNR) tile of C
//
// The packed panels give the micro-kernel unit-stride, transpose-free,
// precision-resolved inputs, so the inner loop is identical for both
// precision paths. Under GemmPrecision::FP16_FP32 each strip is packed raw
// and then rounded in place by one round_fp16_span pass (fp16_round.hpp:
// F16C 8 lanes at a time where available, bit-identical to common::half,
// NaNs canonicalized as half does); the FP32 path never rounds. B strips are
// scaled by alpha only after that pass.
//
// Tiling parameters (all in floats):
//   kMR x kNR  register tile, sized so the accumulator block plus one A
//              sliver and one B sliver fit in architectural registers
//              (8 x 6 = 48 accumulators: 12 xmm or 6 ymm).
//   kKC        depth of a packed panel; one A strip (kMR x kKC = 8 KiB) and
//              one B strip (kKC x kNR = 6 KiB) stay L1-resident.
//   kMC        rows of the packed A block: kMC x kKC = 128 KiB, L2-resident.
//   kNC        columns of the packed B panel: kKC x kNC = 1.5 MiB, sized for
//              the outer cache so it is reused across every A block.
#pragma once

#include <algorithm>
#include <cstddef>

#include "blas/fp16_round.hpp"
#include "blas/gemm.hpp"
#include "common/types.hpp"

namespace rocqr::blas::kernel {

inline constexpr index_t kMR = 8;
inline constexpr index_t kNR = 6;
inline constexpr index_t kMC = 128;  // multiple of kMR
inline constexpr index_t kKC = 256;
inline constexpr index_t kNC = 1536; // multiple of kNR

/// op(X)(i, j) for X stored column-major with leading dimension ldx.
inline const float* op_element(Op op, const float* x, index_t ldx, index_t i,
                               index_t j) {
  return op == Op::NoTrans ? &x[i + j * ldx] : &x[j + i * ldx];
}

/// Number of kMR-row strips covering mb rows (last one may be partial).
inline index_t a_strips(index_t mb) { return (mb + kMR - 1) / kMR; }
inline index_t b_strips(index_t nb) { return (nb + kNR - 1) / kNR; }

/// Packed sizes in floats (strips are zero-padded to full width so the
/// micro-kernel never branches on the depth loop).
inline size_t packed_a_size(index_t mb, index_t kb) {
  return static_cast<size_t>(a_strips(mb)) * static_cast<size_t>(kMR) *
         static_cast<size_t>(kb);
}
inline size_t packed_b_size(index_t kb, index_t nb) {
  return static_cast<size_t>(b_strips(nb)) * static_cast<size_t>(kNR) *
         static_cast<size_t>(kb);
}

/// Packs op(A)(row0 : row0+mb, col0 : col0+kb) into kMR-row strips:
/// out[s*kMR*kb + l*kMR + i] = op(A)(row0 + s*kMR + i, col0 + l), rounded
/// through fp16 on the TensorCore path. Rows past mb are zero-filled.
inline void pack_a(Op opa, GemmPrecision precision, const float* a,
                   index_t lda, index_t row0, index_t col0, index_t mb,
                   index_t kb, float* out) {
  const index_t strips = a_strips(mb);
  for (index_t s = 0; s < strips; ++s) {
    const index_t i0 = s * kMR;
    const index_t iv = std::min<index_t>(kMR, mb - i0);
    float* strip = out + s * kMR * kb;
    for (index_t l = 0; l < kb; ++l) {
      float* dst = strip + l * kMR;
      for (index_t i = 0; i < iv; ++i) {
        dst[i] = *op_element(opa, a, lda, row0 + i0 + i, col0 + l);
      }
      for (index_t i = iv; i < kMR; ++i) dst[i] = 0.0f;
    }
    // The strip is L1-resident here; the zero padding rounds to zero.
    if (precision == GemmPrecision::FP16_FP32) {
      round_fp16_span(strip, strip, kMR * kb);
    }
  }
}

/// Packs alpha * op(B)(row0 : row0+kb, col0 : col0+nb) into kNR-column
/// strips: out[t*kNR*kb + l*kNR + j] = alpha * op(B)(row0 + l, col0 + t*kNR
/// + j). Rounding through fp16 happens *before* the alpha scaling — alpha is
/// an fp32 epilogue scalar (as in cublas), not a TensorCore input.
inline void pack_b(Op opb, GemmPrecision precision, float alpha,
                   const float* b, index_t ldb, index_t row0, index_t col0,
                   index_t kb, index_t nb, float* out) {
  const bool fp16 = precision == GemmPrecision::FP16_FP32;
  // On the fp16 path alpha waits until the strip has been rounded.
  const float pack_scale = fp16 ? 1.0f : alpha;
  const index_t strips = b_strips(nb);
  for (index_t t = 0; t < strips; ++t) {
    const index_t j0 = t * kNR;
    const index_t jv = std::min<index_t>(kNR, nb - j0);
    float* strip = out + t * kNR * kb;
    for (index_t l = 0; l < kb; ++l) {
      float* dst = strip + l * kNR;
      for (index_t j = 0; j < jv; ++j) {
        dst[j] = pack_scale *
                 *op_element(opb, b, ldb, row0 + l, col0 + j0 + j);
      }
      for (index_t j = jv; j < kNR; ++j) dst[j] = 0.0f;
    }
    if (fp16) {
      // Only the live columns are scaled: the padding stays zero whatever
      // alpha is.
      round_fp16_span(strip, strip, kNR * kb);
      for (index_t l = 0; l < kb; ++l) {
        float* dst = strip + l * kNR;
        for (index_t j = 0; j < jv; ++j) dst[j] = alpha * dst[j];
      }
    }
  }
}

/// C(0:mv, 0:nv) += Ap_strip * Bp_strip over kb depth steps. Ap/Bp are one
/// packed strip each (kMR- and kNR-wide); the accumulator tile lives in
/// registers for the whole depth loop. mv/nv trim edge tiles (packing
/// zero-pads, so the depth loop itself is uniform).
///
/// The accumulators are *seeded from C* rather than added to it afterwards:
/// every C element then sees a flat left-to-right addition chain in depth
/// order, so splitting k across gemm calls (or across kKC panels) produces
/// bitwise-identical results. The OOC drivers rely on this — their
/// scheduling optimizations re-slice the same multiply and are tested to not
/// change numerics at all.
///
/// On GCC/Clang the kernel is written with vector extensions — one kMR-wide
/// accumulator per B column — because the autovectorizer, left alone, picks
/// the j dimension and drowns the FMAs in shuffles. The element-wise math is
/// identical to the scalar fallback (same products, same order), so both
/// paths produce the same bits.
#if defined(__GNUC__) || defined(__clang__)
#define ROCQR_GEMM_VECTOR_KERNEL 1
typedef float vmr_t
    __attribute__((vector_size(kMR * sizeof(float)), aligned(4)));
#endif

inline void micro_kernel(index_t kb, const float* ap, const float* bp,
                         float* c, index_t ldc, index_t mv, index_t nv) {
#ifdef ROCQR_GEMM_VECTOR_KERNEL
  if (mv == kMR) {
    // Full-height tile: one vector accumulator per column, seeded from C.
    vmr_t acc[kNR];
    for (index_t j = 0; j < kNR; ++j) {
      if (j < nv) {
        __builtin_memcpy(&acc[j], c + j * ldc, sizeof(vmr_t));
      } else {
        acc[j] = vmr_t{};
      }
    }
    for (index_t l = 0; l < kb; ++l) {
      vmr_t av;
      __builtin_memcpy(&av, ap + l * kMR, sizeof(vmr_t));
      const float* bv = bp + l * kNR;
      for (index_t j = 0; j < kNR; ++j) acc[j] += av * bv[j];
    }
    for (index_t j = 0; j < nv; ++j) {
      __builtin_memcpy(c + j * ldc, &acc[j], sizeof(vmr_t));
    }
    return;
  }
#endif
  float acc[kMR * kNR] = {};
  for (index_t j = 0; j < nv; ++j) {
    const float* cj = c + j * ldc;
    for (index_t i = 0; i < mv; ++i) acc[j * kMR + i] = cj[i];
  }
  for (index_t l = 0; l < kb; ++l) {
    const float* av = ap + l * kMR;
    const float* bv = bp + l * kNR;
    for (index_t j = 0; j < kNR; ++j) {
      const float w = bv[j];
      for (index_t i = 0; i < kMR; ++i) acc[j * kMR + i] += av[i] * w;
    }
  }
  for (index_t j = 0; j < nv; ++j) {
    float* cj = c + j * ldc;
    for (index_t i = 0; i < mv; ++i) cj[i] = acc[j * kMR + i];
  }
}

/// Macro-kernel: all (kMR x kNR) tiles of one packed A block against one
/// packed B strip range [jr0, jr1). C points at the (row0, jc)-block.
inline void macro_kernel(index_t kb, index_t mb, index_t nb, const float* ap,
                         const float* bp, index_t jr0, index_t jr1, float* c,
                         index_t ldc) {
  const index_t mr_strips = a_strips(mb);
  for (index_t jr = jr0; jr < jr1; ++jr) {
    const index_t j0 = jr * kNR;
    const index_t nv = std::min<index_t>(kNR, nb - j0);
    const float* bs = bp + jr * kNR * kb;
    for (index_t ir = 0; ir < mr_strips; ++ir) {
      const index_t i0 = ir * kMR;
      const index_t mv = std::min<index_t>(kMR, mb - i0);
      micro_kernel(kb, ap + ir * kMR * kb, bs, c + i0 + j0 * ldc, ldc, mv,
                   nv);
    }
  }
}

} // namespace rocqr::blas::kernel
