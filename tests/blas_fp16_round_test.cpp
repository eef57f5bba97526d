// blas::round_fp16 / round_fp16_span against the reference conversion
// float(half(x)), bit for bit. The helper is compiled into rocqr_blas, so
// this checks whichever path that library was built with: F16C under the
// default -march=native build, the half fallback with
// -DROCQR_NATIVE_KERNELS=OFF.
//
// The cases below target the places a vector conversion can go wrong: NaN
// payloads, the overflow edge, the half-subnormal range, every exponent's
// round/tie patterns, and the span form's scalar tail.
//
// The exhaustive sweep over all 2^32 float inputs takes about 30 s, so it is
// not part of ctest. To run it, compile this file with
// -DROCQR_FP16_ROUND_EXHAUSTIVE against an existing build and run the result;
// from the repository root, as one command:
//   c++ -std=c++20 -O2 -DROCQR_FP16_ROUND_EXHAUSTIVE -Isrc
//       tests/blas_fp16_round_test.cpp build/src/blas/librocqr_blas.a
//       build/src/common/librocqr_common.a -lgtest -lgtest_main -pthread
//       -o fp16_exhaustive
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include "blas/fp16_round.hpp"
#include "common/half.hpp"

namespace rocqr {
namespace {

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

std::uint32_t reference_bits(float x) {
  return bits_of(static_cast<float>(half(x)));
}

/// Checks both forms on one input: the scalar, and the span form on a lone
/// element (which takes the scalar tail).
void expect_matches(float x) {
  EXPECT_EQ(bits_of(blas::round_fp16(x)), reference_bits(x))
      << std::hex << "input bits 0x" << bits_of(x);
  float out = 0.0f;
  blas::round_fp16_span(&x, &out, 1);
  EXPECT_EQ(bits_of(out), reference_bits(x))
      << std::hex << "span, input bits 0x" << bits_of(x);
}

/// Checks the span form on a whole batch (full 8-lane groups plus a tail),
/// out of place and in place.
void expect_span_matches(const std::vector<float>& xs) {
  std::vector<float> out(xs.size());
  blas::round_fp16_span(xs.data(), out.data(),
                        static_cast<index_t>(xs.size()));
  std::vector<float> in_place = xs;
  blas::round_fp16_span(in_place.data(), in_place.data(),
                        static_cast<index_t>(in_place.size()));
  for (size_t i = 0; i < xs.size(); ++i) {
    ASSERT_EQ(bits_of(out[i]), reference_bits(xs[i]))
        << std::hex << "input bits 0x" << bits_of(xs[i]);
    ASSERT_EQ(bits_of(in_place[i]), bits_of(out[i])) << "index " << i;
  }
}

TEST(Fp16Round, SignedZerosAndInfinities) {
  const float inf = std::numeric_limits<float>::infinity();
  for (float x : {0.0f, -0.0f, inf, -inf}) expect_matches(x);
  EXPECT_TRUE(std::signbit(blas::round_fp16(-0.0f)));
  EXPECT_EQ(blas::round_fp16(-inf), -inf);
}

TEST(Fp16Round, NaNsBecomeTheCanonicalQuietNaN) {
  // Quiet and signalling NaNs, payload bits high (which F16C would keep)
  // and low (which it would drop), both signs.
  const std::uint32_t payloads[] = {0x7fc00000u, 0x7fc00001u, 0x7fc12345u,
                                    0x7fffffffu, 0x7fffe000u, 0x7f800001u,
                                    0x7f801fffu, 0x7f802000u, 0x7fa00000u,
                                    0x7fbfe000u};
  std::vector<float> batch;
  for (std::uint32_t p : payloads) {
    for (std::uint32_t sign : {0u, 0x80000000u}) {
      const float x = from_bits(p | sign);
      ASSERT_TRUE(std::isnan(x));
      expect_matches(x);
      EXPECT_EQ(bits_of(blas::round_fp16(x)), sign | 0x7fc00000u);
      batch.push_back(x);
    }
  }
  expect_span_matches(batch);
}

TEST(Fp16Round, OverflowEdge) {
  // 65504 is the largest half; values below 65520 round down to it, 65520
  // (the tie) rounds to infinity.
  const float below_tie = std::nextafter(65520.0f, 0.0f);
  std::vector<float> batch;
  for (float x : {65504.0f, std::nextafter(65504.0f, 1e9f), 65519.0f,
                  below_tie, 65520.0f, std::nextafter(65520.0f, 1e9f),
                  65536.0f, std::numeric_limits<float>::max()}) {
    for (float s : {1.0f, -1.0f}) {
      expect_matches(s * x);
      batch.push_back(s * x);
    }
  }
  EXPECT_EQ(blas::round_fp16(below_tie), 65504.0f);
  EXPECT_EQ(blas::round_fp16(-65520.0f),
            -std::numeric_limits<float>::infinity());
  expect_span_matches(batch);
}

TEST(Fp16Round, HalfSubnormalRange) {
  // Half subnormals are h * 2^-24, h in [1, 1023]. Around every value and
  // every tie between neighbours (h + 0.5) * 2^-24, check a few float ulps
  // either side; the top ties carry into the smallest normal 2^-14.
  std::vector<float> batch;
  const float unit = std::ldexp(1.0f, -24);
  for (int h = 0; h <= 1024; ++h) {
    for (float base : {h * unit, (h + 0.5f) * unit}) {
      float lo = base;
      float hi = base;
      for (int step = 0; step < 3; ++step) {
        lo = std::nextafter(lo, 0.0f);
        hi = std::nextafter(hi, 1.0f);
      }
      for (float x = lo; x <= hi; x = std::nextafter(x, 1.0f)) {
        batch.push_back(x);
        batch.push_back(-x);
      }
    }
  }
  // Below half the smallest subnormal everything rounds to a signed zero.
  for (int e = -40; e <= -25; ++e) {
    batch.push_back(std::ldexp(1.0f, e));
    batch.push_back(-std::ldexp(1.0f, e));
    batch.push_back(std::ldexp(1.5f, e));
  }
  batch.push_back(std::numeric_limits<float>::denorm_min());
  batch.push_back(std::numeric_limits<float>::min());
  for (float x : batch) expect_matches(x);
  expect_span_matches(batch);
  EXPECT_EQ(blas::round_fp16(1023.5f * unit), std::ldexp(1.0f, -14));
  EXPECT_EQ(blas::round_fp16(0.5f * unit), 0.0f); // tie to even zero
  EXPECT_EQ(blas::round_fp16(1.5f * unit), 2.0f * unit);
}

TEST(Fp16Round, EveryExponentRoundPatterns) {
  // The low 13 mantissa bits decide the rounding: zero, just above zero,
  // just below the tie, the tie, just above it, all ones. High-mantissa
  // values vary the kept bits' parity and force carries (0x3ff).
  const std::uint32_t low[] = {0x0u, 0x1u, 0xfffu, 0x1000u, 0x1001u, 0x1fffu};
  const std::uint32_t high[] = {0x000u, 0x001u, 0x155u, 0x200u, 0x2aau,
                                0x3feu, 0x3ffu};
  std::vector<float> batch;
  for (std::uint32_t sign : {0u, 0x80000000u}) {
    for (std::uint32_t e = 0; e < 256; ++e) {
      for (std::uint32_t hi : high) {
        for (std::uint32_t lo : low) {
          batch.push_back(from_bits(sign | (e << 23) | (hi << 13) | lo));
        }
      }
    }
  }
  for (float x : batch) expect_matches(x);
  expect_span_matches(batch);
}

TEST(Fp16Round, RandomBitPatterns) {
  std::vector<float> batch(1 << 16);
  std::uint64_t state = 0x9e3779b97f4a7c15ull;
  for (float& x : batch) {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    x = from_bits(static_cast<std::uint32_t>(state >> 16));
  }
  expect_span_matches(batch);
}

TEST(Fp16Round, SpanLengthsAndOffsetsCoverTheTail) {
  // Every length 0..17 at start offsets 0..7: full 8-lane groups, the scalar
  // tail, and unaligned loads. Elements outside [0, n) stay untouched.
  std::vector<float> src(32);
  for (size_t i = 0; i < src.size(); ++i) {
    src[i] = 1.0f + static_cast<float>(i) * 0x1.0p-12f + 0x1.8p-13f;
  }
  const float sentinel = -7.0f;
  for (index_t off = 0; off < 8; ++off) {
    for (index_t n = 0; n <= 17; ++n) {
      std::vector<float> dst(src.size(), sentinel);
      blas::round_fp16_span(src.data() + off, dst.data() + off, n);
      std::vector<float> in_place = src;
      blas::round_fp16_span(in_place.data() + off, in_place.data() + off, n);
      for (index_t i = 0; i < static_cast<index_t>(src.size()); ++i) {
        const size_t u = static_cast<size_t>(i);
        const bool live = i >= off && i < off + n;
        const float want = live ? static_cast<float>(half(src[u])) : sentinel;
        EXPECT_EQ(bits_of(dst[u]), bits_of(want))
            << "off=" << off << " n=" << n << " i=" << i;
        EXPECT_EQ(bits_of(in_place[u]), bits_of(live ? want : src[u]))
            << "in place off=" << off << " n=" << n << " i=" << i;
      }
    }
  }
}

TEST(Fp16Round, NegativeLengthIsANoOp) {
  float x = 1.0f + 0x1.0p-20f;
  blas::round_fp16_span(&x, &x, -3);
  EXPECT_EQ(x, 1.0f + 0x1.0p-20f);
}

#ifdef ROCQR_FP16_ROUND_EXHAUSTIVE
TEST(Fp16Round, ExhaustiveAllFloats) {
  constexpr std::uint64_t kChunk = 1 << 16;
  std::vector<float> in(kChunk);
  std::vector<float> out(kChunk);
  std::uint64_t mismatches = 0;
  for (std::uint64_t base = 0; base < (1ull << 32); base += kChunk) {
    for (std::uint64_t i = 0; i < kChunk; ++i) {
      in[i] = from_bits(static_cast<std::uint32_t>(base + i));
    }
    blas::round_fp16_span(in.data(), out.data(), kChunk);
    for (std::uint64_t i = 0; i < kChunk; ++i) {
      const std::uint32_t want = reference_bits(in[i]);
      if (bits_of(out[i]) != want || bits_of(blas::round_fp16(in[i])) != want) {
        if (++mismatches <= 10) {
          ADD_FAILURE() << std::hex << "input bits 0x" << bits_of(in[i]);
        }
      }
    }
  }
  EXPECT_EQ(mismatches, 0u);
}
#endif

} // namespace
} // namespace rocqr
