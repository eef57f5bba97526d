#include "blas/gemm.hpp"

#include <algorithm>
#include <atomic>
#include <vector>

#include "blas/fp16_round.hpp"
#include "blas/gemm_kernel.hpp"
#include "common/error.hpp"
#include "common/telemetry.hpp"

namespace rocqr::blas {

namespace {

void validate(Op opa, Op opb, index_t m, index_t n, index_t k, const float* a,
              index_t lda, const float* b, index_t ldb, const float* c,
              index_t ldc) {
  ROCQR_CHECK(m >= 0 && n >= 0 && k >= 0, "gemm: negative dimension");
  const index_t a_rows = opa == Op::NoTrans ? m : k;
  const index_t b_rows = opb == Op::NoTrans ? k : n;
  ROCQR_CHECK(lda >= (a_rows > 0 ? a_rows : 1), "gemm: lda too small");
  ROCQR_CHECK(ldb >= (b_rows > 0 ? b_rows : 1), "gemm: ldb too small");
  ROCQR_CHECK(ldc >= (m > 0 ? m : 1), "gemm: ldc too small");
  if (m > 0 && n > 0) {
    ROCQR_CHECK(c != nullptr, "gemm: null C");
    if (k > 0) {
      ROCQR_CHECK(a != nullptr && b != nullptr, "gemm: null A or B");
    }
  }
}

/// Packs op(X) (rows x cols after the op) into a dense column-major buffer —
/// the baseline kernel's whole-operand pack — then rounds it through fp16 on
/// the TensorCore path.
void pack_whole(Op op, index_t rows, index_t cols, const float* x, index_t ldx,
                GemmPrecision precision, float* out) {
  if (op == Op::NoTrans) {
    for (index_t j = 0; j < cols; ++j) {
      for (index_t i = 0; i < rows; ++i) out[i + j * rows] = x[i + j * ldx];
    }
  } else {
    for (index_t j = 0; j < cols; ++j) {
      for (index_t i = 0; i < rows; ++i) out[i + j * rows] = x[j + i * ldx];
    }
  }
  if (precision == GemmPrecision::FP16_FP32) {
    round_fp16_span(out, out, rows * cols);
  }
}

/// Scales C by beta over the pool — shared prologue of both kernels.
void scale_c(ThreadPool& tp, index_t m, index_t n, float beta, float* c,
             index_t ldc) {
  if (beta == 1.0f) return;
  tp.parallel_for(n, [&](index_t j0, index_t j1) {
    for (index_t j = j0; j < j1; ++j) {
      float* col = c + j * ldc;
      if (beta == 0.0f) {
        for (index_t i = 0; i < m; ++i) col[i] = 0.0f;
      } else {
        for (index_t i = 0; i < m; ++i) col[i] *= beta;
      }
    }
  });
}

std::atomic<std::int64_t> g_pack_allocations{0};

/// Thread-local pack scratch, grown monotonically and reused across calls.
/// Workers live as long as the pool, so in steady state no gemm call
/// allocates; every growth event is counted for the bench assertion.
float* ensure_pack_capacity(std::vector<float>& buf, size_t need) {
  if (buf.size() < need) {
    g_pack_allocations.fetch_add(1, std::memory_order_relaxed);
    auto& reg = telemetry::MetricsRegistry::global();
    reg.counter("blas.pack_allocations").increment();
    reg.histogram("blas.pack_bytes")
        .observe(static_cast<std::int64_t>(need) * 4);
    buf.resize(need);
  }
  return buf.data();
}

thread_local std::vector<float> tl_pack_a;
thread_local std::vector<float> tl_pack_b;

} // namespace

std::int64_t gemm_pack_allocations() {
  return g_pack_allocations.load(std::memory_order_relaxed);
}

void gemm(Op opa, Op opb, index_t m, index_t n, index_t k, float alpha,
          const float* a, index_t lda, const float* b, index_t ldb, float beta,
          float* c, index_t ldc, GemmPrecision precision, ThreadPool* pool) {
  namespace kn = kernel;
  validate(opa, opb, m, n, k, a, lda, b, ldb, c, ldc);
  if (m == 0 || n == 0) return;

  ThreadPool& tp = pool != nullptr ? *pool : ThreadPool::global();
  scale_c(tp, m, n, beta, c, ldc);
  if (alpha == 0.0f || k == 0) return;

  for (index_t jc = 0; jc < n; jc += kn::kNC) {
    const index_t nb = std::min<index_t>(kn::kNC, n - jc);
    const index_t jr_strips = kn::b_strips(nb);
    for (index_t pc = 0; pc < k; pc += kn::kKC) {
      const index_t kb = std::min<index_t>(kn::kKC, k - pc);
      // The submitting thread packs the B panel once; every A block of this
      // (jc, pc) round reads it, so it stays hot in the outer cache.
      float* bp = ensure_pack_capacity(tl_pack_b, kn::packed_b_size(kb, nb));
      kn::pack_b(opb, precision, alpha, b, ldb, pc, jc, kb, nb, bp);

      const index_t ic_blocks = (m + kn::kMC - 1) / kn::kMC;
      tp.parallel_for_2d(
          ic_blocks, jr_strips,
          [&](index_t i0, index_t i1, index_t jr0, index_t jr1) {
            for (index_t ic = i0; ic < i1; ++ic) {
              const index_t row0 = ic * kn::kMC;
              const index_t mb = std::min<index_t>(kn::kMC, m - row0);
              // Per-thread A pack: threads sharing an A block along the j
              // split re-pack it rather than synchronize — pack cost is
              // O(mb*kb) against O(mb*kb*nb) of multiply work.
              float* ap = ensure_pack_capacity(tl_pack_a,
                                               kn::packed_a_size(mb, kb));
              kn::pack_a(opa, precision, a, lda, row0, pc, mb, kb, ap);
              kn::macro_kernel(kb, mb, nb, ap, bp, jr0, jr1,
                               c + row0 + jc * ldc, ldc);
            }
          });
    }
  }
}

void gemm_baseline(Op opa, Op opb, index_t m, index_t n, index_t k,
                   float alpha, const float* a, index_t lda, const float* b,
                   index_t ldb, float beta, float* c, index_t ldc,
                   GemmPrecision precision, ThreadPool* pool) {
  validate(opa, opb, m, n, k, a, lda, b, ldb, c, ldc);
  if (m == 0 || n == 0) return;

  ThreadPool& tp = pool != nullptr ? *pool : ThreadPool::global();
  scale_c(tp, m, n, beta, c, ldc);
  if (alpha == 0.0f || k == 0) return;

  // Pack both operands once. This removes every transpose/precision branch
  // from the multiply loop but costs O(m*k + k*n) fresh scratch per call and
  // streams the whole packed A once per column of C.
  std::vector<float> ap(static_cast<size_t>(m) * static_cast<size_t>(k));
  std::vector<float> bp(static_cast<size_t>(k) * static_cast<size_t>(n));
  pack_whole(opa, m, k, a, lda, precision, ap.data());
  pack_whole(opb, k, n, b, ldb, precision, bp.data());

  tp.parallel_for(n, [&](index_t j0, index_t j1) {
    for (index_t j = j0; j < j1; ++j) {
      float* cj = c + j * ldc;
      const float* bj = bp.data() + j * k;
      for (index_t l = 0; l < k; ++l) {
        const float w = alpha * bj[l]; // fp32 scaling, as cublas does
        if (w == 0.0f) continue;
        const float* al = ap.data() + l * m;
        for (index_t i = 0; i < m; ++i) cj[i] += w * al[i];
      }
    }
  });
}

void gemm_reference(Op opa, Op opb, index_t m, index_t n, index_t k,
                    float alpha, const float* a, index_t lda, const float* b,
                    index_t ldb, float beta, float* c, index_t ldc,
                    GemmPrecision precision) {
  validate(opa, opb, m, n, k, a, lda, b, ldb, c, ldc);
  const bool fp16 = precision == GemmPrecision::FP16_FP32;
  const auto load = [fp16](const float* p) {
    return fp16 ? round_fp16(*p) : *p;
  };
  const auto load_a = [&](index_t i, index_t l) {
    return load(kernel::op_element(opa, a, lda, i, l));
  };
  const auto load_b = [&](index_t l, index_t j) {
    return load(kernel::op_element(opb, b, ldb, l, j));
  };
  for (index_t j = 0; j < n; ++j) {
    for (index_t i = 0; i < m; ++i) {
      // Double accumulation: the reference serves as ground truth in tests,
      // so it should be strictly more accurate than the production kernel.
      double acc = 0.0;
      for (index_t l = 0; l < k; ++l) {
        acc += static_cast<double>(load_a(i, l)) *
               static_cast<double>(load_b(l, j));
      }
      const double prior =
          beta == 0.0f
              ? 0.0
              : static_cast<double>(beta) * static_cast<double>(c[i + j * ldc]);
      c[i + j * ldc] =
          static_cast<float>(static_cast<double>(alpha) * acc + prior);
    }
  }
}

} // namespace rocqr::blas
