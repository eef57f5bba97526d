// google-benchmark microbenchmarks of the host substrate: GEMM paths,
// triangular solve, the Gram-Schmidt family, and fp16 conversion. These
// measure the *real* kernels (not the simulator) and mostly matter for
// keeping the Real-mode test suite fast.
//
// main() also checks two same-run time ratios and exits 1 when one fails
// (a ratio is skipped when --benchmark_filter leaves out either side):
//  - BM_GemmFp16Fp32/256 over BM_GemmFp32/256 must stay <= 2.0: fp16
//    rounding on pack must cost little next to the multiply;
//  - BM_GemmBaseline/1024 over BM_GemmBlocked/1024 must stay >= 1.5: the
//    blocked kernel must keep its lead on the seed baseline.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "blas/gemm.hpp"
#include "blas/transform.hpp"
#include "blas/trsm.hpp"
#include "la/generate.hpp"
#include "qr/incore.hpp"

namespace {

using namespace rocqr;

void BM_GemmFp32(benchmark::State& state) {
  const index_t n = state.range(0);
  la::Matrix a = la::random_uniform(n, n, 1);
  la::Matrix b = la::random_uniform(n, n, 2);
  la::Matrix c(n, n);
  for (auto _ : state) {
    blas::gemm(blas::Op::NoTrans, blas::Op::NoTrans, n, n, n, 1.0f, a.data(),
               n, b.data(), n, 0.0f, c.data(), n);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * blas::gemm_flops(n, n, n));
}
BENCHMARK(BM_GemmFp32)->Arg(64)->Arg(128)->Arg(256);

void BM_GemmFp16Fp32(benchmark::State& state) {
  const index_t n = state.range(0);
  la::Matrix a = la::random_uniform(n, n, 1);
  la::Matrix b = la::random_uniform(n, n, 2);
  la::Matrix c(n, n);
  for (auto _ : state) {
    blas::gemm(blas::Op::NoTrans, blas::Op::NoTrans, n, n, n, 1.0f, a.data(),
               n, b.data(), n, 0.0f, c.data(), n,
               blas::GemmPrecision::FP16_FP32);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * blas::gemm_flops(n, n, n));
}
BENCHMARK(BM_GemmFp16Fp32)->Arg(64)->Arg(128)->Arg(256);

// Blocked kernel vs the seed pack-everything baseline at sizes where the
// packed operands no longer fit in cache. These two benchmarks are the
// committed host-kernel trajectory (BENCH_gemm_baseline.json); main() fails
// the run if the blocked kernel drops below 1.5x the baseline at 1024.
void BM_GemmBlocked(benchmark::State& state) {
  const index_t n = state.range(0);
  la::Matrix a = la::random_uniform(n, n, 1);
  la::Matrix b = la::random_uniform(n, n, 2);
  la::Matrix c(n, n);
  for (auto _ : state) {
    blas::gemm(blas::Op::NoTrans, blas::Op::NoTrans, n, n, n, 1.0f, a.data(),
               n, b.data(), n, 0.0f, c.data(), n);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * blas::gemm_flops(n, n, n));
}
BENCHMARK(BM_GemmBlocked)->Arg(1024)->Arg(2048)->Unit(benchmark::kMillisecond);

void BM_GemmBaseline(benchmark::State& state) {
  const index_t n = state.range(0);
  la::Matrix a = la::random_uniform(n, n, 1);
  la::Matrix b = la::random_uniform(n, n, 2);
  la::Matrix c(n, n);
  for (auto _ : state) {
    blas::gemm_baseline(blas::Op::NoTrans, blas::Op::NoTrans, n, n, n, 1.0f,
                        a.data(), n, b.data(), n, 0.0f, c.data(), n);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * blas::gemm_flops(n, n, n));
}
BENCHMARK(BM_GemmBaseline)->Arg(1024)->Arg(2048)->Unit(benchmark::kMillisecond);

// Steady-state gemm must run out of the thread-local pack buffers without
// allocating: one warm-up call sizes them, then the allocation counter may
// not move for the rest of the benchmark.
void BM_GemmPackSteadyState(benchmark::State& state) {
  const index_t n = 256;
  la::Matrix a = la::random_uniform(n, n, 1);
  la::Matrix b = la::random_uniform(n, n, 2);
  la::Matrix c(n, n);
  blas::gemm(blas::Op::NoTrans, blas::Op::NoTrans, n, n, n, 1.0f, a.data(), n,
             b.data(), n, 0.0f, c.data(), n);
  const std::int64_t warm = blas::gemm_pack_allocations();
  for (auto _ : state) {
    blas::gemm(blas::Op::NoTrans, blas::Op::NoTrans, n, n, n, 1.0f, a.data(),
               n, b.data(), n, 0.0f, c.data(), n);
    benchmark::DoNotOptimize(c.data());
  }
  if (blas::gemm_pack_allocations() != warm) {
    state.SkipWithError("gemm pack buffers reallocated in steady state");
  }
  state.SetItemsProcessed(state.iterations() * blas::gemm_flops(n, n, n));
}
BENCHMARK(BM_GemmPackSteadyState);

void BM_GemmTransA(benchmark::State& state) {
  const index_t n = state.range(0);
  la::Matrix a = la::random_uniform(n, n, 1);
  la::Matrix b = la::random_uniform(n, n, 2);
  la::Matrix c(n, n);
  for (auto _ : state) {
    blas::gemm(blas::Op::Trans, blas::Op::NoTrans, n, n, n, 1.0f, a.data(), n,
               b.data(), n, 0.0f, c.data(), n);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * blas::gemm_flops(n, n, n));
}
BENCHMARK(BM_GemmTransA)->Arg(128);

void BM_TrsmRightUpper(benchmark::State& state) {
  const index_t n = state.range(0);
  la::Matrix r = la::random_uniform(n, n, 3);
  for (index_t j = 0; j < n; ++j) r(j, j) += 4.0f;
  la::Matrix b0 = la::random_uniform(4 * n, n, 4);
  la::Matrix b(4 * n, n);
  for (auto _ : state) {
    blas::copy_matrix(4 * n, n, b0.data(), b0.ld(), b.data(), b.ld());
    blas::trsm_right_upper(4 * n, n, r.data(), r.ld(), b.data(), b.ld());
    benchmark::DoNotOptimize(b.data());
  }
}
BENCHMARK(BM_TrsmRightUpper)->Arg(64)->Arg(128);

template <qr::QrFactors (*Fn)(la::ConstMatrixView)>
void BM_QrVariant(benchmark::State& state) {
  const index_t n = state.range(0);
  la::Matrix a = la::random_normal(4 * n, n, 5);
  for (auto _ : state) {
    qr::QrFactors f = Fn(a.view());
    benchmark::DoNotOptimize(f.q.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * (4 * n) * n * n);
}
BENCHMARK(BM_QrVariant<qr::cgs>)->Arg(32)->Arg(64)->Name("BM_QrCgs");
BENCHMARK(BM_QrVariant<qr::mgs>)->Arg(32)->Arg(64)->Name("BM_QrMgs");
BENCHMARK(BM_QrVariant<qr::cgs2>)->Arg(32)->Arg(64)->Name("BM_QrCgs2");
BENCHMARK(BM_QrVariant<qr::cholesky_qr2>)
    ->Arg(32)
    ->Arg(64)
    ->Name("BM_QrCholeskyQr2");

void BM_QrTsqr(benchmark::State& state) {
  const index_t n = state.range(0);
  la::Matrix a = la::random_normal(4 * n, n, 8);
  for (auto _ : state) {
    qr::QrFactors f = qr::tsqr(a.view(), n);
    benchmark::DoNotOptimize(f.q.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * (4 * n) * n * n);
}
BENCHMARK(BM_QrTsqr)->Arg(32)->Arg(64);

void BM_QrRecursive(benchmark::State& state) {
  const index_t n = state.range(0);
  la::Matrix a = la::random_normal(4 * n, n, 6);
  for (auto _ : state) {
    qr::QrFactors f = qr::recursive_cgs(a.view(), 32);
    benchmark::DoNotOptimize(f.q.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * (4 * n) * n * n);
}
BENCHMARK(BM_QrRecursive)->Arg(64)->Arg(128);

void BM_HalfRoundTrip(benchmark::State& state) {
  la::Matrix a = la::random_uniform(256, 256, 7);
  for (auto _ : state) {
    blas::round_to_half(256, 256, a.data(), a.ld());
    benchmark::DoNotOptimize(a.data());
  }
  state.SetItemsProcessed(state.iterations() * 256 * 256);
}
BENCHMARK(BM_HalfRoundTrip);

/// Forwards every report to the display reporter that --benchmark_format
/// selects, and keeps the fastest per-iteration wall time of each benchmark
/// for the ratio gates.
class GateReporter : public benchmark::BenchmarkReporter {
 public:
  GateReporter() : display_(benchmark::CreateDefaultDisplayReporter()) {}

  bool ReportContext(const Context& context) override {
    return display_->ReportContext(context);
  }
  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& r : runs) {
      if (r.run_type != Run::RT_Iteration || r.iterations <= 0) continue;
      const double t =
          r.real_accumulated_time / static_cast<double>(r.iterations);
      auto [it, fresh] = seconds_.emplace(r.benchmark_name(), t);
      if (!fresh) it->second = std::min(it->second, t);
    }
    display_->ReportRuns(runs);
  }
  void Finalize() override { display_->Finalize(); }

  /// Checks time(num) / time(den) against [lo, hi]; true when it passes or
  /// when either benchmark did not run.
  bool check_ratio(const char* num, const char* den, double lo,
                   double hi) const {
    const auto n = seconds_.find(num);
    const auto d = seconds_.find(den);
    if (n == seconds_.end() || d == seconds_.end()) return true;
    const double ratio = n->second / d->second;
    const bool ok = ratio >= lo && ratio <= hi;
    std::fprintf(stderr, "gate %s: %s / %s = %.3f (allowed [%g, %g])\n",
                 ok ? "ok" : "FAILED", num, den, ratio, lo, hi);
    return ok;
  }

 private:
  std::unique_ptr<benchmark::BenchmarkReporter> display_;
  std::map<std::string, double> seconds_;
};

} // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  GateReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  const bool fp16_ok =
      reporter.check_ratio("BM_GemmFp16Fp32/256", "BM_GemmFp32/256", 0.0, 2.0);
  const bool blocked_ok = reporter.check_ratio(
      "BM_GemmBaseline/1024", "BM_GemmBlocked/1024", 1.5,
      std::numeric_limits<double>::infinity());
  return fp16_ok && blocked_ok ? 0 : 1;
}
