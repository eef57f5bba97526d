// real_fp16 / real_fp32: Real-mode out-of-core QR of a seeded Gaussian
// 4096x1024 matrix (kappa ~ 3, 16 MiB) on a 16 MiB miniature device,
// b = 128. One iteration factors it with recursive, blocking, tiled and
// left-looking QR at the workload's GEMM precision. These are the
// workloads where the host numerics do the work (blas packing and fp16
// rounding, the panel CGS, the ThreadPool); each factorization has only a
// few hundred simulated ops. The two precisions are separate workloads so
// a change that speeds one at the other's cost shows on the other.
#include <cmath>
#include <map>
#include <random>
#include <vector>

#include "blas/gemm.hpp"
#include "la/generate.hpp"
#include "la/norms.hpp"
#include "perfbench/workload_util.hpp"
#include "sim/device.hpp"

namespace perfbench {
namespace {

using namespace rocqr;

constexpr index_t kM = 4096;
constexpr index_t kN = 1024;
constexpr index_t kB = 128;
/// Columns sampled by the residual and orthogonality probes.
constexpr int kProbeCols = 8;

/// Accuracy limits: about ten times what each precision reaches on this
/// matrix (residual ~1e-4 fp16 / ~5e-7 fp32, orthogonality ~7e-3 / ~2.5e-5),
/// so a numerical regression fails the run.
double resid_limit(blas::GemmPrecision p) {
  return p == blas::GemmPrecision::FP32 ? 5e-6 : 1e-3;
}
double orth_limit(blas::GemmPrecision p) {
  return p == blas::GemmPrecision::FP32 ? 2.5e-4 : 7e-2;
}

/// The miniature device of examples/ooc_qr_demo.cpp with 16 MiB of memory:
/// link, compute and efficiency knobs scaled so that movement threatens to
/// dominate as it does at the paper's scale.
sim::DeviceSpec mini_spec() {
  sim::DeviceSpec spec = sim::DeviceSpec::v100_32gb();
  spec.memory_capacity = 16LL << 20;
  spec.h2d_bytes_per_s = 1e9;
  spec.d2h_bytes_per_s = 1e9;
  spec.d2d_bytes_per_s = 64e9;
  spec.tc_peak_flops = 4e12;
  spec.fp32_peak_flops = 0.5e12;
  spec.gemm_dim_halfpoint = 48;
  spec.panel_halfpoint = 500;
  return spec;
}

qr::QrOptions options(qr::Algorithm algo, blas::GemmPrecision precision) {
  qr::QrOptions opts;
  opts.blocksize = kB;
  opts.panel_base = 16;
  opts.precision = precision;
  // The conventional blocking baseline has no §4.1.2 staging buffer.
  if (algo == qr::Algorithm::Blocking) opts.staging_buffer = false;
  return opts;
}

/// ‖(A − QR)_J‖_F / ‖A_J‖_F over the sampled columns J, in double:
/// O(m·n·|J|) instead of the full residual's O(m·n²).
double sampled_residual(const la::Matrix& a, const la::Matrix& q,
                        const la::Matrix& r, const std::vector<index_t>& cols) {
  double num = 0, den = 0;
  std::vector<double> acc(static_cast<size_t>(kM));
  for (const index_t j : cols) {
    for (index_t i = 0; i < kM; ++i) acc[static_cast<size_t>(i)] = a(i, j);
    for (index_t l = 0; l <= j; ++l) {
      const double rl = r(l, j);
      for (index_t i = 0; i < kM; ++i) {
        acc[static_cast<size_t>(i)] -= static_cast<double>(q(i, l)) * rl;
      }
    }
    for (index_t i = 0; i < kM; ++i) {
      const double aij = a(i, j);
      num += acc[static_cast<size_t>(i)] * acc[static_cast<size_t>(i)];
      den += aij * aij;
    }
  }
  return std::sqrt(num / den);
}

/// Estimate of ‖QᵀQ − I‖_F (la::orthogonality_error) from the sampled
/// columns J of QᵀQ − I, scaled by n/|J|.
double sampled_orthogonality(const la::Matrix& q,
                             const std::vector<index_t>& cols) {
  double acc = 0;
  for (const index_t j : cols) {
    for (index_t i = 0; i < kN; ++i) {
      double dot = 0;
      for (index_t l = 0; l < kM; ++l) {
        dot += static_cast<double>(q(l, i)) * static_cast<double>(q(l, j));
      }
      const double d = dot - (i == j ? 1.0 : 0.0);
      acc += d * d;
    }
  }
  return std::sqrt(acc * static_cast<double>(kN) / static_cast<double>(cols.size()));
}

struct Factorization {
  double host_s = 0;
  qr::QrStats stats;
};

class RealQr {
 public:
  RealQr(const Args& args, Result& res, Tracer& tracer,
         blas::GemmPrecision precision)
      : args_(args), res_(res), tracer_(tracer), precision_(precision) {}

  /// Matrix generation plus a warm-up factorization; returns its seconds.
  double setup() {
    const double t0 = wall_s();
    a_ = la::random_normal(kM, kN, args_.seed);
    q_ = la::Matrix(kM, kN);
    r_ = la::Matrix(kN, kN);
    std::mt19937_64 rng(args_.seed);
    cols_.clear();
    for (int i = 0; i < kProbeCols; ++i) {
      cols_.push_back(static_cast<index_t>(rng() % static_cast<std::uint64_t>(kN)));
    }
    factor(kAlgos[0], false);
    return wall_s() - t0;
  }

  /// One rotation over the four algorithms. Returns host seconds spent
  /// inside qr::factorize.
  double iteration(bool traced, LayerSamples& layers) {
    std::map<std::string, AlgoTotals> totals;
    double host = 0, events = 0;
    sim_makespan_ = 0;
    for (const qr::Algorithm algo : kAlgos) {
      const std::string name = qr::to_string(algo);
      const bool exported =
          traced && !exported_ && algo == qr::Algorithm::Recursive;
      const Factorization f = factor(algo, exported);
      exported_ = exported_ || exported;
      host += f.host_s;
      sim_makespan_ += f.stats.total_seconds;
      events += f.stats.events;
      totals[name].add(f.stats, model_h2d_bytes(name, kM, kN, kB));
      if (traced) layers.add("qr.host_s." + name, f.host_s);
    }
    if (traced) {
      layers.add("sim.events", events);
      layers.add("sim.host_ns_per_event", host * 1e9 / events);
      engine_ = totals;
    }
    return host;
  }

  static double operations() { return static_cast<double>(kAlgos.size()); }
  double sim_makespan() const { return sim_makespan_; }

  void set_layer_metrics() {
    for (const qr::Algorithm algo : kAlgos) {
      const std::string name = qr::to_string(algo);
      res_.set("qr.resid." + name, worst_resid_[name]);
      res_.set("qr.orth." + name, worst_orth_[name]);
    }
    set_engine_metrics(res_, engine_);
  }

 private:
  Factorization factor(qr::Algorithm algo, bool exported) {
    std::copy(a_.data(), a_.data() + kM * kN, q_.data());
    std::fill(r_.data(), r_.data() + kN * kN, 0.0f);
    sim::Device dev(mini_spec(), sim::ExecutionMode::Real);
    if (exported) telemetry::SpanLog::global().clear();
    Factorization f;
    {
      ScopedSpan span(tracer_, std::string("qr::factorize ") + qr::to_string(algo),
                      "qr");
      const double t0 = wall_s();
      f.stats = qr::factorize(qr::QrProblem{{&dev}, q_.view(), r_.view(), algo,
                                            options(algo, precision_)});
      f.host_s = wall_s() - t0;
    }
    if (exported) export_device_trace(args_, dev.trace());
    verify(algo);
    return f;
  }

  /// Cheap, strict output checks: sampled residual and orthogonality under
  /// the precision's limit, R upper triangular, and R bit-identical to
  /// every earlier factorization of this seed with the same algorithm.
  void verify(qr::Algorithm algo) {
    ScopedSpan span(tracer_, "verify", "la");
    const std::string tag = qr::to_string(algo);
    const double resid = sampled_residual(a_, q_, r_, cols_);
    const double orth = sampled_orthogonality(q_, cols_);
    res_.check(resid <= resid_limit(precision_),
               tag + ": sampled residual " + std::to_string(resid));
    res_.check(orth <= orth_limit(precision_),
               tag + ": sampled orthogonality " + std::to_string(orth));
    res_.check(la::is_upper_triangular(r_.view()), tag + ": R is not upper triangular");
    worst_resid_[tag] = std::max(worst_resid_[tag], resid);
    worst_orth_[tag] = std::max(worst_orth_[tag], orth);
    const std::uint64_t h =
        fnv1a(r_.data(), static_cast<size_t>(kN * kN) * sizeof(float));
    const auto [it, first] = r_hash_.emplace(tag, h);
    res_.check(first || it->second == h, tag + ": R differs across repetitions");
  }

  const Args& args_;
  Result& res_;
  Tracer& tracer_;
  const blas::GemmPrecision precision_;
  la::Matrix a_, q_, r_;
  std::vector<index_t> cols_;
  std::map<std::string, std::uint64_t> r_hash_;
  std::map<std::string, double> worst_resid_, worst_orth_;
  std::map<std::string, AlgoTotals> engine_;
  double sim_makespan_ = 0;
  bool exported_ = false;
};

} // namespace

void run_real_qr(const Args& args, Result& res, Tracer& tracer, bool fp16) {
  RealQr w(args, res, tracer,
           fp16 ? blas::GemmPrecision::FP16_FP32 : blas::GemmPrecision::FP32);
  measure(args, res, tracer, w, {"serve."});
}

} // namespace perfbench
