// Layer probes of the traced run: each layer driven alone through its public
// entry point at a fixed shape, so a per-layer number does not depend on
// which workload ran before it.
#include <iostream>
#include <vector>

#include "bench/bench_util.hpp"
#include "blas/gemm.hpp"
#include "la/generate.hpp"
#include "ooc/gemm_engines.hpp"
#include "ooc/task_graph.hpp"
#include "perfbench/harness.hpp"
#include "qr/panel.hpp"
#include "report/paper.hpp"

namespace perfbench {
namespace {

using namespace rocqr;

// real_qr's first-panel update shapes: R12 = Q1ᵀ·A2 (inner) and
// A2 -= Q1·R12 (outer) with m = 4096, b = 128 and n - b = 896.
constexpr index_t kM = 4096;
constexpr index_t kB = 128;
constexpr index_t kRest = 896;

// The synthetic TaskGraph: kTiles tiles of kTile x kTile.
constexpr int kTiles = 1000;
constexpr index_t kTile = 1024;

/// Median host seconds of `f` over repetitions filling about `budget_s`
/// (at least three).
template <class F>
double time_median(double budget_s, F f) {
  std::vector<double> t;
  const double start = wall_s();
  while (t.size() < 3 || wall_s() - start < budget_s) {
    const double t0 = wall_s();
    f();
    t.push_back(wall_s() - t0);
  }
  return median(t);
}

void probe_gemm(Result& res, Tracer& tracer) {
  ScopedSpan span(tracer, "probe blas::gemm", "blas");
  const la::Matrix q = la::random_normal(kM, kB, 11);
  const la::Matrix a2 = la::random_normal(kM, kRest, 12);
  la::Matrix r12(kB, kRest);
  la::Matrix c = la::materialize(a2.view());
  const double flops = 2.0 * 2.0 * kM * kB * kRest;
  double seconds[2] = {0, 0};
  int i = 0;
  for (const blas::GemmPrecision p :
       {blas::GemmPrecision::FP16_FP32, blas::GemmPrecision::FP32}) {
    seconds[i++] = time_median(0.3, [&] {
      blas::gemm(blas::Op::Trans, blas::Op::NoTrans, kB, kRest, kM, 1.0f,
                 q.data(), q.ld(), a2.data(), a2.ld(), 0.0f, r12.data(),
                 r12.ld(), p);
      blas::gemm(blas::Op::NoTrans, blas::Op::NoTrans, kM, kRest, kB, -1.0f,
                 q.data(), q.ld(), r12.data(), r12.ld(), 1.0f, c.data(),
                 c.ld(), p);
    });
  }
  res.set("blas.gemm_fp16_gflops", flops / seconds[0] * 1e-9);
  res.set("blas.gemm_fp32_gflops", flops / seconds[1] * 1e-9);
  res.set("blas.fp16_over_fp32", seconds[0] / seconds[1]);
}

void probe_panel(Result& res, Tracer& tracer) {
  ScopedSpan span(tracer, "probe qr::panel_qr_device", "qr");
  sim::DeviceSpec spec = sim::DeviceSpec::v100_32gb();
  spec.memory_capacity = 16LL << 20;
  sim::Device dev(spec, sim::ExecutionMode::Real);
  const la::Matrix panel = la::random_normal(kM, kB, 13);
  sim::DeviceMatrix aq = dev.allocate(kM, kB);
  sim::DeviceMatrix r = dev.allocate(kB, kB);
  const sim::Stream s = dev.create_stream();
  for (const blas::GemmPrecision p :
       {blas::GemmPrecision::FP16_FP32, blas::GemmPrecision::FP32}) {
    qr::QrOptions opts;
    opts.blocksize = kB;
    opts.panel_base = 16;
    opts.precision = p;
    std::vector<double> t;
    for (int rep = 0; rep < 5; ++rep) {
      dev.copy_h2d(aq, panel.view(), s);
      dev.synchronize();
      const double t0 = wall_s();
      qr::panel_qr_device(dev, aq, r, s, opts);
      dev.synchronize();
      t.push_back(wall_s() - t0);
    }
    res.set(p == blas::GemmPrecision::FP32 ? "qr.panel_host_s.fp32"
                                           : "qr.panel_host_s.fp16",
            median(t));
  }
  dev.free(aq);
  dev.free(r);
}

/// A synthetic three-stage pipeline through the public TaskGraph API:
/// per tile a move-in, a GEMM and a move-out, double-buffered (each move-in
/// waits the GEMM two tiles back).
void probe_task_graph(Result& res, Tracer& tracer) {
  ScopedSpan span(tracer, "probe ooc::TaskGraph", "task_graph");
  double per_node = time_median(0.3, [&] {
    sim::Device dev = bench::paper_device();
    sim::DeviceMatrix in[2] = {dev.allocate(kTile, kTile),
                               dev.allocate(kTile, kTile)};
    sim::DeviceMatrix out = dev.allocate(kTile, kTile);
    {
      ooc::TaskGraph g(dev, ooc::OocGemmOptions{});
      std::vector<ooc::TaskId> computes;
      for (int t = 0; t < kTiles; ++t) {
        const sim::DeviceMatrix& buf = in[t % 2];
        std::vector<ooc::TaskId> war;
        if (t >= 2) war.push_back(computes[static_cast<size_t>(t - 2)]);
        const ooc::TaskId mi = g.add(
            ooc::TaskStage::MoveIn, "in",
            [&buf](ooc::TaskCtx& c) {
              c.h2d(buf, sim::HostConstRef::phantom(kTile, kTile), "in");
            },
            war);
        const ooc::TaskId cp = g.add(
            ooc::TaskStage::Compute, "gemm",
            [&buf, &out](ooc::TaskCtx& c) {
              c.gemm(blas::Op::NoTrans, blas::Op::NoTrans, 1.0f, buf, buf,
                     1.0f, out, "gemm");
            },
            {mi});
        computes.push_back(cp);
        g.add(
            ooc::TaskStage::MoveOut, "out",
            [&out](ooc::TaskCtx& c) {
              c.d2h(sim::HostMutRef::phantom(kTile, kTile), out, "out");
            },
            {cp});
      }
      g.run();
    }
    dev.free(in[0]);
    dev.free(in[1]);
    dev.free(out);
  });
  res.set("taskgraph.host_ns_per_node", per_node * 1e9 / (3.0 * kTiles));
}

/// Table 1/2 of the paper: the recursive inner- and outer-product engine
/// calls on the calibrated V100, asynchronous, exactly as
/// bench/table1_inner_product and bench/table2_outer_product run them.
void probe_engines(Result& res, Tracer& tracer) {
  ScopedSpan span(tracer, "probe ooc engines", "ooc");
  double inner = 0, outer = 0;
  {
    sim::Device dev = bench::paper_device();
    ooc::OocGemmOptions opts;
    opts.blocksize = 16384;
    ooc::inner_product_recursive(
        dev, ooc::Operand::on_host(sim::HostConstRef::phantom(131072, 65536)),
        ooc::Operand::on_host(sim::HostConstRef::phantom(131072, 65536)),
        sim::HostMutRef::phantom(65536, 65536), opts);
    dev.synchronize();
    inner = dev.makespan();
  }
  {
    sim::Device dev = bench::paper_device();
    sim::DeviceMatrix b = dev.allocate(65536, 65536, sim::StoragePrecision::FP16);
    ooc::OocGemmOptions opts;
    opts.blocksize = 8192;
    ooc::outer_product_recursive(
        dev, ooc::Operand::on_host(sim::HostConstRef::phantom(131072, 65536)),
        ooc::Operand::on_device(b), sim::HostConstRef::phantom(131072, 65536),
        sim::HostMutRef::phantom(131072, 65536), opts);
    dev.synchronize();
    outer = dev.makespan();
    dev.free(b);
  }
  namespace paper = report::paper;
  std::cout << "ooc engines: inner product " << inner << " s (paper "
            << paper::InnerProduct::recursive_async_s << " s), outer product "
            << outer << " s (paper " << paper::OuterProduct::recursive_async_s
            << " s)\n";
  res.set("ooc.inner_recursive_sim", inner);
  res.set("ooc.outer_recursive_sim", outer);
}

} // namespace

void run_layer_probes(Result& res, Tracer& tracer) {
  tracer.set_iteration(-1);
  probe_gemm(res, tracer);
  probe_panel(res, tracer);
  probe_task_graph(res, tracer);
  probe_engines(res, tracer);
}

} // namespace perfbench
