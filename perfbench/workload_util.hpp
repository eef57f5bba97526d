// rocqr-aware helpers shared by the workloads: the four single-device QR
// algorithms under their benchmark names, and per-algorithm roll-ups of
// simulated engine statistics into the ooc.* / qr.sim_panel.* metrics.
#pragma once

#include <algorithm>
#include <array>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "blas/gemm.hpp"
#include "ooc/movement_model.hpp"
#include "perfbench/harness.hpp"
#include "qr/factorize.hpp"
#include "sim/trace_export.hpp"

namespace perfbench {

/// The single-device algorithms every workload runs; metric suffixes are
/// their qr::to_string names.
inline constexpr std::array<rocqr::qr::Algorithm, 4> kAlgos = {
    rocqr::qr::Algorithm::Recursive, rocqr::qr::Algorithm::Blocking,
    rocqr::qr::Algorithm::Tiled, rocqr::qr::Algorithm::LeftLooking};

/// §3.2 H2D model in bytes (the model counts fp32 words); 0 where the paper
/// gives no model (tiled, left-looking) or the shape does not tile by b.
inline double model_h2d_bytes(const std::string& algo, rocqr::index_t m,
                              rocqr::index_t n, rocqr::index_t b) {
  if (n % b != 0) return 0;
  const rocqr::index_t k = n / b;
  if (algo == "blocking") return 4 * rocqr::ooc::blocking_h2d_words_sum(m, n, b);
  // The recursive model halves n down to b: k must be a power of two.
  if (algo == "recursive" && k >= 2 && (k & (k - 1)) == 0) {
    return 4 * rocqr::ooc::recursive_h2d_words_sum(m, n, b);
  }
  return 0;
}

/// Simulated-engine totals of one algorithm's factorizations in an
/// iteration.
struct AlgoTotals {
  double h2d_s = 0, d2h_s = 0, compute_s = 0, panel_s = 0;
  double makespan_s = 0, busiest_s = 0;
  double bytes_h2d = 0, bytes_d2h = 0;
  double model_bytes_h2d = 0, modeled_bytes_h2d = 0;

  void add(const rocqr::qr::QrStats& s, double model_bytes = 0) {
    h2d_s += s.h2d_seconds;
    d2h_s += s.d2h_seconds;
    compute_s += s.compute_seconds;
    panel_s += s.panel_seconds;
    makespan_s += s.total_seconds;
    busiest_s += std::max({s.h2d_seconds, s.d2h_seconds, s.compute_seconds});
    bytes_h2d += static_cast<double>(s.bytes_h2d);
    bytes_d2h += static_cast<double>(s.bytes_d2h);
    if (model_bytes > 0) {
      model_bytes_h2d += model_bytes;
      modeled_bytes_h2d += static_cast<double>(s.bytes_h2d);
    }
  }
};

/// Sets qr.sim_panel.* and ooc.{h2d_sim,d2h_sim,compute_sim,bytes_*,
/// bound_ratio,h2d_vs_model}.* from per-algorithm totals (absent = 0).
inline void set_engine_metrics(Result& res,
                               const std::map<std::string, AlgoTotals>& by) {
  constexpr double kGiB = 1024.0 * 1024.0 * 1024.0;
  for (const rocqr::qr::Algorithm a : kAlgos) {
    const std::string s = rocqr::qr::to_string(a);
    const auto it = by.find(s);
    const AlgoTotals t = it == by.end() ? AlgoTotals{} : it->second;
    res.set("qr.sim_panel." + s, t.panel_s);
    res.set("ooc.h2d_sim." + s, t.h2d_s);
    res.set("ooc.d2h_sim." + s, t.d2h_s);
    res.set("ooc.compute_sim." + s, t.compute_s);
    res.set("ooc.bytes_h2d." + s, t.bytes_h2d / kGiB);
    res.set("ooc.bytes_d2h." + s, t.bytes_d2h / kGiB);
    res.set("ooc.bound_ratio." + s,
            t.busiest_s > 0 ? t.makespan_s / t.busiest_s : 0.0);
    if (s == "recursive" || s == "blocking") {
      res.set("ooc.h2d_vs_model." + s, t.model_bytes_h2d > 0
                                           ? t.modeled_bytes_h2d / t.model_bytes_h2d
                                           : 0.0);
    }
  }
}

/// Writes one device's simulated timeline as <out_dir>/<workload>.device.json,
/// with the library's phase spans when `spans` is given (the caller cleared
/// the log just before the exported run, so span cursors index this trace).
inline void export_device_trace(
    const Args& args, const rocqr::sim::Trace& trace,
    const rocqr::telemetry::SpanLog* spans = &rocqr::telemetry::SpanLog::global()) {
  std::filesystem::create_directories(args.out_dir);
  std::ofstream os(args.out_dir + "/" + args.workload + ".device.json");
  rocqr::sim::write_chrome_trace(os, trace, spans);
}

/// Isolates one timed iteration from the previous ones: the process-global
/// registry and span log are zeroed, so counters read afterwards are this
/// iteration's and the span log does not grow without bound.
inline void reset_telemetry() {
  rocqr::telemetry::MetricsRegistry::global().reset();
  rocqr::telemetry::SpanLog::global().clear();
}

inline double counter(const char* name) {
  return static_cast<double>(
      rocqr::telemetry::MetricsRegistry::global().counter(name).value());
}

/// The measurement protocol every workload shares. kSetups set-ups (their
/// median is setup_s); then iterations until --seconds have passed, at
/// least two of them untraced (host_s is their median), so every run checks
/// a repetition against the first. Telemetry is reset before each
/// iteration. Traced runs alternate traced and untraced iterations: the
/// per-layer metrics are medians over the traced ones, and trace.overhead
/// compares the two medians within the same run. `unexercised` names the
/// per-layer metric prefixes the workload leaves at 0.
///
/// A Workload provides setup() and iteration(traced, layers), both
/// returning host seconds; operations() per iteration (factorizations or
/// jobs, the unit of the pool.* metrics); sim_makespan(); and
/// set_layer_metrics().
template <class Workload>
void measure(const Args& args, Result& res, Tracer& tracer, Workload& w,
             const std::vector<std::string>& unexercised) {
  constexpr int kSetups = 5;
  std::vector<double> setups;
  for (int i = 0; i < kSetups; ++i) setups.push_back(w.setup());

  std::vector<double> untraced, traced;
  LayerSamples layers;
  const double start = wall_s();
  for (int it = 0; wall_s() - start < args.seconds || untraced.size() < 2 ||
                   (args.trace && traced.empty());
       ++it) {
    const bool t = args.trace && it % 2 == 1;
    tracer.set_iteration(it);
    reset_telemetry();
    const std::int64_t packs0 = rocqr::blas::gemm_pack_allocations();
    const double cpu0 = cpu_s();
    const double wall0 = wall_s();
    (t ? traced : untraced).push_back(w.iteration(t, layers));
    if (t) {
      layers.add("host.cores_busy", (cpu_s() - cpu0) / (wall_s() - wall0));
      layers.add("blas.pack_allocations", static_cast<double>(
                     rocqr::blas::gemm_pack_allocations() - packs0));
      layers.add("pool.rounds", counter("pool.rounds") / w.operations());
      layers.add("pool.nested_serial_rounds",
                 counter("pool.nested_serial_rounds") / w.operations());
    }
  }
  std::cout << args.workload << ": " << untraced.size()
            << " untraced iterations, median " << median(untraced)
            << " s host, " << w.sim_makespan() << " s simulated\n";

  res.set("setup_s", median(setups));
  res.set("host_s", median(untraced));
  res.set("sim_makespan", w.sim_makespan());
  if (args.trace) {
    layers.apply(res);
    w.set_layer_metrics();
    res.set("trace.overhead", 100.0 * (median(traced) / median(untraced) - 1.0));
    res.zero_unset(unexercised);
  }
}

} // namespace perfbench
