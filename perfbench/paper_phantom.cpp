// paper_phantom: a Phantom-mode sweep on the calibrated V100 — the paper's
// headline (131072² recursive vs blocking at b = 16384 / 32 GiB and at
// b = 8192 / 16 GiB), left-looking at the headline shape, the committed
// tiled and TSQR configurations, and the four single-device algorithms at
// b = 1024, where tens of thousands of simulated events per factorization
// make the simulator's own host cost (sim, ooc engines, task_graph) the
// load. No numerics and no scheduler run here.
#include <iostream>
#include <stdexcept>
#include <utility>
#include <map>
#include <memory>
#include <vector>

#include "bench/bench_util.hpp"
#include "common/strings.hpp"
#include "perfbench/workload_util.hpp"
#include "report/paper.hpp"

namespace perfbench {
namespace {

using namespace rocqr;

constexpr bytes_t k16GiB = 16LL << 30;

struct Config {
  const char* name;
  qr::Algorithm algorithm;
  index_t m, n, b;
  bytes_t capacity = 0; ///< 0 = the V100's 32 GiB
  int devices = 1;
};

const Config kSweep[] = {
    {"recursive_32g", qr::Algorithm::Recursive, 131072, 131072, 16384},
    {"blocking_32g", qr::Algorithm::Blocking, 131072, 131072, 16384},
    {"left_32g", qr::Algorithm::LeftLooking, 131072, 131072, 16384},
    {"recursive_16g", qr::Algorithm::Recursive, 131072, 131072, 8192, k16GiB},
    {"blocking_16g", qr::Algorithm::Blocking, 131072, 131072, 8192, k16GiB},
    // BENCH_tiled_qr.json's last point and BENCH_tsqr.json's 4-GPU point.
    {"tiled_committed", qr::Algorithm::Tiled, 131072, 32768, 8192},
    {"tsqr_committed", qr::Algorithm::Tsqr, 262144, 8192, 8192, 0, 4},
    {"recursive_b1024", qr::Algorithm::Recursive, 131072, 131072, 1024},
    {"blocking_b1024", qr::Algorithm::Blocking, 131072, 131072, 1024},
    {"tiled_b1024", qr::Algorithm::Tiled, 131072, 131072, 1024},
    {"left_b1024", qr::Algorithm::LeftLooking, 131072, 131072, 1024},
};

/// The options the committed benches use for each algorithm.
qr::QrOptions options(const Config& c) {
  if (c.algorithm == qr::Algorithm::Blocking) return bench::blocking_baseline(c.b);
  if (c.algorithm == qr::Algorithm::Tsqr) {
    qr::QrOptions opts;
    opts.blocksize = c.b;
    return opts;
  }
  return bench::recursive_options(c.b);
}

struct Run {
  double host_s = 0;
  qr::QrStats stats;
};

class PaperPhantom {
 public:
  PaperPhantom(const Args& args, Result& res, Tracer& tracer)
      : args_(args), res_(res), tracer_(tracer) {}

  /// Device build plus a warm-up sweep; returns its seconds. The first
  /// setup's sweep is the reference every later sweep must repeat exactly.
  double setup() {
    const double t0 = wall_s();
    std::vector<Run> runs;
    for (const Config& c : kSweep) runs.push_back(run_config(c, false));
    const double seconds = wall_s() - t0;
    if (reference_.empty()) {
      reference_ = runs;
      check_committed();
      print_speedups();
    } else {
      check_repeats(runs);
    }
    return seconds;
  }

  /// One sweep; returns host seconds spent inside qr::factorize.
  double iteration(bool traced, LayerSamples& layers) {
    std::vector<Run> runs;
    for (const Config& c : kSweep) {
      const bool exported = traced && !exported_ && &c == &kSweep[0];
      runs.push_back(run_config(c, exported));
      exported_ = exported_ || exported;
    }
    check_repeats(runs);
    double host = 0, events = 0;
    std::map<std::string, AlgoTotals> totals;
    std::map<std::string, double> host_by_algo;
    for (size_t i = 0; i < runs.size(); ++i) {
      const Config& c = kSweep[i];
      host += runs[i].host_s;
      events += runs[i].stats.events;
      // TSQR is a fleet algorithm: no per-algorithm metrics.
      if (c.algorithm == qr::Algorithm::Tsqr) continue;
      const std::string algo = qr::to_string(c.algorithm);
      totals[algo].add(runs[i].stats, model_h2d_bytes(algo, c.m, c.n, c.b));
      host_by_algo[algo] += runs[i].host_s;
    }
    if (traced) {
      layers.add("sim.events", events);
      layers.add("sim.host_ns_per_event", host * 1e9 / events);
      for (const auto& [algo, seconds] : host_by_algo) {
        layers.add("qr.host_s." + algo, seconds);
      }
      engine_ = totals;
    }
    return host;
  }

  static double operations() { return static_cast<double>(std::size(kSweep)); }
  double sim_makespan() const {
    double s = 0;
    for (const Run& r : reference_) s += r.stats.total_seconds;
    return s;
  }

  void set_layer_metrics() { set_engine_metrics(res_, engine_); }

 private:
  Run run_config(const Config& c, bool exported) {
    std::vector<std::unique_ptr<sim::Device>> owned;
    std::vector<sim::Device*> devices;
    for (int i = 0; i < c.devices; ++i) {
      owned.push_back(
          std::make_unique<sim::Device>(bench::paper_device(c.capacity)));
      devices.push_back(owned.back().get());
    }
    if (exported) telemetry::SpanLog::global().clear();
    Run r;
    {
      ScopedSpan span(tracer_, std::string("qr::factorize ") + c.name, "qr");
      const double t0 = wall_s();
      r.stats = qr::factorize(qr::QrProblem{
          devices, sim::HostMutRef::phantom(c.m, c.n),
          sim::HostMutRef::phantom(c.n, c.n), c.algorithm, options(c)});
      r.host_s = wall_s() - t0;
    }
    if (exported) export_device_trace(args_, devices.front()->trace());
    return r;
  }

  const Run& reference(const char* name) const {
    for (size_t i = 0; i < reference_.size(); ++i) {
      if (std::string(kSweep[i].name) == name) return reference_[i];
    }
    throw std::logic_error(std::string("paper_phantom: no config ") + name);
  }

  /// The tiled and TSQR makespans must equal the committed bench JSON
  /// values, which print six decimals.
  void check_committed() {
    const std::pair<const char*, const std::string*> committed[] = {
        {"tiled_committed", &args_.expect_tiled},
        {"tsqr_committed", &args_.expect_tsqr}};
    for (const auto& [name, expected] : committed) {
      const std::string got =
          format_fixed(reference(name).stats.total_seconds, 6);
      res_.check(got == *expected, std::string(name) + ": simulated " + got +
                                       " s, committed '" + *expected + "'");
    }
  }

  /// Simulated time is deterministic: every sweep repeats the reference
  /// bit for bit.
  void check_repeats(const std::vector<Run>& runs) {
    for (size_t i = 0; i < runs.size(); ++i) {
      const qr::QrStats& a = runs[i].stats;
      const qr::QrStats& b = reference_[i].stats;
      res_.check(a.total_seconds == b.total_seconds && a.events == b.events &&
                     a.bytes_h2d == b.bytes_h2d && a.bytes_d2h == b.bytes_d2h,
                 std::string(kSweep[i].name) + ": simulated schedule changed");
    }
  }

  /// Every simulated speedup beside the paper's and the simulator's error.
  void print_speedups() const {
    namespace paper = report::paper;
    const struct {
      const char* label;
      const char* blocking;
      const char* recursive;
      double paper;
    } rows[] = {
        {"32 GiB, b=16384", "blocking_32g", "recursive_32g",
         paper::Headline::speedup_large_memory},
        {"16 GiB, b=8192", "blocking_16g", "recursive_16g",
         paper::Headline::speedup_small_memory},
    };
    for (const auto& row : rows) {
      const double s = reference(row.blocking).stats.total_seconds /
                       reference(row.recursive).stats.total_seconds;
      std::cout << "paper_phantom: recursive over blocking at " << row.label
                << ": " << format_fixed(s, 3) << "x (paper "
                << format_fixed(row.paper, 2) << "x, simulator error "
                << format_fixed(100.0 * (s / row.paper - 1.0), 1) << "%)\n";
    }
  }

  const Args& args_;
  Result& res_;
  Tracer& tracer_;
  std::vector<Run> reference_;
  std::map<std::string, AlgoTotals> engine_;
  bool exported_ = false;
};

} // namespace

void run_paper_phantom(const Args& args, Result& res, Tracer& tracer) {
  PaperPhantom w(args, res, tracer);
  measure(args, res, tracer, w, {"qr.resid.", "qr.orth.", "serve."});
}

} // namespace perfbench
