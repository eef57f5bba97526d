// Shared plumbing of the repo benchmark: arguments, the result record every
// workload fills, host clocks, and the benchmark's own span recorder.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Directory receiving the traced run's Perfetto files.
  std::string out_dir = ".bench_build/traces";
  /// Committed simulated makespans (BENCH_tiled_qr.json / BENCH_tsqr.json),
  /// as printed there with six decimals; paper_phantom must reproduce them.
  std::string expect_tiled;
  std::string expect_tsqr;
};

/// What one run reports: the correctness tally and every metric by name.
/// Workloads set end-to-end and per-layer metrics alike; main() prints the
/// set the run was asked for.
class Result {
 public:
  /// Counts one attempted operation; a false `ok` counts it failed and
  /// prints `what` to stderr.
  void check(bool ok, const std::string& what);
  /// Counts `n` attempted operations of which `failed` failed.
  void tally(std::int64_t n, std::int64_t failed, const std::string& what);
  /// Sets a metric listed in end_to_end_metrics()/per_layer_metrics();
  /// the unit comes from that list.
  void set(const std::string& name, double value);
  /// Sets to 0 every per-layer metric under one of `prefixes` that is still
  /// unset: the layers this workload does not exercise.
  void zero_unset(const std::vector<std::string>& prefixes);

  bool correct() const { return failed_ == 0 && attempted_ > 0; }
  /// Prints the one-line JSON result with the metrics named in `names`
  /// (a missing one is a benchmark bug: it throws).
  std::string json(const std::vector<std::string>& names) const;

 private:
  std::int64_t attempted_ = 0;
  std::int64_t failed_ = 0;
  std::map<std::string, double> metrics_;
};

/// Host wall clock (steady), seconds.
double wall_s();
/// CPU seconds consumed by every thread of the process so far.
double cpu_s();
/// Peak resident set size of the process, MiB.
double peak_rss_mib();
double median(std::vector<double> v);

/// Host spans recorded by the benchmark around its calls into each layer:
/// name, layer, start, end and the enclosing span. Kept in memory; written
/// once at exit as a Chrome-trace/Perfetto file. Disabled (every call a
/// no-op) in untraced runs.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }
  /// Spans of one workload iteration share its id (the `iter` argument).
  void set_iteration(int iteration) { iteration_ = iteration; }
  int open(std::string name, std::string layer);
  void close(int id);
  void write_chrome_trace(const std::string& path) const;

 private:
  struct Span {
    std::string name;
    std::string layer;
    double start = 0;
    double end = -1;
    int parent = -1;
    int iteration = 0;
  };
  bool enabled_;
  int iteration_ = 0;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

class ScopedSpan {
 public:
  ScopedSpan(Tracer& t, std::string name, std::string layer)
      : tracer_(t), id_(t.open(std::move(name), std::move(layer))) {}
  ~ScopedSpan() { tracer_.close(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer& tracer_;
  int id_;
};

/// Per-layer samples of a run's traced iterations; each metric reports the
/// median of its samples.
class LayerSamples {
 public:
  void add(const std::string& name, double value) {
    samples_[name].push_back(value);
  }
  void apply(Result& res) const {
    for (const auto& [name, values] : samples_) res.set(name, median(values));
  }

 private:
  std::map<std::string, std::vector<double>> samples_;
};

/// FNV-1a over raw bytes: the bit identity of a result.
std::uint64_t fnv1a(const void* data, std::size_t bytes);

/// Workload entry points. Each sets every end-to-end and per-layer metric
/// (a per-layer metric whose layer the workload does not exercise is 0).
/// real_fp16 / real_fp32: the Real-mode workload at one GEMM precision.
void run_real_qr(const Args& args, Result& res, Tracer& tracer, bool fp16);
void run_paper_phantom(const Args& args, Result& res, Tracer& tracer);
void run_serve_fleet(const Args& args, Result& res, Tracer& tracer);

/// Isolated layer probes run in every traced run, independent of the
/// workload: timed blas::gemm, qr::panel_qr_device, a synthetic TaskGraph,
/// and the Table 1/2 engine calls.
void run_layer_probes(Result& res, Tracer& tracer);

/// Metric names, in print order. BENCHMARK.json lists the same names.
const std::vector<std::string>& end_to_end_metrics();
const std::vector<std::string>& per_layer_metrics();

} // namespace perfbench
