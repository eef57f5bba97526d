#include "perfbench/harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <ctime>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "perfbench/workload_util.hpp"

namespace perfbench {

namespace {

struct MetricDef {
  std::string name;
  std::string unit;
};

std::vector<MetricDef> end_to_end_defs() {
  return {{"setup_s", "s"},
          {"peak_rss_mib", "MiB"},
          {"host_s", "s"},
          {"sim_makespan", "sim_s"}};
}

/// serve_fleet's arrival-rate ladder.
const char* const kRateNames[] = {"flood", "mid", "low"};

std::vector<MetricDef> per_layer_defs() {
  std::vector<MetricDef> d = {
      {"blas.gemm_fp16_gflops", "GF/s"},
      {"blas.gemm_fp32_gflops", "GF/s"},
      {"blas.fp16_over_fp32", "x"},
      {"blas.pack_allocations", "count"},
      {"host.cores_busy", "cores"},
      {"pool.rounds", "count"},
      {"pool.nested_serial_rounds", "count"},
      {"qr.panel_host_s.fp16", "s"},
      {"qr.panel_host_s.fp32", "s"},
  };
  for (const rocqr::qr::Algorithm a : kAlgos) {
    const std::string s = rocqr::qr::to_string(a);
    d.push_back({"qr.host_s." + s, "s"});
    d.push_back({"qr.resid." + s, "ratio"});
    d.push_back({"qr.orth." + s, "ratio"});
    d.push_back({"qr.sim_panel." + s, "sim_s"});
  }
  d.push_back({"sim.events", "count"});
  d.push_back({"sim.host_ns_per_event", "ns"});
  for (const rocqr::qr::Algorithm a : kAlgos) {
    const std::string s = rocqr::qr::to_string(a);
    d.push_back({"ooc.h2d_sim." + s, "sim_s"});
    d.push_back({"ooc.d2h_sim." + s, "sim_s"});
    d.push_back({"ooc.compute_sim." + s, "sim_s"});
    d.push_back({"ooc.bytes_h2d." + s, "GiB"});
    d.push_back({"ooc.bytes_d2h." + s, "GiB"});
    d.push_back({"ooc.bound_ratio." + s, "ratio"});
  }
  d.push_back({"ooc.h2d_vs_model.recursive", "ratio"});
  d.push_back({"ooc.h2d_vs_model.blocking", "ratio"});
  d.push_back({"ooc.inner_recursive_sim", "sim_s"});
  d.push_back({"ooc.outer_recursive_sim", "sim_s"});
  d.push_back({"taskgraph.host_ns_per_node", "ns"});
  d.push_back({"serve.submit_host_us", "us"});
  d.push_back({"serve.run_host_s", "s"});
  d.push_back({"serve.host_us_per_dispatch", "us"});
  d.push_back({"serve.dispatches", "count"});
  d.push_back({"serve.preemptions", "count"});
  d.push_back({"serve.device_util", "ratio"});
  d.push_back({"serve.useful_ratio", "ratio"});
  d.push_back({"serve.jobs_per_s", "1/sim_s"});
  d.push_back({"serve.max_rate", "jobs/unit"});
  d.push_back({"serve.fleet4_replay_mismatches", "count"});
  for (const char* p : {"p50", "p95", "p99"}) {
    for (const char* r : kRateNames) {
      d.push_back({std::string("serve.wait_") + p + "_sim." + r, "sim_s"});
    }
  }
  d.push_back({"trace.overhead", "%"});
  return d;
}

const std::map<std::string, std::string>& units() {
  static const std::map<std::string, std::string> u = [] {
    std::map<std::string, std::string> m;
    for (const MetricDef& d : end_to_end_defs()) m[d.name] = d.unit;
    for (const MetricDef& d : per_layer_defs()) m[d.name] = d.unit;
    return m;
  }();
  return u;
}

std::vector<std::string> names_of(const std::vector<MetricDef>& defs) {
  std::vector<std::string> out;
  for (const MetricDef& d : defs) out.push_back(d.name);
  return out;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

} // namespace

const std::vector<std::string>& end_to_end_metrics() {
  static const std::vector<std::string> n = names_of(end_to_end_defs());
  return n;
}

const std::vector<std::string>& per_layer_metrics() {
  static const std::vector<std::string> n = names_of(per_layer_defs());
  return n;
}

void Result::check(bool ok, const std::string& what) {
  tally(1, ok ? 0 : 1, what);
}

void Result::tally(std::int64_t n, std::int64_t failed,
                   const std::string& what) {
  attempted_ += n;
  failed_ += failed;
  if (failed > 0) std::cerr << "FAILED: " << what << "\n";
}

void Result::set(const std::string& name, double value) {
  const auto it = units().find(name);
  if (it == units().end()) {
    throw std::logic_error("perfbench: unknown metric " + name);
  }
  if (!std::isfinite(value)) {
    throw std::logic_error("perfbench: non-finite value for " + name);
  }
  metrics_[name] = value;
}

void Result::zero_unset(const std::vector<std::string>& prefixes) {
  for (const std::string& name : per_layer_metrics()) {
    if (metrics_.count(name) > 0) continue;
    for (const std::string& p : prefixes) {
      if (name.rfind(p, 0) == 0) metrics_[name] = 0.0;
    }
  }
}

std::string Result::json(const std::vector<std::string>& names) const {
  std::ostringstream os;
  os << std::setprecision(std::numeric_limits<double>::max_digits10);
  os << "{\"correct\": " << (correct() ? "true" : "false")
     << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
     << ", \"metrics\": {";
  bool first = true;
  for (const std::string& name : names) {
    const auto it = metrics_.find(name);
    if (it == metrics_.end()) {
      throw std::logic_error("perfbench: metric " + name + " was not set");
    }
    os << (first ? "" : ", ") << "\"" << name << "\": {\"value\": "
       << it->second << ", \"unit\": \"" << units().at(name) << "\"}";
    first = false;
  }
  os << "}}";
  return os.str();
}

double wall_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0; // ru_maxrss is KiB
}

double median(std::vector<double> v) {
  if (v.empty()) throw std::logic_error("perfbench: median of no samples");
  std::sort(v.begin(), v.end());
  const size_t h = v.size() / 2;
  return v.size() % 2 ? v[h] : 0.5 * (v[h - 1] + v[h]);
}

int Tracer::open(std::string name, std::string layer) {
  if (!enabled_) return -1;
  const int id = static_cast<int>(spans_.size());
  spans_.push_back(Span{std::move(name), std::move(layer), wall_s(), -1,
                        open_.empty() ? -1 : open_.back(), iteration_});
  open_.push_back(id);
  return id;
}

void Tracer::close(int id) {
  if (id < 0) return;
  spans_[static_cast<size_t>(id)].end = wall_s();
  open_.pop_back();
}

void Tracer::write_chrome_trace(const std::string& path) const {
  std::ofstream os(path);
  if (!os) throw std::runtime_error("perfbench: cannot write " + path);
  const double t0 = spans_.empty() ? 0.0 : spans_.front().start;
  os << std::fixed << std::setprecision(3) << "{\"traceEvents\": [\n";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    // One track per nesting depth keeps children under their parent.
    int depth = 0;
    for (int p = s.parent; p >= 0; p = spans_[static_cast<size_t>(p)].parent) {
      ++depth;
    }
    os << (i ? ",\n" : "") << "{\"name\": \"" << json_escape(s.name)
       << "\", \"cat\": \"" << json_escape(s.layer)
       << "\", \"ph\": \"X\", \"pid\": 0, \"tid\": " << depth
       << ", \"ts\": " << (s.start - t0) * 1e6
       << ", \"dur\": " << (std::max(s.end, s.start) - s.start) * 1e6
       << ", \"args\": {\"id\": " << i << ", \"parent\": " << s.parent
       << ", \"iter\": " << s.iteration << "}}";
  }
  os << "\n], \"displayTimeUnit\": \"ms\"}\n";
}

std::uint64_t fnv1a(const void* data, std::size_t bytes) {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint64_t h = 1469598103934665603ull;
  for (std::size_t i = 0; i < bytes; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

} // namespace perfbench
