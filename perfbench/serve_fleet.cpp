// serve_fleet: a seeded open-loop stream of small QR jobs through
// serve::Scheduler (max_fused_jobs 8, max_colocated_jobs 4, checkpoint
// preemption on), replayed at three fixed arrival rates. Host time here is
// the scheduler's own: admission, dispatch, preemption, fusion and
// colocation over many tiny graphs, run through the same qr/ooc code that
// paper_phantom drives as a few huge ones.
//
// The stream holds every (shape class, algorithm) pair equally often in a
// seeded order, with 5% of jobs at high priority. The scheduler's
// only arrival model is the arrival_after_units gate, so a rate is counted
// in arrivals per completed fleet panel unit: job i arrives after
// floor(i / rate) units, whatever the fleet's speed (an open loop).
//
// The timed fleet has one device. On four devices the scheduler's schedule
// depends on host thread timing (two replays of one stream give different
// makespans, waits and preemption counts), which breaks the determinism
// this workload checks; the traced run measures that defect as
// serve.fleet4_replay_mismatches.
#include <algorithm>
#include <cmath>
#include <iostream>
#include <map>
#include <random>
#include <vector>

#include "bench/bench_util.hpp"
#include "common/strings.hpp"
#include "perfbench/workload_util.hpp"
#include "serve/scheduler.hpp"

namespace perfbench {
namespace {

using namespace rocqr;

constexpr int kDevices = 1;
/// Blocks of 12 jobs in the timed stream (360 jobs) and in the four-device
/// probe's stream (1008 jobs).
constexpr int kBlocks = 30;
constexpr int kProbeBlocks = 84;

struct Shape {
  index_t m, n, b;
};
constexpr Shape kShapes[] = {{2048, 512, 64}, {4096, 1024, 128}, {8192, 1024, 256}};

struct Rate {
  const char* name;
  double per_unit; ///< arrivals per completed fleet panel unit
};
/// The rate ladder. A job averages about 6.7 panel units, so arrivals
/// outpace completions above ~0.15 per unit: "flood" queues the whole
/// stream at once, "mid" and "low" build smaller queues.
constexpr Rate kRates[] = {{"flood", 4.0}, {"mid", 0.3}, {"low", 0.2}};

/// serve.max_rate's latency limit: the p99 simulated queue wait a rate may
/// reach and still count as served.
constexpr double kWaitP99Limit = 1.0;

struct JobDraw {
  int shape = 0;
  int algo = 0;
  int priority = 0;
};

/// A stratified seeded stream: every block of 12 arrivals holds each
/// (shape, algorithm) class once, in a seeded order, and one job in every
/// block of 20 arrivals, at a seeded position, has high priority. Seeds
/// reorder the stream without changing its mix or how its high-priority
/// jobs spread, so run-to-run spread measures the program, not the draw.
std::vector<JobDraw> draw_stream(std::uint64_t seed, int blocks) {
  std::mt19937_64 rng(seed);
  std::vector<JobDraw> jobs;
  for (int b = 0; b < blocks; ++b) {
    std::vector<JobDraw> block;
    for (int s = 0; s < 3; ++s) {
      for (int a = 0; a < static_cast<int>(kAlgos.size()); ++a) {
        block.push_back({s, a, 0});
      }
    }
    std::shuffle(block.begin(), block.end(), rng);
    jobs.insert(jobs.end(), block.begin(), block.end());
  }
  for (size_t i = 0; i + 20 <= jobs.size(); i += 20) {
    jobs[i + rng() % 20].priority = 1;
  }
  return jobs;
}

serve::ServeConfig fleet_config(int devices) {
  serve::ServeConfig cfg;
  cfg.devices = devices;
  cfg.max_fused_jobs = 8;
  cfg.max_colocated_jobs = 4;
  return cfg;
}

struct Replay {
  double submit_s = 0;
  double run_s = 0;
  serve::FleetReport report;
};

/// Two replays of one stream must agree on everything simulated: makespan,
/// every dispatch's queue wait, and each job's wait and device time.
bool same_schedule(const serve::FleetReport& a, const serve::FleetReport& b) {
  if (a.makespan_seconds != b.makespan_seconds ||
      a.queue_waits != b.queue_waits || a.jobs.size() != b.jobs.size()) {
    return false;
  }
  for (size_t i = 0; i < a.jobs.size(); ++i) {
    if (a.jobs[i].stats.total_seconds != b.jobs[i].stats.total_seconds ||
        a.jobs[i].queue_wait_seconds != b.jobs[i].queue_wait_seconds) {
      return false;
    }
  }
  return true;
}

/// Backlog grows when the waits of the last quarter of dispatches exceed
/// those of the first quarter by more than half the latency limit.
bool backlog_grows(const std::vector<double>& waits) {
  const size_t q = waits.size() / 4;
  if (q == 0) return false;
  double first = 0, last = 0;
  for (size_t i = 0; i < q; ++i) {
    first += waits[i];
    last += waits[waits.size() - 1 - i];
  }
  return (last - first) / static_cast<double>(q) > kWaitP99Limit / 2;
}

class ServeFleet {
 public:
  ServeFleet(const Args& args, Result& res, Tracer& tracer)
      : args_(args), res_(res), tracer_(tracer) {}

  /// Stream generation plus a warm-up flood replay; returns its seconds.
  /// The first set-up's replay is the flood reference every later flood
  /// replay must repeat.
  double setup() {
    const double t0 = wall_s();
    stream_ = draw_stream(args_.seed, kBlocks);
    const Replay r = replay(stream_, kRates[0], kDevices, stream_.size(), false);
    const double seconds = wall_s() - t0;
    verify(0, r);
    return seconds;
  }

  /// One pass over the rate ladder; returns the host seconds of every
  /// submit and run call.
  double iteration(bool traced, LayerSamples& layers) {
    std::vector<Replay> ladder;
    double events = 0, dispatches = 0, submit = 0, run = 0;
    sim_makespan_ = 0;
    for (size_t i = 0; i < std::size(kRates); ++i) {
      const bool exported = traced && !exported_ && i == 0;
      ladder.push_back(
          replay(stream_, kRates[i], kDevices, stream_.size(), exported));
      exported_ = exported_ || exported;
      const Replay& r = ladder.back();
      verify(i, r);
      submit += r.submit_s;
      run += r.run_s;
      sim_makespan_ += r.report.makespan_seconds;
      events += r.report.fleet.events;
      dispatches += static_cast<double>(r.report.queue_waits.size());
    }
    if (traced) {
      layers.add("sim.events", events);
      layers.add("sim.host_ns_per_event", run * 1e9 / events);
      layers.add("serve.submit_host_us", submit * 1e6 / operations());
      layers.add("serve.run_host_s", run);
      layers.add("serve.host_us_per_dispatch", run * 1e6 / dispatches);
      add_fleet_layers(ladder, layers);
    }
    return submit + run;
  }

  /// The defect probe: flood replays of a 1008-job stream on four devices;
  /// counts the replays whose schedule differs from the first.
  void measure_fleet4_mismatches() {
    constexpr int kReplays = 4;
    ScopedSpan span(tracer_, "fleet4 determinism probe", "serve");
    const std::vector<JobDraw> stream = draw_stream(args_.seed, kProbeBlocks);
    const Replay first = replay(stream, kRates[0], 4, stream.size(), false);
    check_completed(first, stream.size(), "4-device flood");
    int mismatches = 0;
    for (int i = 1; i < kReplays; ++i) {
      const Replay again = replay(stream, kRates[0], 4, stream.size(), false);
      check_completed(again, stream.size(), "4-device flood");
      if (!same_schedule(first.report, again.report)) ++mismatches;
    }
    std::cout << "serve_fleet: 4-device flood replays differing from the "
                 "first: "
              << mismatches << " of " << kReplays - 1 << "\n";
    res_.set("serve.fleet4_replay_mismatches", mismatches);
  }

  /// Jobs submitted per ladder.
  double operations() const {
    return static_cast<double>(stream_.size() * std::size(kRates));
  }
  double sim_makespan() const { return sim_makespan_; }

  void set_layer_metrics() {
    set_engine_metrics(res_, engine_);
    measure_fleet4_mismatches();
  }

 private:
  Replay replay(const std::vector<JobDraw>& stream, const Rate& rate,
                int devices, size_t jobs, bool exported) {
    serve::Scheduler sched(fleet_config(devices));
    Replay r;
    {
      ScopedSpan span(tracer_, std::string("serve::Scheduler::submit ") + rate.name,
                      "serve");
      const double t0 = wall_s();
      for (size_t i = 0; i < jobs; ++i) sched.submit(job_spec(stream, i, rate));
      r.submit_s = wall_s() - t0;
    }
    {
      ScopedSpan span(tracer_, std::string("serve::Scheduler::run ") + rate.name,
                      "serve");
      const double t0 = wall_s();
      r.report = sched.run();
      r.run_s = wall_s() - t0;
    }
    if (exported) {
      export_device_trace(args_, sched.devices().front()->trace(), nullptr);
    }
    return r;
  }

  static serve::JobSpec job_spec(const std::vector<JobDraw>& stream, size_t i,
                                 const Rate& rate) {
    const JobDraw& d = stream[i];
    const Shape& s = kShapes[d.shape];
    serve::JobSpec job;
    job.name = "j" + std::to_string(i);
    job.m = s.m;
    job.n = s.n;
    job.blocksize = s.b;
    job.algorithm = qr::to_string(kAlgos[static_cast<size_t>(d.algo)]);
    job.priority = d.priority;
    job.arrival_after_units =
        static_cast<index_t>(std::floor(static_cast<double>(i) / rate.per_unit));
    return job;
  }

  /// Every submitted job must be admitted and complete: rejected, failed
  /// and shed jobs count as failed operations.
  void check_completed(const Replay& r, size_t jobs, const std::string& tag) {
    const auto n = static_cast<std::int64_t>(jobs);
    const std::int64_t missing = n - r.report.jobs_completed;
    res_.tally(n, missing,
               "serve_fleet " + tag + ": " + std::to_string(missing) +
                   " jobs rejected, failed or shed");
  }

  /// Completion, plus determinism: a replay repeats the first replay of its
  /// rate exactly.
  void verify(size_t rate, const Replay& r) {
    const std::string tag = kRates[rate].name;
    check_completed(r, stream_.size(), tag);
    const auto [it, first] = reference_.emplace(rate, r.report);
    res_.check(first || same_schedule(it->second, r.report),
               "serve_fleet " + tag +
                   ": replay differs from the first replay of this seed");
  }

  /// Simulated compute seconds of one job run alone, per (shape, algorithm)
  /// class: the useful work serve.useful_ratio compares against.
  double solo_compute_s(const serve::JobReport& j) {
    const std::string key = j.algorithm + " " + std::to_string(j.m) + "x" +
                            std::to_string(j.n) + "/" + std::to_string(j.blocksize);
    const auto it = solo_compute_.find(key);
    if (it != solo_compute_.end()) return it->second;
    sim::Device dev = bench::paper_device();
    qr::QrOptions opts;
    opts.blocksize = j.blocksize;
    const qr::QrStats s = qr::factorize(qr::QrProblem{
        {&dev}, sim::HostMutRef::phantom(j.m, j.n),
        sim::HostMutRef::phantom(j.n, j.n), *qr::parse_algorithm(j.algorithm),
        opts});
    return solo_compute_[key] = s.compute_seconds;
  }

  /// Fleet-level per-layer metrics of one traced ladder.
  void add_fleet_layers(const std::vector<Replay>& ladder, LayerSamples& layers) {
    const serve::FleetReport& flood = ladder[0].report;
    layers.add("serve.dispatches", static_cast<double>(flood.queue_waits.size()));
    layers.add("serve.preemptions", static_cast<double>(flood.jobs_preempted));
    double busy = 0;
    for (const qr::QrStats& d : flood.per_device) busy += d.compute_seconds;
    layers.add("serve.device_util", busy / (kDevices * flood.makespan_seconds));
    double useful = 0;
    std::map<std::string, AlgoTotals> totals;
    for (const serve::JobReport& j : flood.jobs) {
      useful += solo_compute_s(j);
      totals[j.algorithm].add(j.stats,
                              model_h2d_bytes(j.algorithm, j.m, j.n, j.blocksize));
    }
    engine_ = totals;
    layers.add("serve.useful_ratio", useful / busy);
    layers.add("serve.jobs_per_s",
               static_cast<double>(flood.jobs_completed) / flood.makespan_seconds);
    double max_rate = 0;
    for (size_t i = 0; i < ladder.size(); ++i) {
      const serve::FleetReport& rep = ladder[i].report;
      const std::string rate = kRates[i].name;
      layers.add("serve.wait_p50_sim." + rate, rep.queue_wait_p50);
      layers.add("serve.wait_p95_sim." + rate, rep.queue_wait_p95);
      layers.add("serve.wait_p99_sim." + rate, rep.queue_wait_p99);
      if (rep.queue_wait_p99 <= kWaitP99Limit && !backlog_grows(rep.queue_waits)) {
        max_rate = std::max(max_rate, kRates[i].per_unit);
      }
      if (reported_) continue;
      std::cout << "serve_fleet " << rate << " (" << kRates[i].per_unit
                << "/unit): makespan " << format_fixed(rep.makespan_seconds, 4)
                << " s, wait p50/p95/p99 " << format_fixed(rep.queue_wait_p50, 4)
                << "/" << format_fixed(rep.queue_wait_p95, 4) << "/"
                << format_fixed(rep.queue_wait_p99, 4) << " s, "
                << rep.queue_waits.size() << " dispatches, "
                << rep.jobs_preempted << " preemptions, host "
                << format_fixed(ladder[i].run_s, 3) << " s\n";
    }
    layers.add("serve.max_rate", max_rate);
    reported_ = true;
  }

  const Args& args_;
  Result& res_;
  Tracer& tracer_;
  std::vector<JobDraw> stream_;
  std::map<size_t, serve::FleetReport> reference_;
  std::map<std::string, AlgoTotals> engine_;
  std::map<std::string, double> solo_compute_;
  double sim_makespan_ = 0;
  bool exported_ = false;
  bool reported_ = false;
};

} // namespace

void run_serve_fleet(const Args& args, Result& res, Tracer& tracer) {
  ServeFleet w(args, res, tracer);
  measure(args, res, tracer, w, {"qr.host_s.", "qr.resid.", "qr.orth."});
}

} // namespace perfbench
