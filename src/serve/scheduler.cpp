#include "serve/scheduler.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>

#include "common/error.hpp"
#include "common/telemetry.hpp"
#include "common/thread_pool.hpp"
#include "qr/factorize.hpp"
#include "qr/multi_gpu_qr.hpp"
#include "qr/tiled_qr.hpp"
#include "sim/faults.hpp"
#include "sim/trace_export.hpp"

namespace rocqr::serve {

const char* to_string(JobState s) {
  switch (s) {
  case JobState::Rejected: return "rejected";
  case JobState::Queued: return "queued";
  case JobState::Running: return "running";
  case JobState::Preempted: return "preempted";
  case JobState::Completed: return "completed";
  case JobState::Failed: return "failed";
  case JobState::Shed: return "shed";
  }
  return "?";
}

const char* to_string(DeviceHealth h) {
  switch (h) {
  case DeviceHealth::Healthy: return "healthy";
  case DeviceHealth::Suspect: return "suspect";
  case DeviceHealth::Dead: return "dead";
  }
  return "?";
}

namespace {

telemetry::Counter& counter(const char* name) {
  return telemetry::MetricsRegistry::global().counter(name);
}

/// Contiguous column-major snapshot of a host ref (the checkpoint payload
/// layout); empty for phantom refs.
std::vector<float> snapshot_host(sim::HostMutRef src) {
  std::vector<float> out;
  if (src.data == nullptr) return out;
  out.resize(static_cast<size_t>(src.rows) * static_cast<size_t>(src.cols));
  for (index_t j = 0; j < src.cols; ++j) {
    for (index_t i = 0; i < src.rows; ++i) {
      out[static_cast<size_t>(i) + static_cast<size_t>(j) * src.rows] =
          src.data[i + j * src.ld];
    }
  }
  return out;
}

/// Algorithms the colocation packer may fuse into one task graph:
/// single-device node programs of qr::detail::run_batch. TSQR gangs and
/// the fleet-parallel drivers keep whole-device (or whole-fleet)
/// ownership.
bool colocatable_algorithm(const std::string& algorithm) {
  return algorithm == "tiled" || algorithm == "blocking" ||
         algorithm == "left";
}

/// Inverse of snapshot_host: writes a checkpoint payload back into the
/// job's host ref (no-op for phantom refs). Batched attempts restore here
/// because the batch runners — unlike qr::resume — take already-restored
/// host data plus per-job resume_units.
void restore_host(sim::HostMutRef dst, const std::vector<float>& src) {
  if (dst.data == nullptr) return;
  for (index_t j = 0; j < dst.cols; ++j) {
    for (index_t i = 0; i < dst.rows; ++i) {
      dst.data[i + j * dst.ld] =
          src[static_cast<size_t>(i) + static_cast<size_t>(j) * dst.rows];
    }
  }
}

/// The op-name prefix that labels one job's ops in a shared task graph
/// (qr::detail::BatchJob::label), and so attributes them back to it.
std::string job_label(int id) {
  std::string label = "j";
  label += std::to_string(id);
  label += '.';
  return label;
}

/// Folds one attempt's trace window into the job's running total. The
/// busy/volume fields sum; total_seconds accumulates the attempt spans
/// (device time consumed, including work a preemption discarded) rather
/// than re-deriving last_end - first_start across attempts, which would
/// count the queued gaps between them.
void accumulate_stats(qr::QrStats& into, const qr::QrStats& s) {
  const bool had_events = into.events > 0;
  into.panel_seconds += s.panel_seconds;
  into.gemm_seconds += s.gemm_seconds;
  into.d2d_seconds += s.d2d_seconds;
  into.h2d_seconds += s.h2d_seconds;
  into.d2h_seconds += s.d2h_seconds;
  into.compute_seconds += s.compute_seconds;
  into.bytes_h2d += s.bytes_h2d;
  into.bytes_d2h += s.bytes_d2h;
  into.bytes_d2d += s.bytes_d2d;
  into.flops += s.flops;
  into.panels += s.panels;
  into.events += s.events;
  into.peak_device_bytes =
      std::max(into.peak_device_bytes, s.peak_device_bytes);
  into.total_seconds += s.total_seconds;
  if (s.events > 0) {
    into.first_start = had_events ? std::min(into.first_start, s.first_start)
                                  : s.first_start;
    into.last_end = std::max(into.last_end, s.last_end);
  }
}

} // namespace

struct Scheduler::Job {
  JobSpec spec;
  int id = 0;
  JobState state = JobState::Queued;
  /// Gang-scheduled: acquires the whole fleet atomically (algorithm "tsqr").
  bool gang = false;
  index_t blocksize = 0;
  double predicted_seconds = 0;
  bytes_t predicted_peak_bytes = 0;
  std::string failure;
  int attempts = 0;
  int preemptions = 0;
  int retries = 0;
  int migrations = 0;
  int last_device = -1;
  /// Devices held by the current attempt: one, or every alive device for a
  /// gang.
  std::vector<int> devices;
  /// Per-device trace cursors of the watchdog scan, parallel to `devices`.
  std::vector<size_t> watch_from;
  /// Arrival gate opened (arrival_after_units reached).
  bool arrived = false;
  /// Set under the scheduler mutex; the job's sink observes it at its next
  /// checkpoint write and unwinds the attempt.
  bool preempt_requested = false;
  bool has_checkpoint = false;
  /// Latest consistent state: the initial snapshot before the first
  /// dispatch, then every checkpoint the driver writes. All attempts start
  /// from here via qr::resume (or, batched, with resume_units).
  qr::Checkpoint checkpoint;
  qr::QrStats stats{};
  double queue_wait_seconds = 0;
  /// Simulated instant the job last became ready (arrival release,
  /// preemption park, retry requeue, or migration) — the fleet's latest
  /// published availability bound at that moment. Dispatch charges
  /// max(0, device bound - ready_sim) as the queueing episode's exact wait.
  double ready_sim = 0;

  bool ready() const {
    return (state == JobState::Queued && arrived) ||
           state == JobState::Preempted;
  }
  index_t units_done() const {
    return has_checkpoint ? checkpoint.units_done : 0;
  }
};

/// One dispatch: the devices it holds, the member jobs it runs, and the
/// runner. Every batching mode is this one record; the kinds differ only
/// in the runner and in how the trace windows are attributed to members.
struct Scheduler::Attempt {
  enum class Kind {
    Solo,      ///< one job on one device: qr::resume; the whole window
    Colocated, ///< one task graph: run_batch; window filtered by "j<id>."
    Fused,     ///< batched node program: run_fused_batch; even 1/K split
    Gang,      ///< tsqr over the alive fleet: qr::resume over the fleet;
               ///< qr::combine_device_stats over the member devices
  };
  Kind kind = Kind::Solo;
  std::vector<int> devices;
  std::vector<Job*> members;
  /// Trace size of each held device at dispatch: the attempt's windows.
  std::vector<size_t> windows;
};

/// Per-attempt checkpoint sink: records progress on the job and doubles as
/// the preemption point (the only place an attempt can safely unwind — the
/// driver has just synchronized the device and the snapshot is a consistent
/// prefix).
class Scheduler::PreemptSink : public qr::CheckpointSink {
 public:
  PreemptSink(Scheduler& sched, Job& job) : sched_(sched), job_(job) {}
  void write(const qr::Checkpoint& cp) override {
    sched_.on_unit_completed(job_, cp);
  }

 private:
  Scheduler& sched_;
  Job& job_;
};

Scheduler::Scheduler(ServeConfig cfg) : cfg_(std::move(cfg)) {
  ROCQR_CHECK(cfg_.devices >= 1, "serve::Scheduler: need at least 1 device");
  ROCQR_CHECK(cfg_.checkpoint_every >= 1,
              "serve::Scheduler: checkpoint_every must be >= 1");
  ROCQR_CHECK(cfg_.max_job_retries >= 0,
              "serve::Scheduler: max_job_retries must be >= 0");
  ROCQR_CHECK(cfg_.admission_memory_fraction > 0 &&
                  cfg_.admission_memory_fraction <= 1.0,
              "serve::Scheduler: admission_memory_fraction must be in (0,1]");
  ROCQR_CHECK(cfg_.max_colocated_jobs >= 1,
              "serve::Scheduler: max_colocated_jobs must be >= 1");
  ROCQR_CHECK(cfg_.max_fused_jobs >= 1,
              "serve::Scheduler: max_fused_jobs must be >= 1");
  ROCQR_CHECK(cfg_.watchdog_timeout >= 0,
              "serve::Scheduler: watchdog_timeout must be >= 0");
  ROCQR_CHECK(cfg_.device_failure_threshold >= 1,
              "serve::Scheduler: device_failure_threshold must be >= 1");
}

Scheduler::~Scheduler() = default;

AdmissionDecision Scheduler::submit(const JobSpec& spec) {
  AdmissionConfig acfg;
  acfg.spec = cfg_.spec;
  acfg.devices = cfg_.devices;
  acfg.shared_link = cfg_.shared_link;
  acfg.checkpoint_every = cfg_.checkpoint_every;
  acfg.memory_fraction = cfg_.admission_memory_fraction;
  acfg.paper_calibration = cfg_.paper_calibration;
  AdmissionDecision d = admit_job(spec, acfg);

  if (d.admitted && cfg_.mode == sim::ExecutionMode::Real) {
    if (spec.a.data == nullptr || spec.r.data == nullptr) {
      d.admitted = false;
      d.reason = "a Real-mode fleet needs host A and R buffers on the job";
    } else if (spec.a.rows != spec.m || spec.a.cols != spec.n ||
               spec.r.rows != spec.n || spec.r.cols != spec.n) {
      d.admitted = false;
      d.reason = "host buffer shapes do not match the job's m x n";
    }
  }

  std::lock_guard<std::mutex> lk(mutex_);
  ROCQR_CHECK(!ran_, "serve::Scheduler: submit after run()");
  auto job = std::make_unique<Job>();
  job->spec = spec;
  job->gang = spec.algorithm == "tsqr";
  job->id = static_cast<int>(jobs_.size());
  d.job_id = job->id;
  if (d.admitted) {
    job->state = JobState::Queued;
    job->blocksize = d.blocksize;
    job->predicted_seconds = d.predicted_seconds;
    job->predicted_peak_bytes = d.predicted_peak_bytes;
    counter("serve.jobs_admitted").increment();
  } else {
    job->state = JobState::Rejected;
    job->failure = d.reason;
    counter("serve.jobs_rejected").increment();
  }
  jobs_.push_back(std::move(job));
  return d;
}

FleetReport Scheduler::run() {
  {
    std::lock_guard<std::mutex> lk(mutex_);
    ROCQR_CHECK(!ran_, "serve::Scheduler: run() is single-shot");
    ran_ = true;
  }

  auto link = cfg_.shared_link ? std::make_shared<sim::SharedHostLink>()
                               : std::shared_ptr<sim::SharedHostLink>();
  for (int i = 0; i < cfg_.devices; ++i) {
    devices_.push_back(
        std::make_unique<sim::Device>(cfg_.spec, cfg_.mode, link));
    if (cfg_.paper_calibration) {
      devices_.back()->model().install_paper_calibration();
    }
    if (static_cast<size_t>(i) < cfg_.device_faults.size() &&
        !cfg_.device_faults[static_cast<size_t>(i)].empty()) {
      devices_.back()->install_faults(
          sim::FaultPlan::parse(cfg_.device_faults[static_cast<size_t>(i)]));
    }
  }

  bool any_queued = false;
  {
    std::lock_guard<std::mutex> lk(mutex_);
    device_avail_.assign(static_cast<size_t>(cfg_.devices), 0.0);
    device_busy_.assign(static_cast<size_t>(cfg_.devices), 0);
    trace_folded_.assign(static_cast<size_t>(cfg_.devices), 0);
    device_health_.assign(static_cast<size_t>(cfg_.devices),
                          DeviceHealth::Healthy);
    device_failures_.assign(static_cast<size_t>(cfg_.devices), 0);
    release_arrivals_locked();
    for (const auto& job : jobs_) any_queued |= job->state == JobState::Queued;
  }
  if (any_queued) {
    // A private pool sized to the fleet: one worker per device regardless
    // of the host's core count (the simulated devices do the "computing";
    // nested Real-mode host kernels degrade to serial inside the workers
    // per the ThreadPool reentrancy contract).
    ThreadPool pool(static_cast<unsigned>(cfg_.devices));
    pool.parallel_for(cfg_.devices, [this](index_t d0, index_t d1) {
      for (index_t d = d0; d < d1; ++d) worker(static_cast<int>(d));
    });
  }
  return build_report();
}

double Scheduler::sim_now_locked() const {
  double now = 0;
  for (int e = 0; e < cfg_.devices; ++e) {
    const auto eu = static_cast<size_t>(e);
    if (device_health_[eu] == DeviceHealth::Dead) continue;
    now = std::max(now, device_avail_[eu]);
  }
  return now;
}

void Scheduler::release_arrivals_locked() {
  const double now = sim_now_locked();
  for (const auto& up : jobs_) {
    Job& job = *up;
    if (job.state != JobState::Queued || job.arrived) continue;
    if (job.spec.arrival_after_units <= fleet_units_) {
      job.arrived = true;
      job.ready_sim = now;
    }
  }
}

bool Scheduler::force_earliest_arrival_locked() {
  Job* earliest = nullptr;
  for (const auto& up : jobs_) {
    Job& job = *up;
    if (job.state != JobState::Queued || job.arrived) continue;
    if (earliest == nullptr ||
        job.spec.arrival_after_units < earliest->spec.arrival_after_units) {
      earliest = &job;
    }
  }
  if (earliest == nullptr) return false;
  earliest->arrived = true;
  earliest->ready_sim = sim_now_locked();
  return true;
}

bool Scheduler::work_pending_locked() const {
  for (const auto& job : jobs_) {
    if (job->state == JobState::Queued || job->state == JobState::Running ||
        job->state == JobState::Preempted) {
      return true;
    }
  }
  return false;
}

Scheduler::Job* Scheduler::pick_locked() const {
  Job* best = nullptr;
  for (const auto& up : jobs_) {
    Job& job = *up;
    if (!job.ready()) continue;
    if (best == nullptr) {
      best = &job;
      continue;
    }
    // Priority first; then earliest deadline (none = last); then
    // submission order (ids are submission-ordered, and the scan keeps the
    // first of equals).
    if (job.spec.priority != best->spec.priority) {
      if (job.spec.priority > best->spec.priority) best = &job;
      continue;
    }
    const double jd = job.spec.deadline_seconds > 0
                          ? job.spec.deadline_seconds
                          : std::numeric_limits<double>::infinity();
    const double bd = best->spec.deadline_seconds > 0
                          ? best->spec.deadline_seconds
                          : std::numeric_limits<double>::infinity();
    if (jd < bd) best = &job;
  }
  return best;
}

Scheduler::Job* Scheduler::dispatchable_locked() const {
  // The job an idle worker could legally start right now. A gang top pick
  // drains the fleet: until every device is idle nothing dispatches — not
  // the gang (it needs all devices) and not lower-priority backfill (which
  // would starve it).
  Job* top = pick_locked();
  if (top == nullptr) return nullptr;
  if (top->gang && (running_ > 0 || gang_active_)) return nullptr;
  return top;
}

bool Scheduler::may_act_locked(int device_index, double t) const {
  // A dispatchable job would be started by the earliest-available idle
  // device, so idle devices behind `t` only matter while one exists. (This
  // must be "dispatchable", not merely "ready": while a gang pick drains
  // the fleet, idle devices cannot act, and making running jobs wait on
  // them would deadlock the drain.)
  const bool ready = dispatchable_locked() != nullptr;
  for (int e = 0; e < cfg_.devices; ++e) {
    if (e == device_index) continue;
    const auto eu = static_cast<size_t>(e);
    // A dead device can never act again: waiting on it would deadlock.
    if (device_health_[eu] == DeviceHealth::Dead) continue;
    if (device_avail_[eu] < t && (device_busy_[eu] != 0 || ready)) {
      return false;
    }
  }
  return true;
}

int Scheduler::alive_devices_locked() const {
  int alive = 0;
  for (const DeviceHealth h : device_health_) {
    alive += h != DeviceHealth::Dead;
  }
  return alive;
}

bool Scheduler::note_device_failure_locked(int device_index) {
  const auto du = static_cast<size_t>(device_index);
  if (device_health_[du] == DeviceHealth::Dead) return false;
  if (++device_failures_[du] >= cfg_.device_failure_threshold) {
    return declare_dead_locked(device_index);
  }
  device_health_[du] = DeviceHealth::Suspect;
  return false;
}

void Scheduler::note_device_success_locked(int device_index) {
  const auto du = static_cast<size_t>(device_index);
  if (device_health_[du] == DeviceHealth::Dead) return;
  device_failures_[du] = 0;
  device_health_[du] = DeviceHealth::Healthy;
}

bool Scheduler::declare_dead_locked(int device_index) {
  const auto du = static_cast<size_t>(device_index);
  if (device_health_[du] == DeviceHealth::Dead) return false;
  device_health_[du] = DeviceHealth::Dead;
  ++devices_lost_;
  counter("serve.devices_lost").increment();
  if (alive_devices_locked() == 0) {
    // Nothing left to migrate onto: every non-terminal job is stranded.
    for (const auto& up : jobs_) {
      Job& job = *up;
      if (job.state == JobState::Queued || job.state == JobState::Preempted) {
        job.state = JobState::Failed;
        job.failure = "no surviving devices in the fleet";
        counter("serve.jobs_failed").increment();
      }
    }
  } else {
    // Graceful degradation: the fleet shrank, so every outstanding deadline
    // job's quote is stale — re-quote now and shed what can no longer make
    // it (better an honest early shed than a missed deadline later).
    requote_outstanding_locked();
  }
  return true;
}

AdmissionDecision Scheduler::requote_locked(const Job& job, int alive) const {
  AdmissionConfig acfg;
  acfg.spec = cfg_.spec;
  acfg.devices = alive;
  acfg.shared_link = cfg_.shared_link;
  acfg.checkpoint_every = cfg_.checkpoint_every;
  acfg.memory_fraction = cfg_.admission_memory_fraction;
  acfg.paper_calibration = cfg_.paper_calibration;
  JobSpec pinned = job.spec;
  // A resume must keep the checkpointed panel width — no re-autotuning.
  pinned.blocksize = job.blocksize;
  return admit_job(pinned, acfg);
}

void Scheduler::shed_locked(Job& job, const std::string& reason) {
  job.state = JobState::Shed;
  job.preempt_requested = false;
  job.failure = reason;
  ++shed_events_;
  counter("serve.jobs_shed").increment();
}

void Scheduler::requote_outstanding_locked() {
  const int alive = alive_devices_locked();
  for (const auto& up : jobs_) {
    Job& job = *up;
    if (job.spec.deadline_seconds <= 0) continue;
    if (job.state != JobState::Queued && job.state != JobState::Preempted) {
      continue;
    }
    const AdmissionDecision d = requote_locked(job, alive);
    if (!d.admitted) {
      shed_locked(job, "load-shed after device loss: " + d.reason);
    } else if (job.stats.total_seconds + d.predicted_seconds >
               job.spec.deadline_seconds) {
      shed_locked(job,
                  "load-shed after device loss: " +
                      std::to_string(job.stats.total_seconds +
                                     d.predicted_seconds) +
                      "s predicted on " + std::to_string(alive) +
                      " surviving device(s) exceeds the " +
                      std::to_string(job.spec.deadline_seconds) + "s deadline");
    } else {
      job.predicted_seconds = d.predicted_seconds;
      job.predicted_peak_bytes = d.predicted_peak_bytes;
    }
  }
}

void Scheduler::migrate_locked(Job& job, const std::string& failure) {
  const int alive = alive_devices_locked();
  if (alive == 0) {
    job.state = JobState::Failed;
    job.failure = failure + " (no surviving devices to migrate to)";
    counter("serve.jobs_failed").increment();
    return;
  }
  const AdmissionDecision d = requote_locked(job, alive);
  if (!d.admitted) {
    shed_locked(job, "load-shed after device loss: " + d.reason);
    return;
  }
  if (job.spec.deadline_seconds > 0 &&
      job.stats.total_seconds + d.predicted_seconds >
          job.spec.deadline_seconds) {
    shed_locked(job,
                "load-shed after device loss: remaining work no longer fits "
                "the deadline on " +
                    std::to_string(alive) + " surviving device(s)");
    return;
  }
  // Checkpoint-driven migration: requeue from the latest checkpoint. Not a
  // retry — the job did nothing wrong, its device did.
  job.state = JobState::Queued;
  job.preempt_requested = false;
  job.predicted_seconds = d.predicted_seconds;
  job.predicted_peak_bytes = d.predicted_peak_bytes;
  job.failure = failure;
  ++job.migrations;
  ++migrate_events_;
  counter("serve.jobs_migrated").increment();
  if (job.gang && job.has_checkpoint &&
      job.checkpoint.leaves > job.checkpoint.units_done) {
    // Leaf re-hosting accounting: the leaves not yet factored re-plan onto
    // the survivors when the gang resumes.
    counter("serve.tsqr_leaves_rehosted")
        .add(job.checkpoint.leaves - job.checkpoint.units_done);
  }
  job.ready_sim = sim_now_locked();
}

int Scheduler::watchdog_tripped_locked(Job& job) {
  if (cfg_.watchdog_timeout <= 0) return -1;
  for (size_t g = 0; g < job.devices.size(); ++g) {
    const auto& events =
        devices_[static_cast<size_t>(job.devices[g])]->trace().events();
    size_t& from = job.watch_from[g];
    for (size_t i = from; i < events.size(); ++i) {
      if (events[i].end - events[i].start > cfg_.watchdog_timeout) {
        from = i + 1;
        return job.devices[g];
      }
    }
    from = events.size();
  }
  return -1;
}

void Scheduler::maybe_preempt_locked() {
  if (!cfg_.preemption) return;
  Job* top = pick_locked();
  if (top == nullptr) return;
  if (top->gang) {
    // A gang needs the whole fleet, so even one lower-priority running job
    // blocks it: ask every strictly-lower-priority running job (possibly a
    // running gang) to yield at its next checkpoint. Equal-or-higher
    // priority work finishes first and the drain completes naturally.
    for (const auto& up : jobs_) {
      Job& job = *up;
      if (job.state != JobState::Running || job.preempt_requested) continue;
      if (job.spec.priority >= top->spec.priority) continue;
      job.preempt_requested = true;
    }
    return;
  }
  if (running_ < cfg_.devices) return; // an idle device will take it
  // Victim: a running job of strictly lower priority, preferring the one
  // with the most columns still to factor (least completed work thrown
  // away, and — since its progress is bounded by the fleet's — its next
  // checkpoint cannot be its last, so the yield actually happens).
  Job* victim = nullptr;
  index_t victim_remaining = 0;
  for (const auto& up : jobs_) {
    Job& job = *up;
    if (job.state != JobState::Running || job.preempt_requested) continue;
    if (job.spec.priority >= top->spec.priority) continue;
    const index_t done = job.has_checkpoint ? job.checkpoint.columns_done : 0;
    const index_t remaining = job.spec.n - done;
    if (victim == nullptr || remaining > victim_remaining) {
      victim = &job;
      victim_remaining = remaining;
    }
  }
  if (victim != nullptr) victim->preempt_requested = true;
}

void Scheduler::on_unit_completed(Job& job, const qr::Checkpoint& cp) {
  // Copy the (possibly large, Real-mode) snapshot outside the lock; the
  // sink contract requires a copy anyway, the driver reuses its buffers.
  qr::Checkpoint copy = cp;
  bool unwind = false;
  int wd = -1;
  {
    std::unique_lock<std::mutex> lk(mutex_);
    // The driver synchronized before checkpointing, so each held device's
    // trace end is its simulated "now". Publish the new bounds first (it
    // lets devices waiting on us proceed). Only the events added since the
    // last checkpoint are folded in: the bound is a running maximum, and a
    // rescan of the whole trace per checkpoint is quadratic in its length.
    for (const int d : job.devices) {
      const auto du = static_cast<size_t>(d);
      const auto& events = devices_[du]->trace().events();
      for (size_t& i = trace_folded_[du]; i < events.size(); ++i) {
        device_avail_[du] = std::max(device_avail_[du], events[i].end);
      }
    }
    job.checkpoint = std::move(copy);
    job.has_checkpoint = true;
    if (job.devices.size() == 1) {
      // Wait for our turn in global simulated-time order before acting on
      // the event. A gang skips this: it holds every device it would wait
      // on, so waiting would deadlock on itself.
      const auto du = static_cast<size_t>(job.devices.front());
      cv_.notify_all();
      while (!may_act_locked(job.devices.front(), device_avail_[du])) {
        cv_.wait(lk);
      }
    }
    ++fleet_units_;
    release_arrivals_locked();
    maybe_preempt_locked();
    // Never yield on the final checkpoint: the factorization is complete,
    // preempting would only discard a finished job. (tsqr checkpoints are
    // per-leaf with columns_done == 0, so a gang always unwinds: the
    // reduction tree and reconstruction sweep still lie ahead.)
    unwind = job.preempt_requested && cp.columns_done < cp.n;
    wd = watchdog_tripped_locked(job);
  }
  counter("serve.units_completed").increment();
  cv_.notify_all();
  // A watchdog trip outranks a preemption: the attempt must unwind as a
  // device failure, not park as resumable-by-priority.
  if (wd >= 0) throw WatchdogTrip{wd};
  if (unwind) throw PreemptRequest{};
}

void Scheduler::worker(int device_index) {
  const auto du = static_cast<size_t>(device_index);
  for (;;) {
    Attempt at;
    {
      std::unique_lock<std::mutex> lk(mutex_);
      Job* job = nullptr;
      for (;;) {
        // A dead device never hosts work again; its worker retires. The
        // surviving workers keep draining the queue (including whatever
        // migrated off this device).
        if (device_health_[du] == DeviceHealth::Dead) return;
        release_arrivals_locked();
        Job* candidate = dispatchable_locked();
        // A running gang holds this device although another worker started
        // it: dispatching here would run two jobs on one device at once.
        if (candidate != nullptr && device_busy_[du] == 0 &&
            may_act_locked(device_index, device_avail_[du])) {
          job = candidate;
          break;
        }
        if (!work_pending_locked()) return;
        if (candidate == nullptr && running_ == 0) {
          // Nothing running, nothing dispatchable, but jobs pending: the
          // only work left is behind arrival gates that can no longer open
          // (no units will complete). Force the earliest gate so the batch
          // always drains.
          if (force_earliest_arrival_locked()) continue;
        }
        cv_.wait(lk);
      }
      at.members.push_back(job);
      if (job->gang) {
        // Atomic acquisition of the surviving fleet: dispatchable_locked
        // only returned the gang with every device idle, so marking them
        // all busy under this lock cannot race another dispatch. Dead
        // devices are excluded — a re-planned gang runs on the survivors.
        at.kind = Attempt::Kind::Gang;
        for (int e = 0; e < cfg_.devices; ++e) {
          if (device_health_[static_cast<size_t>(e)] != DeviceHealth::Dead) {
            at.devices.push_back(e);
          }
        }
        gang_active_ = true;
      } else {
        at.devices.push_back(device_index);
        // Batched small-QR coalescing, tried first: further ready jobs
        // identical to the primary (shape, blocksize, precision, panel
        // options, checkpoint position — run_fused_batch's contract) run as
        // ONE block-diagonal batched node program, paying each round's
        // fixed per-op latencies once instead of once per job. ABFT jobs
        // cannot fuse (the batched GEMM carries no per-job checksum).
        const auto fusable = [](const Job& j) {
          return j.spec.algorithm == "blocking" &&
                 j.spec.deadline_seconds <= 0 && !j.spec.options.abft;
        };
        // Deadline jobs never share a device: their admission prediction
        // assumed a dedicated one.
        const auto colocatable = [](const Job& j) {
          return colocatable_algorithm(j.spec.algorithm) &&
                 j.spec.deadline_seconds <= 0;
        };
        if (fusable(*job)) {
          claim_extras_locked(at, cfg_.max_fused_jobs, [&](const Job& e) {
            return fusable(e) && e.spec.m == job->spec.m &&
                   e.spec.n == job->spec.n && e.blocksize == job->blocksize &&
                   e.spec.precision == job->spec.precision &&
                   e.spec.options.panel_algorithm ==
                       job->spec.options.panel_algorithm &&
                   e.spec.options.panel_base == job->spec.options.panel_base &&
                   e.units_done() == job->units_done();
          });
        }
        if (at.members.size() > 1) {
          at.kind = Attempt::Kind::Fused;
        } else if (colocatable(*job)) {
          // DAG multi-tenancy: further ready single-device jobs (tiled,
          // blocking, or left — mixed freely) share the device as one task
          // graph (run_batch), so they must share the primary's precision
          // (the graph-level knobs come from one options set).
          claim_extras_locked(at, cfg_.max_colocated_jobs, [&](const Job& e) {
            return colocatable(e) && e.spec.precision == job->spec.precision;
          });
          if (at.members.size() > 1) at.kind = Attempt::Kind::Colocated;
        }
      }
      for (const int d : at.devices) {
        device_busy_[static_cast<size_t>(d)] = 1;
        at.windows.push_back(devices_[static_cast<size_t>(d)]->trace().size());
      }
      running_ += static_cast<int>(at.devices.size());
      for (Job* member : at.members) {
        member->state = JobState::Running;
        member->preempt_requested = false;
        ++member->attempts;
        member->last_device = device_index;
        member->devices = at.devices;
        member->watch_from = at.windows;
        // Exact simulated queue wait of this episode: the dispatching
        // device's availability bound is the dispatch instant. Recorded
        // exactly (FleetReport percentiles) and quantized into the live
        // power-of-two-bucket histogram.
        const double waited =
            std::max(0.0, device_avail_[du] - member->ready_sim);
        member->queue_wait_seconds += waited;
        queue_waits_.push_back(waited);
        telemetry::MetricsRegistry::global()
            .histogram("serve.queue_wait_us")
            .observe(static_cast<std::int64_t>(waited * 1e6));
      }
      cv_.notify_all();
    }
    run_attempt(at);
  }
}

void Scheduler::claim_extras_locked(
    Attempt& at, int cap, const std::function<bool(const Job&)>& compatible) {
  if (static_cast<int>(at.members.size()) >= cap) return;
  // Only pack when the ready queue outnumbers the idle devices — with a
  // free device per ready job, exclusive ownership is strictly faster — and
  // only while the summed predicted peaks fit the admission budget.
  int surplus = 0;
  for (const auto& up : jobs_) surplus += up->ready();
  for (const char busy : device_busy_) surplus -= busy == 0;
  const auto budget = static_cast<bytes_t>(
      cfg_.admission_memory_fraction *
      static_cast<double>(cfg_.spec.memory_capacity));
  const Job* primary = at.members.front();
  bytes_t used = primary->predicted_peak_bytes;
  for (const auto& up : jobs_) {
    if (static_cast<int>(at.members.size()) >= cap || surplus <= 0) break;
    Job& extra = *up;
    if (&extra == primary || !extra.ready() || !compatible(extra)) continue;
    if (used + extra.predicted_peak_bytes > budget) continue;
    used += extra.predicted_peak_bytes;
    --surplus;
    at.members.push_back(&extra);
  }
}

void Scheduler::run_attempt(const Attempt& at) {
  std::vector<sim::Device*> devs;
  for (const int d : at.devices) {
    devs.push_back(devices_[static_cast<size_t>(d)].get());
  }
  const bool batched = at.kind == Attempt::Kind::Colocated ||
                       at.kind == Attempt::Kind::Fused;
  // Per-member sinks: each member checkpoints (and can be preempted) under
  // its own identity even when the members share one task graph.
  std::vector<std::unique_ptr<PreemptSink>> sinks;
  std::vector<qr::detail::BatchJob> bjobs;
  qr::Checkpoint start; // resume point of a solo or gang attempt
  std::string names;
  for (Job* member : at.members) {
    Job& job = *member;
    sim::HostMutRef a =
        job.spec.a.data != nullptr
            ? job.spec.a
            : sim::HostMutRef::phantom(job.spec.m, job.spec.n);
    sim::HostMutRef r =
        job.spec.r.data != nullptr
            ? job.spec.r
            : sim::HostMutRef::phantom(job.spec.n, job.spec.n);
    qr::Checkpoint cp;
    {
      // Every attempt — including the first — starts from the job's latest
      // consistent state, so preemption resumes and fault retries share one
      // path. The unit-0 "checkpoint" snapshots the pristine inputs: a
      // Real-mode retry must not re-factor a half-mutated A.
      std::lock_guard<std::mutex> lk(mutex_);
      if (!job.has_checkpoint) {
        job.checkpoint.driver = job.spec.algorithm;
        job.checkpoint.m = job.spec.m;
        job.checkpoint.n = job.spec.n;
        job.checkpoint.blocksize = job.blocksize;
        job.checkpoint.a = snapshot_host(a);
        job.checkpoint.r = snapshot_host(r);
        job.has_checkpoint = true;
      }
      cp = job.checkpoint;
    }
    sinks.push_back(std::make_unique<PreemptSink>(*this, job));
    qr::QrOptions opts = job.spec.options;
    opts.blocksize = job.blocksize;
    opts.precision = job.spec.precision;
    opts.checkpoint_sink = sinks.back().get();
    opts.checkpoint_every = cfg_.checkpoint_every;
    opts.resume_units = 0;
    if (batched) {
      // The batch runners take already-restored host data plus per-job
      // resume_units (what qr::resume does for a solo job). Fused members
      // all sit at the same checkpoint position (the fusion contract).
      restore_host(a, cp.a);
      restore_host(r, cp.r);
      opts.resume_units = cp.units_done;
    } else {
      start = std::move(cp);
    }
    bjobs.push_back(qr::detail::BatchJob{job.spec.algorithm, a, r, opts,
                                         job_label(job.id)});
    names += (names.empty() ? "" : "+") + job.spec.name;
  }

  try {
    {
      const Job& first = *at.members.front();
      std::string span_name = "serve.job " + first.spec.name + " attempt " +
                              std::to_string(first.attempts);
      if (batched) {
        span_name = (at.kind == Attempt::Kind::Fused ? "serve.fused "
                                                      : "serve.batch ") +
                    names;
      }
      std::vector<std::unique_ptr<sim::TraceSpan>> spans;
      for (sim::Device* dev : devs) {
        spans.push_back(std::make_unique<sim::TraceSpan>(*dev, span_name));
      }
      const qr::detail::BatchJob& j0 = bjobs.front();
      switch (at.kind) {
      case Attempt::Kind::Solo:
      case Attempt::Kind::Gang:
        // On one device or across the gang's fleet, the driver named by
        // the checkpoint's tag.
        qr::resume(qr::QrProblem{devs, j0.a, j0.r,
                                 *qr::parse_algorithm(j0.algorithm), j0.opts},
                   start);
        break;
      case Attempt::Kind::Colocated:
        qr::detail::run_batch(*devs.front(), bjobs);
        break;
      case Attempt::Kind::Fused:
        qr::detail::run_fused_batch(*devs.front(), bjobs);
        break;
      }
    }
    finish_attempt(at, JobState::Completed, "", AttemptOutcome::Clean, -1);
  } catch (const PreemptRequest&) {
    // A member's sink threw right after a checkpoint write, which had
    // already synchronized the device; RAII unwound every driver
    // allocation. Every member requeues from its own latest checkpoint — a
    // member that had already finished resumes into an immediate no-op.
    sim::synchronize_all(devs);
    finish_attempt(at, JobState::Preempted, "", AttemptOutcome::Clean, -1);
  } catch (const WatchdogTrip& w) {
    sim::synchronize_all(devs);
    finish_attempt(at, JobState::Queued,
                   "watchdog: an operation exceeded the " +
                       std::to_string(cfg_.watchdog_timeout) +
                       "s simulated timeout",
                   AttemptOutcome::DeviceFailure, w.device);
  } catch (const Error& e) {
    // Dead-device RAII contract: free/synchronize stay usable after a
    // fatal fault, so this unwind leaks nothing even on a lost device.
    sim::synchronize_all(devs);
    // A held device that is dead makes this a device loss. Otherwise a
    // single-device attempt strikes its device; a gang's error names no
    // device, so it strikes nobody.
    int lost = -1;
    for (size_t g = 0; g < devs.size() && lost < 0; ++g) {
      if (devs[g]->dead()) lost = at.devices[g];
    }
    if (lost >= 0) {
      finish_attempt(at, JobState::Queued, e.what(),
                     AttemptOutcome::DeviceLoss, lost);
    } else {
      finish_attempt(at, JobState::Queued, e.what(),
                     AttemptOutcome::DeviceFailure,
                     at.kind == Attempt::Kind::Gang ? -1 : at.devices.front());
    }
  }
}

void Scheduler::finish_attempt(const Attempt& at, JobState state,
                               const std::string& failure,
                               AttemptOutcome outcome, int failed_device) {
  {
    std::lock_guard<std::mutex> lk(mutex_);
    std::vector<qr::QrStats> per_device;
    for (size_t g = 0; g < at.devices.size(); ++g) {
      const auto d = static_cast<size_t>(at.devices[g]);
      per_device.push_back(qr::stats_from_trace(
          devices_[d]->trace(), at.windows[g], devices_[d]->memory_peak()));
      if (per_device.back().events > 0) {
        device_avail_[d] =
            std::max(device_avail_[d], per_device.back().last_end);
      }
      device_busy_[d] = 0;
    }
    running_ -= static_cast<int>(at.devices.size());
    if (at.kind == Attempt::Kind::Gang) gang_active_ = false;
    for (Job* member : at.members) {
      // Per-member attribution of the attempt's trace windows.
      qr::QrStats s;
      switch (at.kind) {
      case Attempt::Kind::Solo:
      case Attempt::Kind::Gang:
        // The whole window of every held device (one, for a solo job).
        s = qr::combine_device_stats(per_device);
        break;
      case Attempt::Kind::Colocated: {
        // The shared window filtered by the member's "j<id>." op prefix.
        const sim::Device& dev =
            *devices_[static_cast<size_t>(at.devices.front())];
        s = qr::stats_from_trace(dev.trace(), at.windows.front(),
                                 dev.memory_peak(), job_label(member->id));
        break;
      }
      case Attempt::Kind::Fused:
        s = qr::detail::split_fused_stats(
            per_device.front(), static_cast<int>(at.members.size()));
        break;
      }
      accumulate_stats(member->stats, s);
    }
    bool newly_dead = false;
    switch (outcome) {
    case AttemptOutcome::DeviceLoss:
      newly_dead = declare_dead_locked(failed_device);
      break;
    case AttemptOutcome::DeviceFailure:
      // A failure that names no device strikes nobody.
      if (failed_device >= 0) {
        newly_dead = note_device_failure_locked(failed_device);
      }
      break;
    case AttemptOutcome::Clean:
      for (const int d : at.devices) note_device_success_locked(d);
      break;
    }
    for (Job* member : at.members) {
      if (newly_dead && state != JobState::Completed &&
          state != JobState::Preempted) {
        // The device died under this attempt: every member migrates
        // (re-quote + requeue from its own latest checkpoint), not a retry.
        // A gang's checkpoint pins the leaf layout, so the resumed gang on
        // the survivors reproduces the clean result bit for bit.
        migrate_locked(*member, failure);
      } else if (state == JobState::Queued &&
                 member->retries >= cfg_.max_job_retries) {
        record_outcome_locked(*member, JobState::Failed, failure);
      } else {
        record_outcome_locked(*member, state, failure);
      }
    }
  }
  cv_.notify_all();
}

void Scheduler::record_outcome_locked(Job& job, JobState state,
                                      const std::string& failure) {
  job.state = state;
  job.preempt_requested = false;
  switch (state) {
  case JobState::Completed:
    counter("serve.jobs_completed").increment();
    break;
  case JobState::Preempted:
    ++job.preemptions;
    ++preempt_events_;
    counter("serve.jobs_preempted").increment();
    job.ready_sim = sim_now_locked();
    break;
  case JobState::Queued: // fault retry
    ++job.retries;
    ++retry_events_;
    counter("serve.job_retries").increment();
    job.failure = failure; // latest error; cleared on completion
    job.ready_sim = sim_now_locked();
    break;
  default:
    job.failure = failure;
    counter("serve.jobs_failed").increment();
    break;
  }
  if (state == JobState::Completed) job.failure.clear();
}

FleetReport Scheduler::build_report() {
  FleetReport rep;
  rep.devices = cfg_.devices;
  for (const auto& dev : devices_) {
    rep.per_device.push_back(
        qr::stats_from_trace(dev->trace(), 0, dev->memory_peak()));
  }
  rep.fleet = qr::combine_device_stats(rep.per_device);
  rep.makespan_seconds = rep.fleet.total_seconds;
  rep.units_completed = fleet_units_;
  rep.jobs_preempted = preempt_events_;
  rep.job_retries = retry_events_;
  rep.devices_lost = devices_lost_;
  rep.jobs_migrated = migrate_events_;
  rep.jobs_shed = shed_events_;
  for (const DeviceHealth h : device_health_) {
    rep.device_health.emplace_back(to_string(h));
  }
  // Exact tail latency from the per-dispatch record (nearest-rank): the
  // telemetry histogram's power-of-two buckets would be off by up to 2x.
  rep.queue_waits = queue_waits_;
  if (!queue_waits_.empty()) {
    std::vector<double> sorted = queue_waits_;
    std::sort(sorted.begin(), sorted.end());
    const auto pct = [&sorted](double p) {
      const auto rank = static_cast<size_t>(
          std::ceil(p * static_cast<double>(sorted.size())));
      return sorted[std::max<size_t>(rank, 1) - 1];
    };
    rep.queue_wait_p50 = pct(0.50);
    rep.queue_wait_p95 = pct(0.95);
    rep.queue_wait_p99 = pct(0.99);
  }
  for (const auto& up : jobs_) {
    const Job& job = *up;
    JobReport jr;
    jr.id = job.id;
    jr.name = job.spec.name;
    jr.state = job.state;
    jr.priority = job.spec.priority;
    jr.algorithm = job.spec.algorithm;
    jr.m = job.spec.m;
    jr.n = job.spec.n;
    jr.blocksize = job.blocksize;
    jr.predicted_seconds = job.predicted_seconds;
    jr.predicted_peak_bytes = job.predicted_peak_bytes;
    jr.failure = job.failure;
    jr.attempts = job.attempts;
    jr.preemptions = job.preemptions;
    jr.retries = job.retries;
    jr.migrations = job.migrations;
    jr.last_device = job.last_device;
    jr.queue_wait_seconds = job.queue_wait_seconds;
    jr.deadline_met =
        job.spec.deadline_seconds <= 0 ||
        (job.state == JobState::Completed &&
         job.stats.total_seconds <= job.spec.deadline_seconds);
    jr.stats = job.stats;
    rep.jobs.push_back(std::move(jr));
    switch (job.state) {
    case JobState::Rejected: ++rep.jobs_rejected; break;
    case JobState::Completed:
      ++rep.jobs_admitted;
      ++rep.jobs_completed;
      break;
    case JobState::Failed:
      ++rep.jobs_admitted;
      ++rep.jobs_failed;
      break;
    default: ++rep.jobs_admitted; break;
    }
  }
  return rep;
}

} // namespace rocqr::serve
