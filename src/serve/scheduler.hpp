// Multi-job QR service scheduler over a simulated device fleet
// (docs/SERVING.md).
//
// The Scheduler owns N sim::Devices (optionally behind one SharedHostLink)
// and drives a batch of admitted JobSpecs to completion with one worker per
// device on a private ThreadPool. Workers race in host wall-clock but the
// fleet advances in *simulated-time* order: a worker only dispatches a job
// or passes a checkpoint when no other device could still act at an earlier
// simulated instant (a conservative event-ordering gate on per-device
// availability bounds, advanced at every checkpoint). Dispatch is a
// priority queue with backfill: the highest-priority ready job runs next on
// the earliest-available device, and jobs whose arrival gate has not opened
// yet are skipped so lower-priority ready work fills the idle devices.
//
// Every dispatch is one *Attempt*: the devices it holds, the member jobs it
// runs and a runner. There are four kinds, and they differ only in the
// runner and in how the attempt's trace windows are attributed to members:
//   - solo: one job on one device, run by qr::resume; the member gets the
//     whole window.
//   - colocated: several single-device jobs ("tiled", "blocking", "left",
//     mixed freely; same precision; deadline-free) as ONE task graph via
//     qr::detail::run_batch, so one job's transfers overlap another's
//     computes. Each member gets the window filtered by its "j<id>." op
//     prefix. Enabled by max_colocated_jobs > 1.
//   - fused: same-shape, same-precision "blocking" jobs (also sharing
//     blocksize, panel options and checkpoint position) as ONE
//     block-diagonal batched node program via qr::detail::run_fused_batch,
//     paying the fixed per-op latencies once per round instead of once per
//     job. Each member gets an even 1/K split. Enabled by max_fused_jobs > 1
//     and tried before colocation.
//   - gang: a "tsqr" job acquires every alive device atomically and runs
//     qr::resume over the fleet; the member gets qr::combine_device_stats
//     over the held devices. While a gang is the top pick the fleet drains
//     (idle workers stop backfilling; with preemption on, strictly
//     lower-priority running jobs are asked to yield) until it can
//     dispatch, so backfill can never starve it.
// Batches only form when the ready queue outnumbers the idle devices and
// the members' summed predicted peaks fit the admission budget; one claim
// helper applies those rules with a per-kind compatibility predicate.
//
// All kinds share one attempt path: every member starts from its latest
// checkpoint (a unit-0 snapshot before the first dispatch) and checkpoints
// through its own sink, which is also the preemption point. When every
// device is busy and a strictly higher-priority job becomes ready, the
// running job with the lowest priority (most remaining columns first) is
// asked to yield; its sink unwinds the whole attempt at the next checkpoint
// and every member resumes later bit-identical to an uninterrupted run,
// solo or in a different batch. A failed attempt retries every member from
// its own checkpoint, up to max_job_retries each.
//
// Fleet health (docs/SERVING.md "Fleet failover & load shedding"): every
// device carries a Healthy/Suspect/Dead state. A failed attempt strikes its
// device (a gang's unattributed error strikes nobody);
// device_failure_threshold consecutive strikes — or a DeviceLost error
// (injected `fatal` fault), or a simulated-clock watchdog trip (an op
// exceeding watchdog_timeout) — declare it Dead. A dead device's worker
// exits, and every member of the attempt that killed it is *migrated*:
// re-quoted through the phantom admission path against the surviving fleet
// and requeued from its latest checkpoint (not charged against
// max_job_retries). A TSQR gang that loses a member re-plans on the
// survivors: the checkpoint pins the leaf partition, completed leaves keep
// their stacked R factors, and only the dead member's leaves re-factor —
// the result stays bit-identical to an uninterrupted run at that leaf
// layout. After every fleet shrink, outstanding deadline jobs are re-quoted
// against the remaining capacity and the ones that can no longer make their
// deadline are load-shed (JobState::Shed — a distinct terminal state, not
// a failure).
#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "qr/checkpoint.hpp"
#include "serve/admission.hpp"
#include "serve/job.hpp"
#include "sim/device.hpp"

namespace rocqr::serve {

struct ServeConfig {
  sim::DeviceSpec spec = sim::DeviceSpec::v100_32gb();
  int devices = 1;
  sim::ExecutionMode mode = sim::ExecutionMode::Phantom;
  /// One PCIe root complex for the whole fleet (host transfers serialize).
  bool shared_link = false;
  bool paper_calibration = true;
  /// Per-device fault plan specs (sim::FaultPlan grammar); "" = clean, and
  /// devices beyond the vector's length are clean.
  std::vector<std::string> device_faults;
  /// Allow checkpoint-boundary preemption of lower-priority running jobs.
  bool preemption = true;
  /// Checkpoint cadence of every attempt (units between sink writes). Also
  /// the preemption latency: a job can only yield at a written checkpoint.
  index_t checkpoint_every = 1;
  /// Fault-triggered restarts per job before it is marked Failed.
  int max_job_retries = 2;
  /// Admission head-room: reject jobs predicted to exceed this fraction of
  /// device memory.
  double admission_memory_fraction = 1.0;
  /// Maximum single-device jobs (tiled/blocking/left) colocated on one
  /// device as a single task graph (DAG multi-tenancy). 1 = every job owns
  /// its device exclusively.
  /// Colocated extras must match the primary's precision and their summed
  /// predicted peaks must fit the admission budget.
  int max_colocated_jobs = 1;
  /// Maximum same-shape "blocking" jobs *fused* into one batched node
  /// program (qr::detail::run_fused_batch): per panel round the fused graph
  /// issues one batched move-in / panel kernel / GEMM pair / move-out
  /// covering all members, so the fixed per-op latencies are paid once per
  /// round instead of once per job — the batched small-QR serving path.
  /// 1 = off. Fused members must share m/n/blocksize/precision/panel
  /// options and checkpoint position, be deadline-free and abft-free, and
  /// their summed predicted peaks must fit the admission budget. Fusion is
  /// tried before colocation; per-member results stay bit-identical to solo
  /// runs (tests/qr_fused_batch_test.cpp).
  int max_fused_jobs = 1;
  /// Per-op watchdog (simulated seconds): at every checkpoint the scheduler
  /// scans the attempt's new trace events and treats any single operation
  /// longer than this as a hang — the attempt unwinds and the offending
  /// device takes a health strike (it need not have *thrown* anything).
  /// 0 = disabled.
  double watchdog_timeout = 0;
  /// Consecutive failed attempts (thrown faults or watchdog trips) on one
  /// device before it is declared Dead. The first strike marks it Suspect;
  /// a successful attempt clears the strikes. A DeviceLost error kills the
  /// device immediately regardless of this threshold.
  int device_failure_threshold = 3;
};

/// Per-device health state driven by the scheduler's failure accounting.
enum class DeviceHealth { Healthy, Suspect, Dead };

const char* to_string(DeviceHealth h);

class Scheduler {
 public:
  explicit Scheduler(ServeConfig cfg);
  ~Scheduler();

  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// Admission control: phantom dry run of the job as the fleet would run
  /// it. Admitted jobs are queued for run(); rejected jobs are recorded
  /// (and reported) but never dispatched. Call before run().
  AdmissionDecision submit(const JobSpec& spec);

  /// Builds the fleet and drives every admitted job to a terminal state.
  /// Single-shot: a second call throws InvalidArgument.
  FleetReport run();

  const ServeConfig& config() const { return cfg_; }

  /// The fleet (populated by run(); empty before). Exposed so callers can
  /// export traces or derive their own aggregate views.
  const std::vector<std::unique_ptr<sim::Device>>& devices() const {
    return devices_;
  }

 private:
  struct Job;
  struct Attempt;
  class PreemptSink;
  /// Internal unwind token thrown from the checkpoint sink. Deliberately
  /// not a rocqr::Error so no driver-level recovery path can swallow it.
  struct PreemptRequest {};
  /// Internal unwind token for a watchdog trip (an op exceeded
  /// ServeConfig::watchdog_timeout on `device`). Like PreemptRequest, not a
  /// rocqr::Error so nothing downstream can absorb it.
  struct WatchdogTrip {
    int device = -1;
  };
  /// How an attempt ended, for the device-health accounting: Clean resets
  /// the device's strikes, DeviceFailure adds one (Suspect, then Dead at
  /// the threshold), DeviceLoss kills the device outright.
  enum class AttemptOutcome { Clean, DeviceFailure, DeviceLoss };

  void worker(int device_index);
  /// Adds further ready jobs that satisfy `compatible` to the attempt, up
  /// to `cap` members, while the ready queue outnumbers the idle devices
  /// and the summed predicted peaks fit the admission budget.
  void claim_extras_locked(Attempt& at, int cap,
                           const std::function<bool(const Job&)>& compatible);
  void run_attempt(const Attempt& at);
  /// Releases the attempt's devices, attributes its trace windows to the
  /// members, applies the device-health outcome (`failed_device` is the
  /// device to strike or kill, -1 for none) and moves every member to
  /// `state` — Failed once its retries are exhausted, migrated when the
  /// attempt just killed its device.
  void finish_attempt(const Attempt& at, JobState state,
                      const std::string& failure, AttemptOutcome outcome,
                      int failed_device);
  void record_outcome_locked(Job& job, JobState state,
                             const std::string& failure);
  void on_unit_completed(Job& job, const qr::Checkpoint& cp);
  // --- Fleet health & failover ---------------------------------------------
  int alive_devices_locked() const;
  /// Adds a strike to the device; returns true if it just became Dead.
  bool note_device_failure_locked(int device_index);
  void note_device_success_locked(int device_index);
  /// Marks the device Dead (idempotent; returns true on the transition),
  /// then re-quotes outstanding deadline jobs against the shrunken fleet
  /// and fails stranded work if no device survives.
  bool declare_dead_locked(int device_index);
  /// Phantom re-admission of `job` on `alive` devices with its blocksize
  /// pinned (a resume must keep the checkpointed panel width).
  AdmissionDecision requote_locked(const Job& job, int alive) const;
  void shed_locked(Job& job, const std::string& reason);
  void requote_outstanding_locked();
  /// Requeues a job whose device died: re-quoted onto the survivors, not
  /// charged against max_job_retries; sheds/fails it if no survivor can
  /// take it.
  void migrate_locked(Job& job, const std::string& failure);
  /// Scans the attempt's new trace events for an op longer than the
  /// watchdog timeout; returns the offending device or -1. Advances the
  /// job's scan cursors.
  int watchdog_tripped_locked(Job& job);
  bool may_act_locked(int device_index, double t) const;
  /// Latest availability bound published by any alive device — the fleet's
  /// simulated "now" for queue-wait accounting.
  double sim_now_locked() const;
  void release_arrivals_locked();
  bool force_earliest_arrival_locked();
  bool work_pending_locked() const;
  Job* pick_locked() const;
  Job* dispatchable_locked() const;
  void maybe_preempt_locked();
  FleetReport build_report();

  ServeConfig cfg_;
  std::vector<std::unique_ptr<Job>> jobs_;
  std::vector<std::unique_ptr<sim::Device>> devices_;

  std::mutex mutex_;
  std::condition_variable cv_;
  /// Simulated-time availability bound per device: exact trace end while
  /// idle, the latest checkpoint's trace end while busy. Workers only
  /// dispatch or pass a checkpoint when their device is not ahead of any
  /// device that could still act earlier — the fleet advances in simulated
  /// -time order even though workers race in wall-clock.
  std::vector<double> device_avail_;
  /// Per device: trace events already folded into device_avail_.
  std::vector<size_t> trace_folded_;
  std::vector<char> device_busy_;
  index_t fleet_units_ = 0;
  /// Busy devices (a gang job counts as cfg_.devices of them).
  int running_ = 0;
  /// A gang job currently owns the whole fleet.
  bool gang_active_ = false;
  std::int64_t preempt_events_ = 0;
  std::int64_t retry_events_ = 0;
  /// Exact simulated queue wait of every dispatch, in dispatch order
  /// (FleetReport::queue_waits; exact percentiles come from here, the
  /// telemetry histogram only quantizes).
  std::vector<double> queue_waits_;
  std::vector<DeviceHealth> device_health_;
  /// Consecutive failed attempts per device (reset by a clean attempt).
  std::vector<int> device_failures_;
  int devices_lost_ = 0;
  std::int64_t migrate_events_ = 0;
  std::int64_t shed_events_ = 0;
  bool ran_ = false;
};

} // namespace rocqr::serve
