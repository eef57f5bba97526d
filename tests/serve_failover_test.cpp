// Fleet failover in the QR service (docs/SERVING.md "Fleet failover & load
// shedding"): a fatal fault kills a device permanently, the scheduler
// declares it dead and migrates its jobs from their latest checkpoints onto
// the survivors, a TSQR gang re-plans on the shrunken fleet bit-identically,
// the simulated-clock watchdog catches hangs without a thrown error, and
// deadline jobs that no longer fit the surviving capacity are load-shed
// (JobState::Shed) instead of failed. A colocated batch on a dying device
// migrates every member.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "la/generate.hpp"
#include "la/norms.hpp"
#include "leak_check.hpp"
#include "qr/factorize.hpp"
#include "qr/incore.hpp"
#include "serve/scheduler.hpp"
#include "sim/device.hpp"

namespace rocqr {
namespace {

using serve::AdmissionDecision;
using serve::FleetReport;
using serve::JobReport;
using serve::JobSpec;
using serve::JobState;
using serve::Scheduler;
using serve::ServeConfig;
using sim::Device;
using sim::ExecutionMode;

bool bitwise_equal(const la::Matrix& x, const la::Matrix& y) {
  for (index_t j = 0; j < x.cols(); ++j) {
    for (index_t i = 0; i < x.rows(); ++i) {
      if (x(i, j) != y(i, j)) return false;
    }
  }
  return true;
}

qr::QrOptions real_base(index_t blocksize) {
  qr::QrOptions opts;
  opts.blocksize = blocksize;
  opts.panel_base = 8;
  opts.precision = blas::GemmPrecision::FP32;
  return opts;
}

TEST(ServeFailover, GangSurvivesHardDeviceLossBitIdentical) {
  // The acceptance scenario: 1 of 4 Real devices dies mid-TSQR on a fatal
  // compute fault. m = 3n gives 3 leaves whether planned on 4 devices or on
  // the 3 survivors, so the migrated gang must reproduce a clean 3-device
  // run bit for bit (numerics depend on the leaf partition, never on the
  // device mapping).
  constexpr index_t kM = 144;
  constexpr index_t kN = 48;
  constexpr index_t kB = 24;

  ServeConfig cfg;
  cfg.devices = 4;
  cfg.mode = ExecutionMode::Real;
  cfg.device_faults = {"", "compute:fatal:after=1", "", ""};
  Scheduler sched(cfg);

  la::Matrix gang_a = la::random_normal(kM, kN, 81);
  la::Matrix gang_a0 = la::materialize(gang_a.view());
  la::Matrix gang_r(kN, kN);
  JobSpec gang;
  gang.name = "gang";
  gang.algorithm = "tsqr";
  gang.m = kM;
  gang.n = kN;
  gang.blocksize = kB;
  gang.precision = blas::GemmPrecision::FP32;
  gang.options = real_base(kB);
  gang.a = gang_a.view();
  gang.r = gang_r.view();
  const AdmissionDecision d = sched.submit(gang);
  ASSERT_TRUE(d.admitted) << d.reason;

  const FleetReport rep = sched.run();
  const JobReport& j = rep.jobs.at(static_cast<size_t>(d.job_id));
  ASSERT_EQ(j.state, JobState::Completed) << j.failure;
  EXPECT_EQ(rep.devices_lost, 1);
  EXPECT_GE(rep.jobs_migrated, 1);
  EXPECT_GE(j.migrations, 1);
  EXPECT_EQ(j.retries, 0); // migration is not charged as a retry
  EXPECT_EQ(rep.jobs_failed, 0);
  EXPECT_EQ(rep.jobs_shed, 0);
  ASSERT_EQ(rep.device_health.size(), 4u);
  EXPECT_EQ(rep.device_health[1], "dead");
  EXPECT_EQ(rep.device_health[0], "healthy");
  EXPECT_EQ(rep.device_health[2], "healthy");
  EXPECT_EQ(rep.device_health[3], "healthy");

  // Clean 3-device reference at the same 3-leaf layout.
  la::Matrix q_ref = la::materialize(gang_a0.view());
  la::Matrix r_ref(kN, kN);
  std::vector<std::unique_ptr<Device>> fleet;
  std::vector<Device*> ptrs;
  for (int i = 0; i < 3; ++i) {
    fleet.push_back(std::make_unique<Device>(cfg.spec, ExecutionMode::Real));
    fleet.back()->model().install_paper_calibration();
    ptrs.push_back(fleet.back().get());
  }
  qr::factorize(qr::QrProblem{ptrs, q_ref.view(), r_ref.view(),
                              qr::Algorithm::Tsqr, real_base(kB)});
  EXPECT_TRUE(bitwise_equal(gang_r, r_ref));
  EXPECT_TRUE(bitwise_equal(gang_a, q_ref));

  // The dead device's RAII unwind must not leak (free stays usable after a
  // fatal fault); the survivors drained naturally.
  for (const auto& dev : sched.devices()) {
    EXPECT_EQ(dev->live_allocations(), 0u);
  }
}

TEST(ServeFailover, SoloJobsMigrateOffDeadDevice) {
  constexpr index_t kM = 96;
  constexpr index_t kN = 72;
  constexpr index_t kB = 24;
  constexpr int kJobs = 4;

  ServeConfig cfg;
  cfg.devices = 2;
  cfg.mode = ExecutionMode::Real;
  // A 96x72 Real-mode attempt stages its input in a single H2D op, so
  // after=1 kills device 0 at the upload of the *second* job it touches.
  cfg.device_faults = {"h2d:fatal:after=1", ""};
  Scheduler sched(cfg);

  std::vector<la::Matrix> as;
  std::vector<la::Matrix> rs;
  as.reserve(kJobs);
  rs.reserve(kJobs);
  for (int i = 0; i < kJobs; ++i) {
    as.push_back(la::random_normal(kM, kN, 900 + i));
    rs.emplace_back(kN, kN);
    JobSpec job;
    job.name = "solo" + std::to_string(i);
    job.m = kM;
    job.n = kN;
    job.blocksize = kB;
    job.precision = blas::GemmPrecision::FP32;
    job.options = real_base(kB);
    job.a = as.back().view();
    job.r = rs.back().view();
    ASSERT_TRUE(sched.submit(job).admitted);
  }

  const FleetReport rep = sched.run();
  EXPECT_EQ(rep.jobs_completed, kJobs);
  EXPECT_EQ(rep.jobs_failed, 0);
  EXPECT_EQ(rep.devices_lost, 1);
  EXPECT_GE(rep.jobs_migrated, 1);
  ASSERT_EQ(rep.device_health.size(), 2u);
  EXPECT_EQ(rep.device_health[0], "dead");
  EXPECT_EQ(rep.device_health[1], "healthy");

  int migrated_jobs = 0;
  for (const JobReport& j : rep.jobs) {
    EXPECT_EQ(j.state, JobState::Completed) << j.name << ": " << j.failure;
    if (j.migrations > 0) {
      ++migrated_jobs;
      // Device loss is not the job's fault: no retry budget consumed.
      EXPECT_EQ(j.retries, 0) << j.name;
    }
  }
  EXPECT_GE(migrated_jobs, 1);

  // Checkpoint-driven migration resumes bit-identically, so every output
  // matches an uninterrupted solo run on a clean device.
  for (int i = 0; i < kJobs; ++i) {
    la::Matrix q_ref = la::random_normal(kM, kN, 900 + i);
    la::Matrix r_ref(kN, kN);
    Device solo(cfg.spec, ExecutionMode::Real);
    solo.model().install_paper_calibration();
    qr::factorize(qr::QrProblem{{&solo}, q_ref.view(), r_ref.view(),
                                qr::Algorithm::Recursive, real_base(kB)});
    EXPECT_TRUE(bitwise_equal(as[static_cast<size_t>(i)], q_ref)) << i;
    EXPECT_TRUE(bitwise_equal(rs[static_cast<size_t>(i)], r_ref)) << i;
  }

  for (const auto& dev : sched.devices()) {
    EXPECT_EQ(dev->live_allocations(), 0u);
  }
}

TEST(ServeFailover, ColocatedBatchMigratesOffDeadDevice) {
  // Device 0 dies (fatal H2D fault) under a colocated batch. Every member
  // of that batch migrates from its own latest checkpoint and completes on
  // device 1, bit-identical to a clean solo run, and the dead device's
  // unwind leaks no allocation.
  constexpr index_t kM = 96;
  constexpr index_t kN = 72;
  constexpr index_t kB = 24;
  const char* algos[] = {"tiled", "left", "blocking", "tiled"};
  constexpr int kJobs = 4;

  ServeConfig cfg;
  cfg.devices = 2;
  cfg.mode = ExecutionMode::Real;
  cfg.max_colocated_jobs = 2;
  cfg.device_faults = {"h2d:fatal:after=2", ""};
  Scheduler sched(cfg);

  std::vector<la::Matrix> as;
  std::vector<la::Matrix> rs;
  as.reserve(kJobs);
  rs.reserve(kJobs);
  for (int i = 0; i < kJobs; ++i) {
    as.push_back(la::random_normal(kM, kN, 950 + i));
    rs.emplace_back(kN, kN);
    JobSpec job;
    job.name = "coloc" + std::to_string(i);
    job.m = kM;
    job.n = kN;
    job.algorithm = algos[i];
    job.blocksize = kB;
    job.precision = blas::GemmPrecision::FP32;
    job.options = real_base(kB);
    job.a = as.back().view();
    job.r = rs.back().view();
    ASSERT_TRUE(sched.submit(job).admitted);
  }

  const FleetReport rep = sched.run();
  EXPECT_EQ(rep.jobs_completed, kJobs);
  EXPECT_EQ(rep.jobs_failed, 0);
  EXPECT_EQ(rep.devices_lost, 1);
  ASSERT_EQ(rep.device_health.size(), 2u);
  EXPECT_EQ(rep.device_health[0], "dead");
  EXPECT_EQ(rep.device_health[1], "healthy");

  // With four ready jobs on two idle devices each device's first dispatch
  // is a colocated pair, so exactly the two members of device 0's batch
  // migrate — and only to device 1.
  int migrated_jobs = 0;
  for (const JobReport& j : rep.jobs) {
    EXPECT_EQ(j.state, JobState::Completed) << j.name << ": " << j.failure;
    EXPECT_EQ(j.retries, 0) << j.name;
    EXPECT_EQ(j.last_device, 1) << j.name;
    if (j.migrations > 0) {
      ++migrated_jobs;
      EXPECT_EQ(j.migrations, 1) << j.name;
    }
  }
  EXPECT_EQ(migrated_jobs, 2);
  EXPECT_EQ(rep.jobs_migrated, 2);

  for (int i = 0; i < kJobs; ++i) {
    la::Matrix q_ref = la::random_normal(kM, kN, 950 + i);
    la::Matrix r_ref(kN, kN);
    Device solo(cfg.spec, ExecutionMode::Real);
    solo.model().install_paper_calibration();
    qr::factorize(qr::QrProblem{{&solo}, q_ref.view(), r_ref.view(),
                                *qr::parse_algorithm(algos[i]),
                                real_base(kB)});
    EXPECT_TRUE(bitwise_equal(as[static_cast<size_t>(i)], q_ref)) << i;
    EXPECT_TRUE(bitwise_equal(rs[static_cast<size_t>(i)], r_ref)) << i;
  }
  for (const auto& dev : sched.devices()) {
    EXPECT_EQ(dev->live_allocations(), 0u);
  }
}

TEST(ServeFailover, WatchdogStrandsFleetWhenEveryDeviceHangs) {
  // A watchdog timeout below any realistic op duration trips at the first
  // checkpoint of every attempt — no error is ever *thrown*, the devices
  // are declared dead purely on the simulated-clock scan. With the whole
  // fleet gone the outstanding jobs must fail, not hang.
  ServeConfig cfg;
  cfg.devices = 2;
  cfg.watchdog_timeout = 1e-12;
  cfg.device_failure_threshold = 1;
  Scheduler sched(cfg);

  for (int i = 0; i < 2; ++i) {
    JobSpec job;
    job.name = "hung" + std::to_string(i);
    job.m = job.n = 32768;
    job.blocksize = 8192;
    ASSERT_TRUE(sched.submit(job).admitted);
  }

  const FleetReport rep = sched.run();
  EXPECT_EQ(rep.devices_lost, 2);
  EXPECT_EQ(rep.jobs_completed, 0);
  EXPECT_EQ(rep.jobs_failed, 2);
  for (const std::string& h : rep.device_health) EXPECT_EQ(h, "dead");
  for (const JobReport& j : rep.jobs) {
    EXPECT_EQ(j.state, JobState::Failed) << j.name;
    EXPECT_FALSE(j.failure.empty()) << j.name;
  }
}

TEST(ServeFailover, SuspectDeviceRecoversOnSuccess) {
  // One watchdog strike below the threshold marks the device Suspect; a
  // later clean attempt on it must clear the strike back to Healthy and
  // the fleet completes everything without losing a device.
  ServeConfig cfg;
  cfg.devices = 1;
  cfg.mode = ExecutionMode::Real;
  // A single transient H2D fault with no in-driver retries: the first
  // attempt fails at its one staging upload (one strike), the scheduler
  // retries from the pristine unit-0 checkpoint and succeeds.
  cfg.device_faults = {"h2d:transient:op=1"};
  Scheduler sched(cfg);

  la::Matrix a = la::random_normal(96, 72, 55);
  la::Matrix r(72, 72);
  JobSpec job;
  job.name = "flaky";
  job.m = 96;
  job.n = 72;
  job.blocksize = 24;
  job.precision = blas::GemmPrecision::FP32;
  job.options = real_base(24);
  job.options.transfer_max_attempts = 1;
  job.a = a.view();
  job.r = r.view();
  ASSERT_TRUE(sched.submit(job).admitted);

  const FleetReport rep = sched.run();
  EXPECT_EQ(rep.jobs_completed, 1);
  EXPECT_EQ(rep.devices_lost, 0);
  EXPECT_EQ(rep.jobs_migrated, 0);
  EXPECT_GE(rep.job_retries, 1);
  ASSERT_EQ(rep.device_health.size(), 1u);
  EXPECT_EQ(rep.device_health[0], "healthy");
}

TEST(ServeFailover, DeadlineGangIsShedAfterFleetShrink) {
  // Phantom gang with a deadline that fits the 4-device quote but not the
  // 3-device one: when a device dies mid-run, the re-quote against the
  // survivors can no longer make the deadline and the job is load-shed —
  // a distinct terminal state, not a failure.
  JobSpec gang;
  gang.name = "deadline-gang";
  gang.algorithm = "tsqr";
  gang.m = 262144;
  gang.n = 8192;
  gang.blocksize = 8192;

  double quote[2] = {0, 0}; // [0] = 4 devices, [1] = 3 devices
  for (int probe = 0; probe < 2; ++probe) {
    ServeConfig pcfg;
    pcfg.devices = 4 - probe;
    Scheduler psched(pcfg);
    const AdmissionDecision pd = psched.submit(gang);
    ASSERT_TRUE(pd.admitted) << pd.reason;
    quote[probe] = pd.predicted_seconds;
  }
  ASSERT_GT(quote[1], quote[0]); // fewer devices -> slower gang

  ServeConfig cfg;
  cfg.devices = 4;
  cfg.device_faults = {"compute:fatal:after=5", "", "", ""};
  Scheduler sched(cfg);
  gang.deadline_seconds = 0.5 * (quote[0] + quote[1]);
  const AdmissionDecision d = sched.submit(gang);
  ASSERT_TRUE(d.admitted) << d.reason;

  const FleetReport rep = sched.run();
  const JobReport& j = rep.jobs.at(static_cast<size_t>(d.job_id));
  EXPECT_EQ(j.state, JobState::Shed) << j.failure;
  EXPECT_NE(j.failure.find("load-shed"), std::string::npos) << j.failure;
  EXPECT_EQ(rep.jobs_shed, 1);
  EXPECT_EQ(rep.jobs_failed, 0);
  EXPECT_EQ(rep.jobs_completed, 0);
  EXPECT_EQ(rep.devices_lost, 1);
  EXPECT_EQ(rep.device_health[0], "dead");
}

} // namespace
} // namespace rocqr
