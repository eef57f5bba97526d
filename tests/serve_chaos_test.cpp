// Chaos test for the QR service: drive a Real-mode fleet whose devices
// inject transient transfer faults and a mid-run allocation OOM, and
// require every admitted job to complete with a numerically correct
// factorization, no leaked device allocations, and a coherent fleet report.
// A transient fault inside a fused batch retries every member from its own
// checkpoint with bit-identical results.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/telemetry.hpp"
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

bool bitwise_equal(const la::Matrix& x, const la::Matrix& y) {
  for (index_t j = 0; j < x.cols(); ++j) {
    for (index_t i = 0; i < x.rows(); ++i) {
      if (x(i, j) != y(i, j)) return false;
    }
  }
  return true;
}

TEST(ServeChaos, FaultyFleetCompletesEveryJob) {
  constexpr index_t kM = 96;
  constexpr index_t kN = 72;
  constexpr index_t kB = 24;
  constexpr int kJobs = 8;

  telemetry::Counter& faults =
      telemetry::MetricsRegistry::global().counter("faults_injected");
  const std::int64_t faults_before = faults.value();

  ServeConfig cfg;
  cfg.devices = 4;
  cfg.mode = sim::ExecutionMode::Real;
  // Device 0 drops H2D transfers at random (retried inside the drivers);
  // device 2 OOMs an allocation mid-run (absorbed by slab degradation or,
  // failing that, a scheduler retry from the last checkpoint).
  cfg.device_faults = {"h2d:transient:p=0.05;seed=3", "",
                       "alloc:oom:after=6", ""};
  Scheduler sched(cfg);

  qr::QrOptions base;
  base.blocksize = kB;
  base.precision = blas::GemmPrecision::FP32;
  base.panel_base = 8;

  const char* algos[] = {"recursive", "blocking", "left"};
  std::vector<la::Matrix> as;
  std::vector<la::Matrix> rs;
  as.reserve(kJobs);
  rs.reserve(kJobs);
  for (int i = 0; i < kJobs; ++i) {
    as.push_back(la::random_normal(kM, kN, 700 + i));
    rs.emplace_back(kN, kN);
    JobSpec job;
    job.name = "chaos" + std::to_string(i);
    job.m = kM;
    job.n = kN;
    job.algorithm = algos[i % 3];
    job.blocksize = kB;
    job.precision = blas::GemmPrecision::FP32;
    job.priority = i % 2;
    job.options = base;
    job.a = as.back().view();
    job.r = rs.back().view();
    const AdmissionDecision d = sched.submit(job);
    ASSERT_TRUE(d.admitted) << job.name << ": " << d.reason;
  }

  const FleetReport rep = sched.run();
  EXPECT_EQ(rep.jobs_admitted, kJobs);
  EXPECT_EQ(rep.jobs_completed, kJobs);
  EXPECT_EQ(rep.jobs_failed, 0);
  EXPECT_DOUBLE_EQ(rep.makespan_seconds, rep.fleet.total_seconds);
  EXPECT_GT(faults.value(), faults_before);

  // Bitwise comparison would be too strong here: an OOM-degraded slab
  // schedule changes the GEMM summation order. Check the factorizations
  // numerically against a dense Householder reference instead.
  for (int i = 0; i < kJobs; ++i) {
    const JobReport& j = rep.jobs[static_cast<size_t>(i)];
    EXPECT_EQ(j.state, JobState::Completed) << j.name;
    la::Matrix a0 = la::random_normal(kM, kN, 700 + i);
    const qr::QrFactors ref = qr::householder(a0.view());
    EXPECT_LT(la::relative_difference(as[static_cast<size_t>(i)].view(),
                                      ref.q.view()),
              2e-3)
        << j.name;
    EXPECT_LT(la::qr_residual(a0.view(), as[static_cast<size_t>(i)].view(),
                              rs[static_cast<size_t>(i)].view()),
              1e-4)
        << j.name;
    EXPECT_LT(la::orthogonality_error(as[static_cast<size_t>(i)].view()),
              1e-3)
        << j.name;
  }

  // Every fleet device drained its allocations (ScopedMatrix leaks are
  // caught suite-wide by leak_check.hpp; live allocations here).
  for (const auto& dev : sched.devices()) {
    EXPECT_EQ(dev->live_allocations(), 0u);
  }
}

TEST(ServeChaos, TransientFaultInsideFusedBatchRetriesEveryMember) {
  // A transient H2D failure in the middle of a fused batch unwinds the whole
  // batched program. Every member requeues from its own latest checkpoint,
  // retries once, completes, and matches a clean solo run bit for bit.
  constexpr index_t kM = 96;
  constexpr index_t kN = 64;
  constexpr index_t kB = 16;
  constexpr int kJobs = 3;

  ServeConfig cfg;
  cfg.devices = 1;
  cfg.mode = sim::ExecutionMode::Real;
  cfg.max_fused_jobs = kJobs;
  // The ninth batched upload (in the second fused round, after every
  // member's first checkpoint) fails; with no in-driver transfer retries it
  // surfaces to the scheduler.
  cfg.device_faults = {"h2d:transient:op=9"};
  Scheduler sched(cfg);

  qr::QrOptions base;
  base.blocksize = kB;
  base.precision = blas::GemmPrecision::FP32;
  base.panel_base = 8;
  base.transfer_max_attempts = 1;

  std::vector<la::Matrix> as;
  std::vector<la::Matrix> rs;
  as.reserve(kJobs);
  rs.reserve(kJobs);
  for (int i = 0; i < kJobs; ++i) {
    as.push_back(la::random_normal(kM, kN, 500 + i));
    rs.emplace_back(kN, kN);
    JobSpec job;
    job.name = "fused" + std::to_string(i);
    job.m = kM;
    job.n = kN;
    job.algorithm = "blocking";
    job.blocksize = kB;
    job.precision = blas::GemmPrecision::FP32;
    job.options = base;
    job.a = as.back().view();
    job.r = rs.back().view();
    ASSERT_TRUE(sched.submit(job).admitted) << job.name;
  }

  const FleetReport rep = sched.run();
  EXPECT_EQ(rep.jobs_completed, kJobs);
  EXPECT_EQ(rep.jobs_failed, 0);
  EXPECT_EQ(rep.job_retries, kJobs);
  EXPECT_EQ(rep.devices_lost, 0);
  for (const JobReport& j : rep.jobs) {
    EXPECT_EQ(j.state, JobState::Completed) << j.name << ": " << j.failure;
    EXPECT_EQ(j.retries, 1) << j.name;
    EXPECT_EQ(j.attempts, 2) << j.name;
    EXPECT_EQ(j.failure, "") << j.name;
  }

  for (int i = 0; i < kJobs; ++i) {
    la::Matrix q_ref = la::random_normal(kM, kN, 500 + i);
    la::Matrix r_ref(kN, kN);
    sim::Device solo(cfg.spec, sim::ExecutionMode::Real);
    solo.model().install_paper_calibration();
    qr::factorize(qr::QrProblem{{&solo}, q_ref.view(), r_ref.view(),
                                qr::Algorithm::Blocking, base});
    EXPECT_TRUE(bitwise_equal(as[static_cast<size_t>(i)], q_ref)) << i;
    EXPECT_TRUE(bitwise_equal(rs[static_cast<size_t>(i)], r_ref)) << i;
  }
  for (const auto& dev : sched.devices()) {
    EXPECT_EQ(dev->live_allocations(), 0u);
  }
}

} // namespace
} // namespace rocqr
