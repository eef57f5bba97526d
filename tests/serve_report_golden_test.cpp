// Fleet-report golden for the QR service (docs/SERVING.md).
//
// A one-device phantom fleet runs a fixed mixed stream that takes every
// attempt shape the scheduler has: a solo recursive job, a colocated
// tiled + left pair, a fused batch of three same-shape blocking jobs, a
// TSQR gang, a late high-priority arrival that preempts a running attempt,
// and a transient H2D fault that forces a scheduler retry. One device makes
// the run deterministic, so the whole write_fleet_report_json output —
// per-job states, attempts, waits and stats, per-device and fleet totals —
// is pinned byte for byte against goldens/serve_fleet_report.json. A
// refactor of the dispatch or attempt code that moves a single decision or
// a single stats attribution fails here.
//
// Regenerate (only when a scheduling change is *intended*) with:
//   ROCQR_UPDATE_GOLDENS=1 ./tests/serve_report_golden_test
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "serve/jobs_io.hpp"
#include "serve/scheduler.hpp"

#ifndef ROCQR_GOLDEN_DIR
#define ROCQR_GOLDEN_DIR "."
#endif

namespace rocqr {
namespace {

using serve::JobSpec;
using serve::JobState;
using serve::Scheduler;
using serve::ServeConfig;

JobSpec make_job(const std::string& name, const std::string& algorithm,
                 index_t m, index_t n, index_t blocksize) {
  JobSpec job;
  job.name = name;
  job.algorithm = algorithm;
  job.m = m;
  job.n = n;
  job.blocksize = blocksize;
  // No in-driver transfer retries: an injected H2D fault reaches the
  // scheduler as a failed attempt.
  job.options.transfer_max_attempts = 1;
  return job;
}

std::string mixed_stream_report() {
  ServeConfig cfg;
  cfg.devices = 1;
  cfg.max_colocated_jobs = 2;
  cfg.max_fused_jobs = 3;
  // One H2D op fails once, in the middle of the colocated pair.
  cfg.device_faults = {"h2d:transient:op=5"};
  Scheduler sched(cfg);

  EXPECT_TRUE(sched.submit(make_job("solo", "recursive", 8192, 2048, 512))
                  .admitted);
  EXPECT_TRUE(sched.submit(make_job("tiled", "tiled", 8192, 2048, 512))
                  .admitted);
  EXPECT_TRUE(sched.submit(make_job("left", "left", 8192, 2048, 512))
                  .admitted);
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(sched
                    .submit(make_job("fused" + std::to_string(i), "blocking",
                                     4096, 1024, 256))
                    .admitted);
  }
  EXPECT_TRUE(sched.submit(make_job("gang", "tsqr", 16384, 1024, 1024))
                  .admitted);
  JobSpec urgent = make_job("urgent", "recursive", 4096, 1024, 256);
  urgent.priority = 5;
  urgent.arrival_after_units = 12;
  EXPECT_TRUE(sched.submit(urgent).admitted);

  const serve::FleetReport rep = sched.run();
  // The stream is only a useful pin if it really took every path.
  EXPECT_EQ(rep.jobs_completed, 8);
  EXPECT_GE(rep.jobs_preempted, 1);
  EXPECT_GE(rep.job_retries, 1);
  std::ostringstream os;
  serve::write_fleet_report_json(os, rep);
  return os.str();
}

TEST(ServeReportGolden, MixedStreamReportIsPinned) {
  const std::string actual = mixed_stream_report();
  const std::string path =
      std::string(ROCQR_GOLDEN_DIR) + "/serve_fleet_report.json";
  if (std::getenv("ROCQR_UPDATE_GOLDENS") != nullptr) {
    std::ofstream out(path, std::ios::binary);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out << actual;
    return;
  }
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good()) << "missing golden " << path
                         << " (run with ROCQR_UPDATE_GOLDENS=1)";
  std::stringstream expected;
  expected << in.rdbuf();
  std::istringstream ea(expected.str());
  std::istringstream aa(actual);
  std::string el;
  std::string al;
  for (int line = 1;; ++line) {
    const bool eok = static_cast<bool>(std::getline(ea, el));
    const bool aok = static_cast<bool>(std::getline(aa, al));
    if (!eok && !aok) break;
    ASSERT_TRUE(eok == aok && el == al)
        << "fleet report diverges from golden at line " << line
        << "\n  golden: " << (eok ? el : "<eof>")
        << "\n  actual: " << (aok ? al : "<eof>");
  }
}

TEST(ServeReportGolden, ReplayIsDeterministic) {
  // The golden is only meaningful if a one-device run cannot vary.
  const std::string first = mixed_stream_report();
  for (int i = 0; i < 3; ++i) EXPECT_EQ(mixed_stream_report(), first);
}

} // namespace
} // namespace rocqr
