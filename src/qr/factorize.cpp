#include "qr/factorize.hpp"

#include <cmath>

#include "common/error.hpp"
#include "common/telemetry.hpp"
#include "qr/blocking_qr.hpp"
#include "qr/multi_gpu_qr.hpp"
#include "qr/recursive_qr.hpp"
#include "qr/tiled_qr.hpp"
#include "qr/tsqr_ooc.hpp"

namespace rocqr::qr {

const char* to_string(Algorithm a) {
  switch (a) {
    case Algorithm::Blocking: return "blocking";
    case Algorithm::LeftLooking: return "left";
    case Algorithm::Recursive: return "recursive";
    case Algorithm::MultiGpu: return "multi_gpu";
    case Algorithm::Tsqr: return "tsqr";
    case Algorithm::Tiled: return "tiled";
  }
  return "?";
}

std::optional<Algorithm> parse_algorithm(std::string_view name) {
  if (name == "blocking") return Algorithm::Blocking;
  if (name == "left") return Algorithm::LeftLooking;
  if (name == "recursive") return Algorithm::Recursive;
  if (name == "multi_gpu") return Algorithm::MultiGpu;
  if (name == "tsqr") return Algorithm::Tsqr;
  if (name == "tiled") return Algorithm::Tiled;
  return std::nullopt;
}

namespace {

bool fleet_algorithm(Algorithm a) {
  return a == Algorithm::MultiGpu || a == Algorithm::Tsqr;
}

void validate_devices(const QrProblem& p) {
  ROCQR_CHECK(!p.devices.empty(), "qr::factorize: no devices");
  for (sim::Device* d : p.devices) {
    ROCQR_CHECK(d != nullptr, "qr::factorize: null device in the fleet");
  }
  if (!fleet_algorithm(p.algorithm)) {
    ROCQR_CHECK(p.devices.size() == 1,
                std::string("qr::factorize: algorithm '") +
                    to_string(p.algorithm) +
                    "' runs on exactly one device (got " +
                    std::to_string(p.devices.size()) + ")");
  }
}

void check_host_finite(sim::HostMutRef mat, const char* which) {
  for (index_t j = 0; j < mat.cols; ++j) {
    for (index_t i = 0; i < mat.rows; ++i) {
      const float v = mat.data[i + j * mat.ld];
      if (!std::isfinite(v)) {
        telemetry::MetricsRegistry::global()
            .counter("qr.nonfinite_detected")
            .increment();
        throw NumericalError(
            std::string("qr: non-finite value in ") + which + " at (" +
            std::to_string(i) + ", " + std::to_string(j) +
            ") after factorization (QrOptions::check_finite)");
      }
    }
  }
}

/// QrOptions::check_finite guard: scans the host outputs (R first — it is
/// small and where corruption concentrates — then Q) once the driver is done.
void maybe_check_finite(const QrProblem& problem) {
  if (!problem.options.check_finite) return;
  if (problem.r.data != nullptr) check_host_finite(problem.r, "R");
  if (problem.a.data != nullptr) check_host_finite(problem.a, "Q");
}

QrStats run_driver(const QrProblem& problem) {
  switch (problem.algorithm) {
    case Algorithm::Blocking:
      return detail::run_blocking(*problem.devices.front(), problem.a,
                                  problem.r, problem.options);
    case Algorithm::LeftLooking:
    case Algorithm::Tiled:
      // One job on its node program (qr/tiled_qr.hpp).
      return detail::run_batch(*problem.devices.front(),
                               {{to_string(problem.algorithm), problem.a,
                                 problem.r, problem.options, ""}})
          .front();
    case Algorithm::Recursive:
      return detail::run_recursive(*problem.devices.front(), problem.a,
                                   problem.r, problem.options);
    case Algorithm::MultiGpu:
      return detail::run_multi_gpu(problem.devices, problem.a, problem.r,
                                   problem.options);
    case Algorithm::Tsqr:
      return detail::run_tsqr(problem.devices, problem.a, problem.r,
                              problem.options, nullptr);
  }
  throw InvalidArgument("qr::factorize: unknown algorithm");
}

} // namespace

QrStats factorize(const QrProblem& problem) {
  validate_devices(problem);
  const QrStats stats = run_driver(problem);
  maybe_check_finite(problem);
  return stats;
}

QrStats resume(const QrProblem& problem, const Checkpoint& cp) {
  ROCQR_CHECK(!problem.devices.empty(), "qr::resume: no devices");
  for (sim::Device* d : problem.devices) {
    ROCQR_CHECK(d != nullptr, "qr::resume: null device in the fleet");
  }
  QrOptions opts = problem.options;
  if (opts.blocksize == 0) opts.blocksize = cp.blocksize;
  const QrStats stats = detail::resume_impl(problem.devices, cp, problem.a,
                                            problem.r, std::move(opts));
  maybe_check_finite(problem);
  return stats;
}

} // namespace rocqr::qr
