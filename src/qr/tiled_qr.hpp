// The single-device QR node programs on the TaskGraph executor, and the
// batch front ends that run them.
//
// Three algorithms are node programs here, each the only implementation
// of its algorithm on the DAG executor:
//
// - Tiled CGS (Buttari-style DAG lookahead). The matrix splits into
//   full-height column tiles of opts.blocksize. Step k streams every
//   trailing tile A_j through the device and applies the block-MGS update
//   R_kj = Q_k^T A_j; A_j -= Q_k R_kj — except tile k+1, which stays
//   device-resident and factors in place the moment its own update lands.
//   Panel k+1's factorization carries a smaller priority key than step k's
//   remaining far-tile updates, so it runs on the FIFO compute engine while
//   those updates are still moving in and draining out: the lookahead of
//   Buttari et al. ("Parallel Tiled QR Factorization for Multicore
//   Architectures"). The resident tile also skips one host round trip per
//   step (see bench/tiled_qr_lookahead, BENCH_tiled_qr.json).
// - Left-looking CGS, the classic disk-era formulation (SOLAR, §2.1): each
//   panel pulls in every previously factored Q panel and applies its
//   projection lazily, so the trailing matrix is never updated or written
//   back. It moves far fewer bytes than right-looking blocking at the price
//   of skinny panel-width GEMMs (see bench/left_vs_right).
// - Right-looking blocking CGS over K >= 1 same-shape members. K = 1 is
//   the colocated program; K > 1 is fusion, issuing one batched device op
//   per node for all K members. The solo blocking driver
//   (qr/blocking_qr.cpp) stays separate: it plans its own working set,
//   which is what fits the paper's largest configurations.
//
// qr::factorize and qr::resume run Algorithm::Tiled and
// Algorithm::LeftLooking as a one-job `run_batch`. `run_batch` itself runs
// SEVERAL factorizations — tiled, blocking, or left-looking, mixed freely —
// as ONE task graph on one device, so one job's transfers overlap another's
// computes regardless of algorithm. The blocking program performs bitwise
// the same arithmetic as the solo driver (same GEMM operand precisions and
// k-extents, elementwise fp16 conversions), so a job preempted from a batch
// resumes solo — or vice versa — with bit-identical results (pinned by
// tests/qr_mixed_batch_test.cpp and tests/qr_fused_batch_test.cpp).
//
// Checkpoints use the per-algorithm driver tags ("tiled", "blocking",
// "left"). Tiled unit u = "tiles 0..u-1 factored, with the trailing
// updates of steps 0..u-2 applied to host A"; blocking unit u = "u panels
// factored and their trailing updates applied"; left-looking unit u =
// "u panels projected and factored". With a sink installed the graph runs
// in per-round segments so every boundary is a consistent snapshot; resume
// (qr::resume, or a new batch with opts.resume_units) restores the host
// arrays and replays from the boundary — bit-identical, pinned by
// tests/qr_tiled_test.cpp and tests/qr_mixed_batch_test.cpp.
#pragma once

#include <string>
#include <vector>

#include "qr/options.hpp"
#include "sim/device.hpp"

namespace rocqr::qr::detail {

/// One factorization of a colocated batch. `algorithm` selects the node
/// program ("tiled", "blocking", or "left" — the qr::Algorithm string tags
/// of the single-device drivers). `label` prefixes every trace op name
/// ("j0." ...), which is how per-job stats are attributed when several
/// jobs share one device (serve multi-tenancy).
struct BatchJob {
  std::string algorithm;
  sim::HostMutRef a;
  sim::HostMutRef r;
  QrOptions opts;
  std::string label;
};

/// Runs `jobs` as ONE task graph on `dev`, interleaving their move-in /
/// compute / move-out nodes on the shared three-stream schedule so one
/// job's transfers overlap another's computes. The graph-level transfer
/// retry / ABFT configuration comes from jobs[0].opts — colocated jobs
/// must agree on precision and fault knobs (serve builds them from one
/// ServeConfig). Returns per-job stats (trace window filtered by each
/// job's label). Internal entry — solo callers go through qr::factorize.
std::vector<QrStats> run_batch(sim::Device& dev,
                               const std::vector<BatchJob>& jobs);

/// Fuses K same-shape, same-precision "blocking" jobs into ONE blocking
/// program of batch width K, run through run_batch's round/checkpoint loop:
/// per panel iteration the graph issues a single batched move-in, one
/// batched panel kernel, one batched inner/outer GEMM pair per trailing
/// panel and one batched move-out — each covering all K jobs — instead of K
/// per-job rounds, so the fixed per-op latencies (link turnaround, kernel
/// launch) are paid once per round. K = 1 issues the colocated program's
/// solo ops. The per-entry numerics are the exact solo bodies in job order,
/// so every job's R (and Q) is bit-identical to a solo run (pinned by
/// tests/qr_fused_batch_test.cpp), and checkpoints carry the solo
/// "blocking" driver tag: a job preempted from a fused batch resumes solo
/// or fused.
/// Requires: every job algorithm "blocking", identical m/n/blocksize/
/// precision/panel algorithm, equal resume_units, abft off. Returned
/// per-job stats are an even 1/K split of the fused window's volume
/// aggregates (exact, since the jobs are identical in shape and arithmetic).
std::vector<QrStats> run_fused_batch(sim::Device& dev,
                                     const std::vector<BatchJob>& jobs);

/// One member's share of a fused window's stats: volume aggregates divide
/// evenly by `members` (exact, since fused jobs are identical in shape and
/// arithmetic); span fields and the device peak stay whole, because every
/// member occupied the device for the whole fused window.
QrStats split_fused_stats(QrStats whole, int members);

} // namespace rocqr::qr::detail
