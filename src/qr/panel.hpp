// Device-side panel factorization (the in-core recursive CGS of the LATER
// project, which the paper uses unchanged for both algorithms).
#pragma once

#include <string>
#include <vector>

#include "qr/options.hpp"
#include "sim/device.hpp"

namespace rocqr::qr {

/// Enqueues the in-core panel factorization on `stream`.
/// `aq` (m x w, fp32 device block) holds the panel on entry and Q on exit;
/// `r` (w x w, fp32 device block) receives the panel's R factor.
/// The cost is modeled by PerfModel::panel_seconds (one compute-engine op:
/// the in-core solver saturates the device, so its internals do not need to
/// be scheduled individually); in Real mode the numerics run via
/// recursive_cgs_inplace with the selected GEMM precision.
/// `name_prefix` prepends the trace op name — per-job attribution when
/// several factorizations share one device (qr/tiled_qr.hpp). The solo
/// case of panel_qr_device_batched.
void panel_qr_device(sim::Device& dev, sim::DeviceMatrixRef aq,
                     sim::DeviceMatrixRef r, sim::Stream stream,
                     const QrOptions& opts,
                     const std::string& name_prefix = "");

/// One panel of a batched panel launch: the (m x w) panel block and its
/// (w x w) R destination.
struct PanelBatchEntry {
  sim::DeviceMatrixRef aq;
  sim::DeviceMatrixRef r;
};

/// Fused panel factorization of K same-shape panels in one compute-engine
/// launch: one kernel latency amortized across the batch, per-entry numerics
/// identical (and in entry order identical) to K solo panel_qr_device calls,
/// so Real-mode results are bit-identical. All entries must share m and w.
void panel_qr_device_batched(sim::Device& dev,
                             const std::vector<PanelBatchEntry>& entries,
                             sim::Stream stream, const QrOptions& opts,
                             const std::string& name);

} // namespace rocqr::qr
