#include "qr/panel.hpp"

#include "common/error.hpp"
#include "qr/incore.hpp"

namespace rocqr::qr {

void panel_qr_device(sim::Device& dev, sim::DeviceMatrixRef aq,
                     sim::DeviceMatrixRef r, sim::Stream stream,
                     const QrOptions& opts, const std::string& name_prefix) {
  // A batch of one: the (K-1) amortized kernel latencies are zero, so the
  // duration and flops are the solo ones.
  panel_qr_device_batched(dev, {{aq, r}}, stream, opts,
                          name_prefix + "panel_qr " + std::to_string(aq.rows) +
                              "x" + std::to_string(aq.cols));
}

void panel_qr_device_batched(sim::Device& dev,
                             const std::vector<PanelBatchEntry>& entries,
                             sim::Stream stream, const QrOptions& opts,
                             const std::string& name) {
  ROCQR_CHECK(!entries.empty(), "panel_qr_device_batched: empty batch");
  const index_t m = entries.front().aq.rows;
  const index_t w = entries.front().aq.cols;
  ROCQR_CHECK(m >= w && w >= 1, "panel_qr_device_batched: need m >= w >= 1");
  for (const PanelBatchEntry& e : entries) {
    ROCQR_CHECK(e.aq.matrix.valid() && e.r.matrix.valid(),
                "panel_qr_device_batched: invalid matrix");
    ROCQR_CHECK(e.aq.rows == m && e.aq.cols == w,
                "panel_qr_device_batched: panels must share one shape");
    ROCQR_CHECK(e.r.rows == w && e.r.cols == w,
                "panel_qr_device_batched: R must be w x w");
  }
  // CGS2 and CholeskyQR2 orthogonalize twice: double the panel flops at the
  // same sustained rate.
  const double flops_factor =
      opts.panel_algorithm == PanelAlgorithm::RecursiveCgs ? 1.0 : 2.0;
  const auto k = static_cast<double>(entries.size());
  // K solo launches minus (K-1) amortized kernel latencies.
  const sim_time_t seconds =
      dev.model().panel_seconds(m, w) * flops_factor * k -
      (k - 1.0) * dev.model().spec().kernel_latency_s;
  const flops_t flops = static_cast<flops_t>(
      flops_factor * 2.0 * static_cast<double>(m) * w * w * k);
  dev.custom_compute(
      stream, seconds, flops, sim::OpKind::Panel, name, [&]() {
        for (const PanelBatchEntry& e : entries) {
          la::Matrix host_panel = dev.download(e.aq);
          la::Matrix host_r(w, w);
          switch (opts.panel_algorithm) {
            case PanelAlgorithm::RecursiveCgs:
              recursive_cgs_inplace(host_panel.view(), host_r.view(),
                                    opts.panel_base, opts.precision);
              break;
            case PanelAlgorithm::Cgs2: {
              QrFactors f = cgs2(host_panel.view());
              host_panel = std::move(f.q);
              host_r = std::move(f.r);
              break;
            }
            case PanelAlgorithm::CholeskyQr2: {
              QrFactors f = cholesky_qr2(host_panel.view());
              host_panel = std::move(f.q);
              host_r = std::move(f.r);
              break;
            }
          }
          dev.upload(e.aq, host_panel.view());
          dev.upload(e.r, host_r.view());
        }
      });
}

} // namespace rocqr::qr
