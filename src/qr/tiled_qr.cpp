#include "qr/tiled_qr.hpp"

#include <algorithm>
#include <map>
#include <memory>
#include <span>
#include <utility>

#include "common/error.hpp"
#include "ooc/engine_util.hpp"
#include "ooc/operand.hpp"
#include "ooc/task_graph.hpp"
#include "qr/driver_util.hpp"
#include "qr/panel.hpp"
#include "sim/scoped_matrix.hpp"
#include "sim/trace_export.hpp"

namespace rocqr::qr::detail {

namespace {

using ooc::TaskCtx;
using ooc::TaskGraph;
using ooc::TaskId;
using ooc::TaskStage;
using sim::Device;
using sim::DeviceMatrixRef;
using sim::HostMutRef;
using sim::ScopedMatrix;
using sim::StoragePrecision;

constexpr TaskId kNone = -1;

std::string idx(index_t k, index_t j) {
  return std::to_string(k) + "," + std::to_string(j);
}

/// Rotating device-buffer pool. A slot holds one buffer per program member
/// (one outside fusion; fused members advance in lockstep, so a slot's
/// buffers are always acquired and released together). Acquiring a slot
/// hands back its index; the recorded `last_uses` nodes are the WAR edges
/// the slot's next writer must depend on (the old output-fence taxonomy,
/// now explicit graph edges).
struct SlotPool {
  void add(std::vector<ScopedMatrix> per_member) {
    slots_.push_back(std::move(per_member));
    last_uses_.emplace_back();
  }
  void add(ScopedMatrix buf) {
    std::vector<ScopedMatrix> one;
    one.push_back(std::move(buf));
    add(std::move(one));
  }
  size_t size() const { return slots_.size(); }
  /// Slot s's buffer of member k, viewed as its leading rows x cols block.
  DeviceMatrixRef ref(size_t s, index_t rows, index_t cols,
                      size_t k = 0) const {
    return DeviceMatrixRef(slots_[s][k].get()).block(0, 0, rows, cols);
  }
  /// `ref` for every member of slot s, in member order.
  std::vector<DeviceMatrixRef> refs(size_t s, index_t rows,
                                    index_t cols) const {
    std::vector<DeviceMatrixRef> out;
    out.reserve(slots_[s].size());
    for (size_t k = 0; k < slots_[s].size(); ++k) {
      out.push_back(ref(s, rows, cols, k));
    }
    return out;
  }
  size_t acquire() {
    const size_t s = next_;
    next_ = (next_ + 1) % slots_.size();
    return s;
  }
  /// Appends slot s's outstanding readers to `deps` — the WAR edges its
  /// next writer takes.
  void depend(size_t s, std::vector<TaskId>& deps) const {
    deps.insert(deps.end(), last_uses_[s].begin(), last_uses_[s].end());
  }
  /// Records the nodes currently reading slot s (replacing prior uses —
  /// the new readers already depend on the old ones transitively).
  void use(size_t s, std::vector<TaskId> ids) {
    last_uses_[s] = std::move(ids);
  }

 private:
  std::vector<std::vector<ScopedMatrix>> slots_; // [slot][member]
  std::vector<std::vector<TaskId>> last_uses_;
  size_t next_ = 0;
};

/// The node program of one factorization — or, for fusion, of K lockstep
/// members of one shape — inside a (possibly colocated) batch. Programs
/// build their DAG segment by segment so the checkpointing caller can run
/// round-by-round; unsegmented runs add every segment and run once. One
/// checkpoint/resume *unit* per completed segment, under the program's
/// driver tag, for every member — the same unit vocabulary as the solo
/// drivers, so a job preempted from a batch resumes solo (and vice versa).
class Program {
 public:
  Program(TaskGraph& graph, std::span<const BatchJob> members)
      : g_(graph), members_(members), job_(members.front()) {}
  virtual ~Program() = default;

  Program(const Program&) = delete;
  Program& operator=(const Program&) = delete;

  std::span<const BatchJob> members() const { return members_; }

  /// Checkpoint driver tag ("tiled" / "blocking" / "left") — what
  /// qr::resume dispatches on.
  virtual const char* driver_tag() const = 0;
  virtual void allocate(Device& dev) = 0;
  /// First segment (resume positioning and any staging). Returns true when
  /// it completed a new unit (a checkpoint boundary).
  virtual bool begin() = 0;
  /// Adds the next segment; false once the factorization is fully built.
  virtual bool add_step() = 0;
  virtual index_t units_done() const = 0;
  virtual index_t columns_done() const = 0;

 protected:
  TaskGraph& g_;
  std::span<const BatchJob> members_;
  /// The first member — the only one outside fusion.
  const BatchJob& job_;
};

/// Tiled CGS: step k streams every trailing tile through the device while
/// tile k+1 factors in place as soon as its own update lands (Buttari-style
/// lookahead via priority keys). One unit = one factored tile.
class TiledProgram : public Program {
 public:
  TiledProgram(TaskGraph& graph, const BatchJob& job)
      : Program(graph, {&job, 1}), a_(job.a), r_(job.r) {
    m_ = a_.rows;
    n_ = a_.cols;
    ROCQR_CHECK(m_ >= n_ && n_ >= 1, "tiled_qr: need m >= n >= 1");
    ROCQR_CHECK(r_.rows == n_ && r_.cols == n_, "tiled_qr: R must be n x n");
    b_ = std::min(job.opts.blocksize, n_);
    tiles_ = (n_ + b_ - 1) / b_;
  }

  const char* driver_tag() const override { return "tiled"; }
  index_t units_done() const override { return units_; }
  index_t columns_done() const override { return std::min(units_ * b_, n_); }

  /// Device working set: two role-swapping resident tiles, up to two
  /// streaming slots for far tiles, and a rotating pool of b x b R tiles.
  void allocate(Device& dev) override {
    const std::string& l = job_.label;
    big_.add(ScopedMatrix(dev, m_, b_, StoragePrecision::FP32,
                          l + "tiled tile a"));
    if (tiles_ > 1) {
      big_.add(ScopedMatrix(dev, m_, b_, StoragePrecision::FP32,
                            l + "tiled tile b"));
    }
    const index_t far_slots = std::min<index_t>(2, tiles_ - 2);
    for (index_t s = 0; s < far_slots; ++s) {
      stream_.add(ScopedMatrix(dev, m_, b_, StoragePrecision::FP32,
                               l + "tiled stream " + std::to_string(s)));
    }
    const index_t r_slots = std::min<index_t>(4, tiles_ + 1);
    for (index_t s = 0; s < r_slots; ++s) {
      rtiles_.add(ScopedMatrix(dev, b_, b_, StoragePrecision::FP32,
                               l + "tiled r " + std::to_string(s)));
    }
  }

  /// First segment: stage the starting tile. A fresh run factors tile 0;
  /// a resume (opts.resume_units = u > 0) re-stages the already-factored
  /// Q_{u-1} and goes straight to step u-1.
  bool begin() override {
    const index_t u = std::min(job_.opts.resume_units, tiles_);
    k_ = u > 0 ? u - 1 : 0;
    units_ = std::max<index_t>(u, 0);
    if (u >= tiles_) return false; // everything already factored
    const index_t t = k_;
    const std::int64_t p = prio(t, 0);
    const TaskId stage = g_.add(
        TaskStage::MoveIn, job_.label + "stage " + std::to_string(t),
        [this, t](TaskCtx& c) {
          c.h2d(tile_buf(t), host_tile_const(t),
                job_.label + "h2d tile " + std::to_string(t));
        },
        {}, p);
    if (u > 0) {
      // The staged tile is already Q_{u-1}: no factor, no emit. Updates of
      // step u-1 depend on the staging transfer instead.
      fac_ = stage;
      emit_ = kNone;
      return false;
    }
    fac_ = add_factor(t, {stage}, p);
    emit_ = add_emit(t, fac_, p);
    units_ = 1;
    return true;
  }

  /// Adds step k (updates by Q_k plus the factorization of tile k+1) and
  /// advances. Returns false once every tile is factored.
  bool add_step() override {
    if (k_ >= tiles_ - 1) return false;
    const index_t k = k_;
    const index_t wk = width(k);
    std::vector<TaskId> q_readers;
    TaskId next_fac = kNone;
    TaskId next_emit = kNone;
    for (index_t j = k + 1; j < tiles_; ++j) {
      const bool resident = j == k + 1;
      const std::int64_t p = prio(k, resident ? 1 : 3);
      const index_t wj = width(j);

      // Move-in of tile j. WAR edges: the resident destination held
      // Q_{k-1}, so wait its readers; a streaming slot waits the move-out
      // that last drained it. Host-order edge: the previous step's
      // writeback of tile j must land before this re-read.
      DeviceMatrixRef dst;
      std::vector<TaskId> in_deps;
      size_t far_slot = 0;
      if (resident) {
        dst = tile_buf(j);
        in_deps = prev_q_readers_;
      } else {
        far_slot = stream_.acquire();
        dst = stream_.ref(far_slot, m_, wj);
        stream_.depend(far_slot, in_deps);
      }
      if (out_a_.count(j) > 0) in_deps.push_back(out_a_[j]);
      const TaskId in = g_.add(
          TaskStage::MoveIn, job_.label + "in " + idx(k, j),
          [this, dst, j](TaskCtx& c) {
            c.h2d(dst, host_tile_const(j),
                  job_.label + "h2d tile " + std::to_string(j));
          },
          std::move(in_deps), p);

      // Block-MGS update: R_kj = Q_k^T A_j, then A_j -= Q_k R_kj.
      const size_t rs = rtiles_.acquire();
      const DeviceMatrixRef rt = rtiles_.ref(rs, wk, wj);
      std::vector<TaskId> upd_deps{in, fac_};
      rtiles_.depend(rs, upd_deps);
      const DeviceMatrixRef q = tile_buf(k);
      const TaskId upd = g_.add(
          TaskStage::Compute, job_.label + "upd " + idx(k, j),
          [this, q, dst, rt, k, j](TaskCtx& c) {
            c.gemm(blas::Op::Trans, blas::Op::NoTrans, 1.0f, q, dst, 0.0f,
                   rt, job_.label + "gemm qta " + idx(k, j));
            c.gemm(blas::Op::NoTrans, blas::Op::NoTrans, -1.0f, q, rt, 1.0f,
                   dst, job_.label + "gemm upd " + idx(k, j));
          },
          std::move(upd_deps), p);
      q_readers.push_back(upd);

      // R row writeback.
      const TaskId outr = g_.add(
          TaskStage::MoveOut, job_.label + "outR " + idx(k, j),
          [this, rt, k, j](TaskCtx& c) {
            c.d2h(ooc::host_block(r_, offset(k), offset(j), rt.rows, rt.cols),
                  rt, job_.label + "d2h R " + idx(k, j));
          },
          {upd}, p);
      rtiles_.use(rs, {outr});

      if (resident) {
        // The tile that just absorbed its update factors in place — the
        // lookahead: priority (k, 2) beats the far updates' (k, 3), so the
        // panel runs on the compute engine while they stream.
        const std::int64_t pf = prio(k, 2);
        next_fac = add_factor(j, {upd}, pf);
        next_emit = add_emit(j, next_fac, pf);
      } else {
        const TaskId outa = g_.add(
            TaskStage::MoveOut, job_.label + "outA " + idx(k, j),
            [this, dst, j](TaskCtx& c) {
              c.d2h(host_tile(j), dst,
                    job_.label + "d2h tile " + std::to_string(j));
            },
            {upd}, p);
        stream_.use(far_slot, {outa});
        out_a_[j] = outa;
      }
    }
    prev_q_readers_ = std::move(q_readers);
    if (emit_ != kNone) prev_q_readers_.push_back(emit_);
    fac_ = next_fac;
    emit_ = next_emit;
    ++k_;
    units_ = k_ + 1;
    return true;
  }

 private:
  index_t width(index_t t) const { return std::min(b_, n_ - t * b_); }
  index_t offset(index_t t) const { return t * b_; }
  DeviceMatrixRef tile_buf(index_t t) {
    return big_.ref(static_cast<size_t>(t) & 1, m_, width(t));
  }
  sim::HostConstRef host_tile_const(index_t t) const {
    return ooc::host_block(sim::as_const(a_), 0, offset(t), m_, width(t));
  }
  sim::HostMutRef host_tile(index_t t) const {
    return ooc::host_block(a_, 0, offset(t), m_, width(t));
  }
  /// Priority key: (step, phase) with phase 1 = the resident tile's
  /// move-in/update, 2 = the next panel factorization, 3 = far tiles.
  std::int64_t prio(index_t k, std::int64_t phase) const {
    return 4 * static_cast<std::int64_t>(k) + phase;
  }

  TaskId add_factor(index_t t, std::vector<TaskId> deps, std::int64_t p) {
    const size_t rs = rtiles_.acquire();
    rtiles_.depend(rs, deps);
    const index_t w = width(t);
    fac_r_slot_ = rs;
    fac_r_ref_ = rtiles_.ref(rs, w, w);
    const DeviceMatrixRef aq = tile_buf(t);
    const DeviceMatrixRef rt = fac_r_ref_;
    return g_.add(
        TaskStage::Compute, job_.label + "fac " + std::to_string(t),
        [this, aq, rt](TaskCtx& c) {
          panel_qr_device(c.device(), aq, rt, c.stream(), job_.opts,
                          job_.label);
        },
        std::move(deps), p);
  }

  TaskId add_emit(index_t t, TaskId fac, std::int64_t p) {
    const index_t w = width(t);
    const DeviceMatrixRef rt = fac_r_ref_;
    const DeviceMatrixRef q = tile_buf(t);
    const TaskId id = g_.add(
        TaskStage::MoveOut, job_.label + "emit " + std::to_string(t),
        [this, rt, q, t, w](TaskCtx& c) {
          c.d2h(ooc::host_block(r_, offset(t), offset(t), w, w), rt,
                job_.label + "d2h R " + idx(t, t));
          c.d2h(host_tile(t), q,
                job_.label + "d2h Q " + std::to_string(t));
        },
        {fac}, p);
    rtiles_.use(fac_r_slot_, {id});
    return id;
  }

  HostMutRef a_;
  HostMutRef r_;
  index_t m_ = 0;
  index_t n_ = 0;
  index_t b_ = 0;
  index_t tiles_ = 0;
  index_t k_ = 0;
  index_t units_ = 0;
  SlotPool big_;
  SlotPool stream_;
  SlotPool rtiles_;
  TaskId fac_ = kNone;
  TaskId emit_ = kNone;
  size_t fac_r_slot_ = 0;
  DeviceMatrixRef fac_r_ref_;
  std::vector<TaskId> prev_q_readers_;
  std::map<index_t, TaskId> out_a_;
};

/// Right-looking fixed-panel CGS as a node program over K >= 1 same-shape
/// members: factor panel i, then stream every trailing panel through the
/// device twice — once in the GEMM input storage width for the inner
/// product R12 = Q^T B (k = m, fixed), once as the fp32 accumulator tile of
/// the outer update C -= Q R12 (k = w, fixed) — exactly the solo driver's
/// double-streaming. Because every output element comes from ONE gemm whose
/// k-extent is independent of the panel/tile partition, and fp16
/// conversions are elementwise, the arithmetic is bitwise identical to the
/// solo SlabPipeline driver: a job preempted here resumes solo (tag
/// "blocking") bit-identically. One unit = one panel iteration (panel
/// factored + trailing updates applied).
///
/// The batch width K only picks the device ops (the add_* helpers below).
/// K = 1, the colocated program, issues solo ops under the job's label.
/// K > 1 is fusion (run_fused_batch): the same nodes and priority keys, but
/// each node issues ONE batched op whose entries are the members' solo
/// bodies in member order, under "fused " names, so the fixed per-op
/// latencies (link turnaround, kernel launch) are paid once per round.
class BlockingProgram : public Program {
 public:
  BlockingProgram(TaskGraph& graph, std::span<const BatchJob> members)
      : Program(graph, members),
        prefix_(members.size() == 1 ? job_.label : "fused ") {
    m_ = job_.a.rows;
    n_ = job_.a.cols;
    ROCQR_CHECK(m_ >= n_ && n_ >= 1, "blocking batch: need m >= n >= 1");
    ROCQR_CHECK(job_.r.rows == n_ && job_.r.cols == n_,
                "blocking batch: R must be n x n");
    b_ = std::min(job_.opts.blocksize, n_);
    panels_ = (n_ + b_ - 1) / b_;
  }

  const char* driver_tag() const override { return "blocking"; }
  index_t units_done() const override { return units_; }
  index_t columns_done() const override { return std::min(units_ * b_, n_); }

  /// Working set, per member: a panel double buffer, streaming slots for
  /// the trailing panels' inner-product input (GEMM storage width) and
  /// outer-product accumulator (fp32), and a rotating pool of b x b R
  /// tiles.
  void allocate(Device& dev) override {
    const StoragePrecision in_prec =
        ooc::detail::input_storage(gemm_options(job_.opts));
    const auto add_slot = [&](SlotPool& pool, index_t rows,
                              StoragePrecision prec, const std::string& role,
                              index_t s) {
      std::vector<ScopedMatrix> bufs;
      bufs.reserve(members_.size());
      for (size_t k = 0; k < members_.size(); ++k) {
        std::string name = prefix_ + "blk " + role + " " + std::to_string(s);
        if (!solo()) name += '.' + std::to_string(k);
        bufs.emplace_back(dev, rows, b_, prec, name);
      }
      pool.add(std::move(bufs));
    };
    const index_t panel_slots = std::min<index_t>(2, panels_);
    for (index_t s = 0; s < panel_slots; ++s) {
      add_slot(panel_, m_, StoragePrecision::FP32, "panel", s);
    }
    const index_t trail_slots = std::min<index_t>(2, panels_ - 1);
    for (index_t s = 0; s < trail_slots; ++s) {
      add_slot(bstream_, m_, in_prec, "b", s);
      add_slot(cstream_, m_, StoragePrecision::FP32, "c", s);
    }
    const index_t r_slots = std::min<index_t>(4, panels_ + 1);
    for (index_t s = 0; s < r_slots; ++s) {
      add_slot(rtiles_, b_, StoragePrecision::FP32, "r", s);
    }
  }

  /// Resume positioning only: the skipped panels' Q columns and R rows
  /// were restored onto the host, and right-looking trailing updates for
  /// completed units are already applied there — nothing to stage. Fused
  /// members share one resume_units (the fusion contract).
  bool begin() override {
    i_ = std::min(job_.opts.resume_units, panels_);
    units_ = i_;
    return false;
  }

  /// Adds panel iteration i: move-in + factor + emit, then the trailing
  /// inner/outer update pair per remaining panel.
  bool add_step() override {
    if (i_ >= panels_) return false;
    const index_t i = i_;
    const index_t w = width(i);
    const std::string si = std::to_string(i);
    const std::int64_t p = prio(i, 0);

    // Panel move-in. WAR edge: this slot held panel i-2, wait its readers.
    // Host-order edge: panel i's columns were last written by the previous
    // iteration's trailing writeback.
    const size_t ps = static_cast<size_t>(i) % panel_.size();
    const Refs pd = panel_.refs(ps, m_, w);
    std::vector<TaskId> in_deps;
    panel_.depend(ps, in_deps);
    if (out_a_.count(i) > 0) in_deps.push_back(out_a_[i]);
    const TaskId inp =
        add_h2d("inP " + si, pd, i, "h2d panel " + si, std::move(in_deps), p);

    // In-core panel factorization (recursive CGS on the device), R_ii into
    // a rotating b x b tile, then the R_ii and Q panel writebacks.
    const size_t rs = rtiles_.acquire();
    const Refs rii = rtiles_.refs(rs, w, w);
    std::vector<TaskId> fac_deps{inp};
    rtiles_.depend(rs, fac_deps);
    const TaskId fac = add_panel("fac " + si, pd, rii, std::move(fac_deps), p);
    std::vector<sim::Device::D2hBatchEntry> emit_out;
    for (size_t k = 0; k < members_.size(); ++k) {
      emit_out.push_back(
          {ooc::host_block(members_[k].r, offset(i), offset(i), w, w),
           rii[k]});
      emit_out.push_back({host_panel(k, i), pd[k]});
    }
    const TaskId emit =
        add_d2h("emit " + si, std::move(emit_out), "d2h RiiQ " + si, {fac}, p,
                {"d2h Rii " + si, "d2h Q " + si});
    rtiles_.use(rs, {emit});
    std::vector<TaskId> panel_readers{emit};

    // Trailing updates, one panel-width column slab at a time.
    for (index_t j = i + 1; j < panels_; ++j) {
      const index_t wj = width(j);
      const std::string sj = std::to_string(j);
      const std::string sij = idx(i, j);
      const std::int64_t pt = prio(i, 1);

      // Inner-product input slab (GEMM storage width — fp16 on the
      // TensorCore path, halving the streamed bytes like the solo engine).
      const size_t bs = bstream_.acquire();
      const Refs bd = bstream_.refs(bs, m_, wj);
      std::vector<TaskId> inb_deps;
      bstream_.depend(bs, inb_deps);
      if (out_a_.count(j) > 0) inb_deps.push_back(out_a_[j]);
      const TaskId inb =
          add_h2d("inB " + sij, bd, j, "h2d b " + sj, std::move(inb_deps), pt);

      // R12 = Q^T B over the full column height (k = m).
      const size_t rs2 = rtiles_.acquire();
      const Refs r12 = rtiles_.refs(rs2, w, wj);
      std::vector<TaskId> u1_deps{inb, fac};
      rtiles_.depend(rs2, u1_deps);
      const TaskId upd1 =
          add_gemm("inner " + sij, blas::Op::Trans, 1.0f, pd, bd, 0.0f, r12,
                   "gemm qtb " + sij, std::move(u1_deps), pt);
      bstream_.use(bs, {upd1});
      std::vector<sim::Device::D2hBatchEntry> r_out;
      for (size_t k = 0; k < members_.size(); ++k) {
        r_out.push_back(
            {ooc::host_block(members_[k].r, offset(i), offset(j), w, wj),
             r12[k]});
      }
      const TaskId outr =
          add_d2h("outR " + sij, std::move(r_out), "d2h R " + sij, {upd1}, pt);

      // Fresh fp32 read of the same slab as the beta = 1 accumulator —
      // the solo engines' double-streaming, byte for byte.
      const size_t cs = cstream_.acquire();
      const Refs cd = cstream_.refs(cs, m_, wj);
      std::vector<TaskId> inc_deps;
      cstream_.depend(cs, inc_deps);
      if (out_a_.count(j) > 0) inc_deps.push_back(out_a_[j]);
      const TaskId inc =
          add_h2d("inC " + sij, cd, j, "h2d c " + sj, std::move(inc_deps), pt);
      const TaskId upd2 =
          add_gemm("outer " + sij, blas::Op::NoTrans, -1.0f, pd, r12, 1.0f, cd,
                   "gemm upd " + sij, {inc, upd1}, pt);
      rtiles_.use(rs2, {outr, upd2});
      std::vector<sim::Device::D2hBatchEntry> a_out;
      for (size_t k = 0; k < members_.size(); ++k) {
        a_out.push_back({host_panel(k, j), cd[k]});
      }
      const TaskId outa =
          add_d2h("outA " + sij, std::move(a_out), "d2h tile " + sj, {upd2},
                  pt);
      cstream_.use(cs, {outa});
      out_a_[j] = outa;
      panel_readers.push_back(upd2);
    }
    panel_.use(ps, std::move(panel_readers));
    ++i_;
    units_ = i_;
    return true;
  }

 private:
  using Refs = std::vector<DeviceMatrixRef>;

  index_t width(index_t t) const { return std::min(b_, n_ - t * b_); }
  index_t offset(index_t t) const { return t * b_; }
  sim::HostConstRef host_panel_const(size_t k, index_t t) const {
    return ooc::host_block(sim::as_const(members_[k].a), 0, offset(t), m_,
                           width(t));
  }
  sim::HostMutRef host_panel(size_t k, index_t t) const {
    return ooc::host_block(members_[k].a, 0, offset(t), m_, width(t));
  }
  /// Priority key: (panel, phase) with phase 0 = panel move-in/factor/emit
  /// and 1 = the trailing updates, so colocated jobs interleave per panel.
  std::int64_t prio(index_t i, std::int64_t phase) const {
    return 4 * static_cast<std::int64_t>(i) + phase;
  }

  // The one place the batch width picks the device ops. Each helper adds
  // one node whose body issues, for K = 1, the solo op (one transfer per
  // payload, the ABFT-checked GEMM, panel_qr_device) and, for K > 1, one
  // batched op over every member's entries in member order.
  bool solo() const { return members_.size() == 1; }

  /// Move-in of every member's host panel t into `dst`.
  TaskId add_h2d(const std::string& node, const Refs& dst, index_t t,
                 const std::string& op, std::vector<TaskId> deps,
                 std::int64_t p) {
    std::vector<sim::Device::H2dBatchEntry> es;
    es.reserve(dst.size());
    for (size_t k = 0; k < dst.size(); ++k) {
      es.push_back({dst[k], host_panel_const(k, t)});
    }
    return g_.add(
        TaskStage::MoveIn, prefix_ + node,
        [this, es = std::move(es), name = prefix_ + op](TaskCtx& c) {
          if (solo()) {
            c.h2d(es[0].dst, es[0].src, name);
          } else {
            c.h2d_batched(es, name);
          }
        },
        std::move(deps), p);
  }

  /// C = alpha op(A) B + beta C per member (op(A) = A^T for the inner
  /// product, A for the outer update).
  TaskId add_gemm(const std::string& node, blas::Op opa, float alpha,
                  const Refs& a, const Refs& b, float beta, const Refs& c,
                  const std::string& op, std::vector<TaskId> deps,
                  std::int64_t p) {
    std::vector<sim::Device::GemmBatchEntry> es;
    es.reserve(a.size());
    for (size_t k = 0; k < a.size(); ++k) {
      es.push_back({opa, blas::Op::NoTrans, alpha, a[k], b[k], beta, c[k]});
    }
    return g_.add(
        TaskStage::Compute, prefix_ + node,
        [this, es = std::move(es), name = prefix_ + op](TaskCtx& ctx) {
          if (solo()) {
            const sim::Device::GemmBatchEntry& e = es[0];
            ctx.gemm(e.opa, e.opb, e.alpha, e.a, e.b, e.beta, e.c, name);
          } else {
            ctx.gemm_batched(es, name);
          }
        },
        std::move(deps), p);
  }

  /// In-core factorization of every member's panel `aq` into `r`.
  TaskId add_panel(const std::string& node, const Refs& aq, const Refs& r,
                   std::vector<TaskId> deps, std::int64_t p) {
    std::vector<PanelBatchEntry> es;
    es.reserve(aq.size());
    for (size_t k = 0; k < aq.size(); ++k) es.push_back({aq[k], r[k]});
    return g_.add(
        TaskStage::Compute, prefix_ + node,
        [this, es = std::move(es)](TaskCtx& c) {
          if (solo()) {
            panel_qr_device(c.device(), es[0].aq, es[0].r, c.stream(),
                            job_.opts, job_.label);
          } else {
            panel_qr_device_batched(
                c.device(), es, c.stream(), job_.opts,
                "fused panel_qr " + std::to_string(m_) + "x" +
                    std::to_string(es[0].aq.cols) + " x" +
                    std::to_string(es.size()));
          }
        },
        std::move(deps), p);
  }

  /// Move-out of member-major `es`. K > 1 drains them as one transfer
  /// named `op`; K = 1 issues one transfer per payload, named by
  /// `solo_ops` when a node drains several (the emit's R_ii and Q).
  TaskId add_d2h(const std::string& node,
                 std::vector<sim::Device::D2hBatchEntry> es,
                 const std::string& op, std::vector<TaskId> deps,
                 std::int64_t p, std::vector<std::string> solo_ops = {}) {
    if (solo_ops.empty()) solo_ops.push_back(op);
    return g_.add(
        TaskStage::MoveOut, prefix_ + node,
        [this, es = std::move(es), op, solo_ops = std::move(solo_ops)](
            TaskCtx& c) {
          if (!solo()) {
            c.d2h_batched(es, prefix_ + op);
            return;
          }
          for (size_t e = 0; e < es.size(); ++e) {
            c.d2h(es[e].dst, es[e].src, prefix_ + solo_ops[e]);
          }
        },
        std::move(deps), p);
  }

  /// Op-name prefix: the job label for K = 1 (per-job attribution on a
  /// shared device), "fused " for a fused batch.
  std::string prefix_;
  index_t m_ = 0;
  index_t n_ = 0;
  index_t b_ = 0;
  index_t panels_ = 0;
  index_t i_ = 0;
  index_t units_ = 0;
  SlotPool panel_;
  SlotPool bstream_;
  SlotPool cstream_;
  SlotPool rtiles_;
  std::map<index_t, TaskId> out_a_;
};

/// Lazy-projection (left-looking) CGS as a node program: panel i moves in
/// once, absorbs every previous panel's projection (Q_j streamed back in
/// GEMM storage width, R(j,i) = Q_j^T P with k = m then P -= Q_j R(j,i)
/// with k = w_j), factors, and writes Q_i / R_ii out. Same fixed k-extents
/// and elementwise fp16 conversions as the solo driver, so the arithmetic
/// is bitwise identical (resume tag "left"). One unit = one panel.
class LeftLookingProgram : public Program {
 public:
  LeftLookingProgram(TaskGraph& graph, const BatchJob& job)
      : Program(graph, {&job, 1}), a_(job.a), r_(job.r) {
    m_ = a_.rows;
    n_ = a_.cols;
    ROCQR_CHECK(m_ >= n_ && n_ >= 1, "left batch: need m >= n >= 1");
    ROCQR_CHECK(r_.rows == n_ && r_.cols == n_,
                "left batch: R must be n x n");
    b_ = std::min(job.opts.blocksize, n_);
    panels_ = (n_ + b_ - 1) / b_;
  }

  const char* driver_tag() const override { return "left"; }
  index_t units_done() const override { return units_; }
  index_t columns_done() const override { return std::min(units_ * b_, n_); }

  /// Working set: a panel double buffer, a streamed-Q ring of
  /// opts.pipeline_depth slots in GEMM storage width, and single shared
  /// R-block / R_ii scratches (the projection chain serializes on them,
  /// exactly like the solo driver's single-slot compute fence).
  void allocate(Device& dev) override {
    const std::string& l = job_.label;
    const StoragePrecision q_prec =
        ooc::detail::input_storage(gemm_options(job_.opts));
    const index_t panel_slots = std::min<index_t>(2, panels_);
    for (index_t s = 0; s < panel_slots; ++s) {
      panel_.add(ScopedMatrix(dev, m_, b_, StoragePrecision::FP32,
                              l + "ll panel " + std::to_string(s)));
    }
    const int depth = std::max(1, job_.opts.pipeline_depth);
    for (int s = 0; s < depth; ++s) {
      qring_.add(ScopedMatrix(dev, m_, b_, q_prec,
                              l + "ll q " + std::to_string(s)));
    }
    rblk_.add(ScopedMatrix(dev, b_, b_, StoragePrecision::FP32,
                           l + "ll rblk"));
    rii_.add(ScopedMatrix(dev, b_, b_, StoragePrecision::FP32,
                          l + "ll rii"));
  }

  /// Resume positioning: skipped panels' Q columns are on the host already
  /// (restored from the checkpoint), so later projections read them with
  /// no graph dependency.
  bool begin() override {
    i_ = std::min(job_.opts.resume_units, panels_);
    units_ = i_;
    emit_.assign(static_cast<size_t>(panels_), kNone);
    return false;
  }

  /// Adds panel i: move-in, the i previous panels' projections, factor,
  /// emit.
  bool add_step() override {
    if (i_ >= panels_) return false;
    const index_t i = i_;
    const index_t w = width(i);
    const std::string& l = job_.label;

    // The panel's columns are still ORIGINAL data (left-looking writes
    // each column block exactly once), so the move-in has no host-order
    // edge — only the WAR edge on the double-buffer slot.
    const size_t ps = static_cast<size_t>(i) % panel_.size();
    const DeviceMatrixRef pd = panel_.ref(ps, m_, w);
    std::vector<TaskId> in_deps;
    panel_.depend(ps, in_deps);
    const TaskId inp = g_.add(
        TaskStage::MoveIn, l + "inP " + std::to_string(i),
        [this, pd, i](TaskCtx& c) {
          c.h2d(pd, host_panel_const(i),
                job_.label + "h2d panel " + std::to_string(i));
        },
        std::move(in_deps), prio(i, 0));

    // Lazy application of every previous panel's projection. The single
    // shared R scratch chains them: projection j+1's beta = 0 GEMM waits
    // for projection j's R writeback to drain.
    TaskId last_proj = kNone;
    for (index_t j = 0; j < i; ++j) {
      const index_t wj = width(j);
      const std::int64_t pt = prio(i, 1);
      const size_t qs = qring_.acquire();
      const DeviceMatrixRef qd = qring_.ref(qs, m_, wj);
      std::vector<TaskId> inq_deps;
      qring_.depend(qs, inq_deps);
      // Q_j must have landed on the host — a real graph edge from its
      // emit. A resume-restored panel has none: its data is already there.
      if (emit_[static_cast<size_t>(j)] != kNone) {
        inq_deps.push_back(emit_[static_cast<size_t>(j)]);
      }
      const TaskId inq = g_.add(
          TaskStage::MoveIn, l + "inQ " + idx(i, j),
          [this, qd, j](TaskCtx& c) {
            c.h2d(qd, host_panel_const(j),
                  job_.label + "h2d Q" + std::to_string(j));
          },
          std::move(inq_deps), pt);

      // R(j, i) = Q_j^T P ; P -= Q_j R(j, i) — the skinny GEMM pair.
      const DeviceMatrixRef rb = rblk_.ref(0, wj, w);
      std::vector<TaskId> proj_deps{inq, inp};
      rblk_.depend(0, proj_deps);
      const TaskId proj = g_.add(
          TaskStage::Compute, l + "proj " + idx(i, j),
          [this, qd, pd, rb, i, j](TaskCtx& c) {
            c.gemm(blas::Op::Trans, blas::Op::NoTrans, 1.0f, qd, pd, 0.0f,
                   rb, job_.label + "proj R " + idx(i, j));
            c.gemm(blas::Op::NoTrans, blas::Op::NoTrans, -1.0f, qd, rb,
                   1.0f, pd, job_.label + "proj update " + idx(i, j));
          },
          std::move(proj_deps), pt);
      qring_.use(qs, {proj});
      const TaskId outr = g_.add(
          TaskStage::MoveOut, l + "outR " + idx(i, j),
          [this, rb, i, j](TaskCtx& c) {
            c.d2h(ooc::host_block(r_, offset(j), offset(i), rb.rows,
                                  rb.cols),
                  rb, job_.label + "d2h R block " + idx(i, j));
          },
          {proj}, pt);
      rblk_.use(0, {outr});
      last_proj = proj;
    }

    // In-core factorization of the fully projected panel, then the Q / Rii
    // writebacks. The shared Rii scratch's WAR edge is the previous emit.
    const DeviceMatrixRef rd = rii_.ref(0, w, w);
    std::vector<TaskId> fac_deps{inp};
    if (last_proj != kNone) fac_deps.push_back(last_proj);
    rii_.depend(0, fac_deps);
    const TaskId fac = g_.add(
        TaskStage::Compute, l + "fac " + std::to_string(i),
        [this, pd, rd](TaskCtx& c) {
          panel_qr_device(c.device(), pd, rd, c.stream(), job_.opts,
                          job_.label);
        },
        std::move(fac_deps), prio(i, 2));
    const TaskId emit = g_.add(
        TaskStage::MoveOut, l + "emit " + std::to_string(i),
        [this, rd, pd, i, w](TaskCtx& c) {
          c.d2h(ooc::host_block(r_, offset(i), offset(i), w, w), rd,
                job_.label + "d2h Rii " + std::to_string(i));
          c.d2h(host_panel(i), pd,
                job_.label + "d2h Q " + std::to_string(i));
        },
        {fac}, prio(i, 2));
    rii_.use(0, {emit});
    panel_.use(ps, {emit});
    emit_[static_cast<size_t>(i)] = emit;
    ++i_;
    units_ = i_;
    return true;
  }

 private:
  index_t width(index_t t) const { return std::min(b_, n_ - t * b_); }
  index_t offset(index_t t) const { return t * b_; }
  sim::HostConstRef host_panel_const(index_t t) const {
    return ooc::host_block(sim::as_const(a_), 0, offset(t), m_, width(t));
  }
  sim::HostMutRef host_panel(index_t t) const {
    return ooc::host_block(a_, 0, offset(t), m_, width(t));
  }
  /// Priority key: (panel, phase) with phase 0 = panel move-in, 1 = the
  /// projection sweep, 2 = factor/emit.
  std::int64_t prio(index_t i, std::int64_t phase) const {
    return 4 * static_cast<std::int64_t>(i) + phase;
  }

  HostMutRef a_;
  HostMutRef r_;
  index_t m_ = 0;
  index_t n_ = 0;
  index_t b_ = 0;
  index_t panels_ = 0;
  index_t i_ = 0;
  index_t units_ = 0;
  SlotPool panel_;
  SlotPool qring_;
  SlotPool rblk_;
  SlotPool rii_;
  std::vector<TaskId> emit_;
};

std::unique_ptr<Program> make_program(TaskGraph& graph, const BatchJob& job) {
  if (job.algorithm == "tiled") {
    return std::make_unique<TiledProgram>(graph, job);
  }
  if (job.algorithm == "blocking") {
    return std::make_unique<BlockingProgram>(
        graph, std::span<const BatchJob>(&job, 1));
  }
  if (job.algorithm == "left") {
    return std::make_unique<LeftLookingProgram>(graph, job);
  }
  throw InvalidArgument("run_batch: no node program for algorithm \"" +
                        job.algorithm + "\"");
}

/// Runs `progs` (already allocated on `graph`) to completion. Without a
/// checkpoint sink the whole DAG is built and run once — maximum lookahead
/// across every step and every program. With one, the graph runs round by
/// round so every boundary is a consistent "u units factored" host
/// snapshot: a round enqueues one segment of EVERY program before the
/// single graph.run(), so colocated jobs still interleave on the engines
/// between checkpoint syncs; only then does each member of an advanced
/// program checkpoint (maybe_checkpoint synchronizes before snapshotting,
/// and is where a serve PreemptSink raises PreemptRequest, unwinding the
/// whole batch). With one solo program this is exactly the
/// segment-per-segment schedule resume replays.
void run_programs(Device& dev, TaskGraph& graph,
                  const std::vector<std::unique_ptr<Program>>& progs,
                  bool checkpointed) {
  if (!checkpointed) {
    for (const auto& p : progs) p->begin();
    bool more = true;
    while (more) {
      more = false;
      for (const auto& p : progs) more = p->add_step() || more;
    }
    graph.run();
    return;
  }
  const auto checkpoint = [&](const std::vector<char>& advanced) {
    for (size_t i = 0; i < progs.size(); ++i) {
      if (!advanced[i]) continue;
      const Program& p = *progs[i];
      for (const BatchJob& job : p.members()) {
        maybe_checkpoint(dev, p.driver_tag(), job.a, job.r, job.opts,
                         p.columns_done(), p.units_done());
      }
    }
  };
  std::vector<char> advanced(progs.size(), 0);
  for (size_t i = 0; i < progs.size(); ++i) {
    advanced[i] = progs[i]->begin() ? 1 : 0;
  }
  graph.run();
  checkpoint(advanced); // a fresh tiled run factors tile 0 in begin()
  while (true) {
    bool more = false;
    for (size_t i = 0; i < progs.size(); ++i) {
      advanced[i] = progs[i]->add_step() ? 1 : 0;
      more = more || advanced[i] != 0;
    }
    if (!more) return;
    graph.run();
    checkpoint(advanced);
  }
}

/// The trace span of a batch: the solo driver's name when every job runs
/// tiled, or every job left-looking; else "qr_batch".
std::string batch_span_name(const std::vector<BatchJob>& jobs) {
  const auto all = [&](const char* algorithm) {
    return std::all_of(jobs.begin(), jobs.end(), [&](const BatchJob& j) {
      return j.algorithm == algorithm;
    });
  };
  if (all("tiled")) return "tiled_qr";
  if (all("left")) return "left_looking_qr";
  return "qr_batch";
}

} // namespace

std::vector<QrStats> run_batch(Device& dev,
                               const std::vector<BatchJob>& jobs) {
  ROCQR_CHECK(!jobs.empty(), "run_batch: no jobs");
  bool any_sink = false;
  for (const BatchJob& job : jobs) {
    job.opts.validate();
    any_sink = any_sink || job.opts.checkpoint_sink != nullptr;
    // The graph-level transfer/ABFT configuration comes from jobs[0]; a
    // precision mismatch would silently change another job's arithmetic.
    ROCQR_CHECK(job.opts.precision == jobs.front().opts.precision,
                "run_batch: colocated jobs must share a gemm precision");
  }

  const size_t window = dev.trace().size();
  sim::TraceSpan span(dev, batch_span_name(jobs));
  TaskGraph graph(dev, gemm_options(jobs.front().opts));
  std::vector<std::unique_ptr<Program>> progs;
  progs.reserve(jobs.size());
  for (const BatchJob& job : jobs) {
    progs.push_back(make_program(graph, job));
    progs.back()->allocate(dev);
  }
  run_programs(dev, graph, progs, any_sink);

  dev.synchronize();
  std::vector<QrStats> stats;
  stats.reserve(progs.size());
  for (const BatchJob& job : jobs) {
    stats.push_back(stats_from_trace(dev.trace(), window, dev.memory_peak(),
                                     job.label));
  }
  return stats;
}

std::vector<QrStats> run_fused_batch(Device& dev,
                                     const std::vector<BatchJob>& jobs) {
  ROCQR_CHECK(!jobs.empty(), "run_fused_batch: no jobs");
  const BatchJob& j0 = jobs.front();
  bool any_sink = false;
  for (const BatchJob& job : jobs) {
    job.opts.validate();
    ROCQR_CHECK(job.algorithm == "blocking",
                "run_fused_batch: only \"blocking\" jobs fuse (got \"" +
                    job.algorithm + "\")");
    ROCQR_CHECK(!job.opts.abft,
                "run_fused_batch: abft jobs cannot fuse (the batched GEMM "
                "carries no per-job checksum)");
    ROCQR_CHECK(job.a.rows == j0.a.rows && job.a.cols == j0.a.cols,
                "run_fused_batch: fused jobs must share one shape");
    ROCQR_CHECK(job.r.rows == job.a.cols && job.r.cols == job.a.cols,
                "run_fused_batch: R must be n x n");
    ROCQR_CHECK(job.opts.blocksize == j0.opts.blocksize,
                "run_fused_batch: fused jobs must share a blocksize");
    ROCQR_CHECK(job.opts.precision == j0.opts.precision,
                "run_fused_batch: fused jobs must share a gemm precision");
    ROCQR_CHECK(job.opts.panel_algorithm == j0.opts.panel_algorithm &&
                    job.opts.panel_base == j0.opts.panel_base,
                "run_fused_batch: fused jobs must share a panel algorithm");
    ROCQR_CHECK(job.opts.resume_units == j0.opts.resume_units,
                "run_fused_batch: fused jobs must share a resume position");
    any_sink = any_sink || job.opts.checkpoint_sink != nullptr;
  }

  const size_t window = dev.trace().size();
  sim::TraceSpan span(dev, "qr_fused_batch x" + std::to_string(jobs.size()));
  TaskGraph graph(dev, gemm_options(j0.opts));
  std::vector<std::unique_ptr<Program>> progs;
  progs.push_back(std::make_unique<BlockingProgram>(graph, jobs));
  progs.back()->allocate(dev);
  run_programs(dev, graph, progs, any_sink);

  dev.synchronize();
  return std::vector<QrStats>(
      jobs.size(),
      split_fused_stats(
          stats_from_trace(dev.trace(), window, dev.memory_peak()),
          static_cast<int>(jobs.size())));
}

QrStats split_fused_stats(QrStats whole, int members) {
  const auto k = static_cast<double>(members);
  whole.panel_seconds /= k;
  whole.gemm_seconds /= k;
  whole.d2d_seconds /= k;
  whole.h2d_seconds /= k;
  whole.d2h_seconds /= k;
  whole.compute_seconds /= k;
  whole.bytes_h2d =
      static_cast<bytes_t>(static_cast<double>(whole.bytes_h2d) / k);
  whole.bytes_d2h =
      static_cast<bytes_t>(static_cast<double>(whole.bytes_d2h) / k);
  whole.bytes_d2d =
      static_cast<bytes_t>(static_cast<double>(whole.bytes_d2d) / k);
  whole.flops = static_cast<flops_t>(static_cast<double>(whole.flops) / k);
  return whole;
}

} // namespace rocqr::qr::detail
