#include "ooc/pipeline.hpp"

#include <sstream>

#include "common/error.hpp"
#include "ooc/engine_util.hpp"
#include "ooc/resilience.hpp"

namespace rocqr::ooc {

using sim::Event;

SlabPipeline::SlabPipeline(sim::Device& dev, const OocGemmOptions& opts,
                           std::string span_name,
                           std::vector<Event> wait_before)
    : graph_(dev, opts, std::move(span_name), std::move(wait_before)) {}

Event SlabPipeline::stage_resident(sim::DeviceMatrixRef dst,
                                   sim::HostConstRef src,
                                   const std::string& name) {
  // Eagerly enqueued: one-shot stages must keep the legacy program order
  // relative to surrounding run()/run_task() calls, and callers may free
  // the host source right after this returns.
  const TaskId id = graph_.add(
      TaskStage::MoveIn, "stage " + name,
      [dst, src, name](TaskCtx& t) { t.h2d(dst, src, name); });
  graph_.run();
  return graph_.done(id);
}

namespace {

std::string describe_plan(const SlabPlan& plan, const OocGemmOptions& opts) {
  std::ostringstream os;
  os << "slab-pipeline " << (plan.label.empty() ? "loop" : plan.label) << ": "
     << plan.steps << " step(s)";
  if (plan.steps_per_group > 1) {
    os << " in groups of " << plan.steps_per_group;
  }
  if (plan.input_slots > 0) {
    os << ", input pool " << plan.input_slots << " slot(s)";
  } else {
    os << ", no streamed-input pool";
  }
  switch (plan.output_fence) {
    case OutputFence::None:
      os << ", output resident (no slot fence)";
      break;
    case OutputFence::MoveIn:
      os << ", output slots " << plan.output_slots << " (move-in fence)";
      break;
    case OutputFence::MoveInCounted:
      os << ", output slots " << plan.output_slots
         << " (move-in fence, counted)";
      break;
    case OutputFence::Compute:
      os << ", output slots " << plan.output_slots << " (compute fence)";
      break;
  }
  os << ", " << plan.resident_ready.size() << " resident operand(s)"
     << ", regions " << (plan.input_region ? "on" : "off") << ", blocksize "
     << opts.blocksize;
  if (opts.tile_cols > 0) os << " x " << opts.tile_cols;
  os << ", ramp "
     << (opts.ramp_up ? "from " + std::to_string(opts.ramp_start) : "off")
     << ", staging " << (opts.staging_buffer ? "on" : "off") << ", depth "
     << opts.pipeline_depth << (opts.synchronous ? ", SYNCHRONOUS" : "")
     << (opts.abft ? ", abft" : "") << "\n";
  return os.str();
}

} // namespace

// Lowering: each step becomes (up to) four nodes added in the legacy
// program order —
//
//   M1  streamed move-in; dep = the input-pool fence (compute node
//       `input_slots` global steps back) or the counted output-slot fence
//       (move-out node `output_slots` groups back); carries the §4.2
//       input region.
//   M2  output move-in; dep = M1 (same-stream FIFO) + the §4.1.2
//       output-slot fence (move-out node `output_slots` groups back).
//       Present when there is an output move-in or a MoveIn fence to
//       place between the two transfers.
//   C   compute; dep = the last move-in node, + the accumulator fence
//       (move-out node, per-group first step) for Compute-fenced plans.
//       First step waits the resident_ready events in its body.
//   O   per-group move-out; dep = the group's last compute.
//
// All nodes share priority 0 and every edge points backward, so the
// executor enqueues them in exactly this order: the device sees the same
// op/wait sequence the legacy interleaved loop produced (pinned by
// tests/schedule_golden_test.cpp and ooc_pipeline_lowering_test.cpp).
SlabRunResult SlabPipeline::run(const SlabPlan& plan) {
  ROCQR_CHECK(plan.steps > 0, "SlabPipeline: empty plan");
  ROCQR_CHECK(plan.compute != nullptr, "SlabPipeline: plan needs a compute");
  ROCQR_CHECK(plan.steps_per_group >= 1 &&
                  plan.steps % plan.steps_per_group == 0,
              "SlabPipeline: steps must be whole groups");
  ROCQR_CHECK(plan.output_slots >= 1, "SlabPipeline: output_slots < 1");
  plan_description_ += describe_plan(plan, options());

  const std::string stem = plan.label.empty() ? "loop" : plan.label;
  std::vector<TaskId> compute_ids;
  compute_ids.reserve(static_cast<size_t>(plan.steps));
  std::vector<TaskId> out_ids;
  std::vector<std::optional<std::pair<Slab, Slab>>> out_regions;

  for (index_t step = 0; step < plan.steps; ++step) {
    const index_t group = step / plan.steps_per_group;
    const index_t local = step % plan.steps_per_group;
    const std::string tag = stem + " s" + std::to_string(step);

    // Streamed-input pool fence: the slot this step rotates into was last
    // read by the compute `input_slots` global steps ago; the move-in may
    // not overwrite it earlier. The history spans run() calls so a split
    // loop fences like one long loop. Without a pool, the counted
    // output-slot fence is the prefetch account (blocking outer product,
    // trsm base case).
    std::vector<TaskId> m1_deps;
    const index_t g_hist = static_cast<index_t>(history_.size());
    if (plan.input_slots > 0) {
      detail::count_slab_prefetch(g_hist >= plan.input_slots);
      if (g_hist >= plan.input_slots) {
        m1_deps.push_back(
            history_[static_cast<size_t>(g_hist - plan.input_slots)]);
      }
    } else if (plan.output_fence == OutputFence::MoveInCounted) {
      detail::count_slab_prefetch(group >= plan.output_slots);
      if (group >= plan.output_slots) {
        m1_deps.push_back(
            out_ids[static_cast<size_t>(group - plan.output_slots)]);
      }
    }

    std::function<void(TaskCtx&)> m1_body;
    if (plan.move_in) {
      m1_body = [&plan, step](TaskCtx& t) {
        MoveInCtx c(t);
        plan.move_in(c, step);
      };
    }
    const TaskId m1 = graph_.add(TaskStage::MoveIn, "in " + tag,
                                 std::move(m1_body), std::move(m1_deps));
    if (plan.input_region) {
      if (const auto region = plan.input_region(step)) {
        graph_.set_input_region(m1, region->first, region->second);
      }
    }

    // §4.1.2 output-slot fence: the working buffer this step's output
    // move-in (and GEMM) reuses must have drained `output_slots` groups
    // ago — one group with the single-buffer baseline, two with the
    // rotating staging pair. The fence lands between the streamed and the
    // output move-in, hence the node split.
    TaskId m_last = m1;
    const bool movein_fence =
        plan.output_fence == OutputFence::MoveIn && group >= plan.output_slots;
    if (plan.move_in_output || movein_fence) {
      std::vector<TaskId> m2_deps{m1};
      if (movein_fence) {
        m2_deps.push_back(
            out_ids[static_cast<size_t>(group - plan.output_slots)]);
      }
      std::function<void(TaskCtx&)> m2_body;
      if (plan.move_in_output) {
        m2_body = [&plan, step](TaskCtx& t) {
          MoveInCtx c(t);
          plan.move_in_output(c, step);
        };
      }
      m_last = graph_.add(TaskStage::MoveIn, "in-out " + tag,
                          std::move(m2_body), std::move(m2_deps));
    }

    // Accumulator fence: the group's first (beta = 0) compute overwrites an
    // output slot whose previous group must have drained.
    std::vector<TaskId> c_deps{m_last};
    if (plan.output_fence == OutputFence::Compute && local == 0 &&
        group >= plan.output_slots) {
      c_deps.push_back(
          out_ids[static_cast<size_t>(group - plan.output_slots)]);
    }
    const bool first_step = step == 0;
    const TaskId cid = graph_.add(
        TaskStage::Compute, "comp " + tag,
        [&plan, step, first_step](TaskCtx& t) {
          if (first_step) {
            for (const Event& e : plan.resident_ready) t.wait(e);
          }
          ComputeCtx c(t);
          plan.compute(c, step);
        },
        std::move(c_deps));
    history_.push_back(cid);
    compute_ids.push_back(cid);

    if (local == plan.steps_per_group - 1 && plan.move_out) {
      const TaskId oid = graph_.add(
          TaskStage::MoveOut, "out " + stem + " g" + std::to_string(group),
          [&plan, group](TaskCtx& t) {
            MoveOutCtx c(t);
            plan.move_out(c, group);
          },
          {cid});
      out_ids.push_back(oid);
      out_regions.push_back(plan.output_region ? plan.output_region(group)
                                               : std::nullopt);
    }
  }

  graph_.run();

  SlabRunResult r;
  r.compute_done.reserve(compute_ids.size());
  for (TaskId id : compute_ids) r.compute_done.push_back(graph_.done(id));
  r.out_done.reserve(out_ids.size());
  for (size_t g = 0; g < out_ids.size(); ++g) {
    const Event out_ev = graph_.done(out_ids[g]);
    r.out_done.push_back(out_ev);
    if (out_regions[g]) {
      r.output_regions.push_back(
          RegionEvent{out_regions[g]->first, out_regions[g]->second, out_ev});
    }
  }
  return r;
}

TaskResult SlabPipeline::run_task(const TaskPlan& plan) {
  const std::string stem = plan.label.empty() ? "task" : plan.label;
  TaskResult r;

  TaskId m = -1, c = -1, o = -1;
  if (plan.move_in || !plan.move_in_waits.empty()) {
    m = graph_.add(TaskStage::MoveIn, stem + " in", [&plan](TaskCtx& t) {
      for (const Event& e : plan.move_in_waits) t.wait(e);
      if (plan.move_in) {
        MoveInCtx mc(t);
        plan.move_in(mc);
      }
    });
  }
  if (plan.compute) {
    // The compute chains on the move-in only when one actually ran; bare
    // move_in_waits fence the H2D stream without gating compute.
    std::vector<TaskId> deps;
    if (plan.move_in) deps.push_back(m);
    c = graph_.add(
        TaskStage::Compute, stem + " comp",
        [&plan](TaskCtx& t) {
          for (const Event& e : plan.compute_waits) t.wait(e);
          ComputeCtx cc(t);
          plan.compute(cc);
        },
        std::move(deps));
  }
  if (plan.move_out) {
    std::vector<TaskId> deps;
    if (c >= 0) deps.push_back(c);
    o = graph_.add(
        TaskStage::MoveOut, stem + " out",
        [&plan](TaskCtx& t) {
          MoveOutCtx mc(t);
          plan.move_out(mc);
        },
        std::move(deps));
  }
  graph_.run();

  if (plan.move_in && m >= 0) r.moved_in = graph_.done(m);
  if (c >= 0) r.computed = graph_.done(c);
  if (o >= 0) r.moved_out = graph_.done(o);
  return r;
}

const std::string& SlabPipeline::plan_description() const {
  description_cache_ = plan_description_;
  if (!graph_.plan_description().empty()) {
    description_cache_ += graph_.plan_description() + "\n";
  }
  return description_cache_;
}

ResidentInput stage_operand(SlabPipeline& p, const Operand& op,
                            const std::string& label,
                            const std::string& copy_name) {
  ResidentInput r;
  if (op.is_resident()) {
    r.ref = op.device_ref();
    r.ready = op.ready_event();
    return r;
  }
  r.owned = sim::ScopedMatrix(p.device(), op.rows(), op.cols(),
                              detail::input_storage(p.options()), label);
  r.ready = p.stage_resident(r.owned.get(), op.host(), copy_name);
  r.ref = sim::DeviceMatrixRef(r.owned.get());
  return r;
}

} // namespace rocqr::ooc
