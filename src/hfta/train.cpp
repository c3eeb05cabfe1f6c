#include "hfta/train.h"

#include <atomic>

#include "core/check.h"
#include "core/parallel.h"
#include "core/vec.h"

namespace hfta {

namespace {

// Process-unique, so a program captured under one TrainStep, or under an
// earlier state of this one, never matches another. 0 is "not captured".
uint64_t next_epoch() {
  static std::atomic<uint64_t> last{0};
  return last.fetch_add(1, std::memory_order_relaxed) + 1;
}

}  // namespace

TrainStep::TrainStep() : epoch_(next_epoch()) {}

template <typename Body>
void TrainStep::step(nn::Optimizer& opt, StepKind kind, const Body& body) {
  IterationScope scope;
  opt.zero_grad();
  body();
  amp_step(opt);
  ++stats_.steps;
  if (kind == StepKind::kCapture) ++stats_.captures;
  if (kind == StepKind::kReplay) ++stats_.replays;
  stats_.last_was_replay = kind == StepKind::kReplay;
  const IterationScope::Stats s = scope.stats();
  stats_.last_heap_allocs = s.heap_allocs;
  stats_.last_pool_hits = s.pool_hits;
  stats_.last_node_constructions = s.node_constructions;
}

const TrainStep::Losses& TrainStep::run_step(nn::Optimizer& opt,
                                             LossesFn loss_fn,
                                             Losses& losses) {
  // The last multi-loss step's graphs go before this step builds its own,
  // so holding them costs no pool memory.
  multi_losses_.clear();
  // The capture run is the eager step with `opt`'s program attached.
  ag::StepProgram* program = nullptr;
  if (capture_) {
    nn::Optimizer::CapturedStep& slot = opt.captured_step();
    if (slot.epoch != epoch_) {
      // Captured under another TrainStep, or before this one restaged a
      // buffer or changed precision: the recorded graph is stale.
      slot.program.clear();
      slot.warm = false;
      slot.epoch = epoch_;
    }

    if (slot.program.captured()) {
      step(opt, StepKind::kReplay, [&] {
        // Every tape run's seed shares amp_seed_'s storage; refreshing it
        // in place is how a scale change reaches every cached program
        // without recapture.
        if (amp_enabled()) refresh_amp_seed();
        slot.program.replay();
      });
      return slot.program.losses();
    }
    // The first step runs eagerly, so the pool is warm before the next
    // one, the capture run, pins its buffers.
    if (slot.warm) program = &slot.program;
    slot.warm = true;
  }

  step(opt, program ? StepKind::kCapture : StepKind::kEager, [&] {
    {
      // A null program pins recording off; kF32 pins autocast OFF for fp32
      // steps, regardless of ambient guards.
      ag::StepProgram::CaptureGuard capture(program);
      ag::AutocastGuard amp(amp_dtype_);
      losses = loss_fn();
    }
    const Tensor seed = backward_seed();
    if (program) {
      program->finish_capture(engine_, losses, seed);
    } else {
      for (const ag::Variable& loss : losses) engine_.run(loss, seed);
    }
  });
  return losses;
}

void TrainStep::stage(Tensor* dst, const Tensor& src) {
  HFTA_CHECK(dst != nullptr, "stage: null destination");
  if (!dst->defined()) {
    // First stage: no program can have captured this tensor yet.
    *dst = src.clone();
    return;
  }
  if (dst->shape() == src.shape()) {
    dst->copy_(src);
    return;
  }
  // Shape change: captured graphs read the old buffer — recapture all.
  *dst = src.clone();
  epoch_ = next_epoch();
}

void TrainStep::enable_amp(const AmpOptions& opts) {
  HFTA_CHECK(opts.dtype != DType::kF32,
             "enable_amp: dtype must be f16 or bf16");
  set_amp_dtype(opts.dtype);
  scaler_ = fused::LossScaler(opts.scaler);
}

void TrainStep::set_amp_dtype(DType dtype) {
  // Precision is structural: an AMP program's GEMM/conv thunks carry the
  // quantize policy by value, so a dtype change must recapture, not replay
  // a stale-precision graph.
  if (dtype != amp_dtype_) epoch_ = next_epoch();
  amp_dtype_ = dtype;
}

void TrainStep::refresh_amp_seed() {
  // The scale only moves on overflow or growth-interval events, so most
  // steps the seed already holds the right value and the fill is skipped.
  const float s = static_cast<float>(scaler_.scale());
  if (amp_seed_.defined() && amp_seed_value_ == s) return;
  if (!amp_seed_.defined()) amp_seed_ = Tensor::empty({});
  amp_seed_.fill_(s);
  amp_seed_value_ = s;
}

Tensor TrainStep::backward_seed() {
  if (!amp_enabled()) return Tensor();
  refresh_amp_seed();
  return amp_seed_;
}

namespace {

// Read-only finiteness scan of one gradient: the verdict on g * 1/S, the
// multiply the optimizer folds into its gradient reads (the buffer is
// untouched — zero_grad wipes it next iteration anyway). The verdict is an
// OR over elements, so neither the partition nor the lane schedule can
// change it.
bool grad_finite_scaled(const Tensor& grad, float inv) {
  const float* p = grad.data();
  const int64_t n = grad.numel();
  std::atomic<bool> found_inf{false};
  parallel_for(Partition::elems(n), [&](int64_t lo, int64_t hi) {
    if (!vec::finite_scaled(p + lo, inv, hi - lo))
      found_inf.store(true, std::memory_order_relaxed);
  });
  return !found_inf.load(std::memory_order_relaxed);
}

}  // namespace

bool TrainStep::grads_finite(const nn::Optimizer& opt, double inv_scale) {
  const float inv = static_cast<float>(inv_scale);
  bool finite = true;
  // A parameter without a gradient is skipped, as the optimizers skip it:
  // grad() would allocate a zero gradient that the step then applies.
  for (ag::Variable v : opt.params())  // shared impl: grad() is live
    if (v.has_grad()) finite &= grad_finite_scaled(v.grad(), inv);
  return finite;
}

void TrainStep::amp_step(nn::Optimizer& opt) {
  if (!amp_enabled()) {
    opt.step();
    return;
  }
  // Scan every gradient (no short-circuit: the scan is the only pass that
  // touches them, and a consistent verdict costs one read). When clean, the
  // optimizer folds 1/S into its gradient reads — same bits as unscaling
  // the buffers first, one fewer memory pass per parameter.
  const double inv = 1.0 / scaler_.scale();
  const bool finite = grads_finite(opt, inv);
  if (finite) {
    opt.step(inv);
  } else {
    ++stats_.amp_overflow_skips;
  }
  scaler_.update(!finite);
}

ag::Variable TrainStep::run(nn::Optimizer& opt, const LossFn& loss_fn) {
  Losses losses;
  return run_step(opt, [&] { return Losses{loss_fn()}; }, losses).front();
}

const std::vector<ag::Variable>& TrainStep::run(nn::Optimizer& opt,
                                                const MultiLossFn& loss_fn) {
  return run_step(opt, loss_fn, multi_losses_);
}

void TrainStep::backward(const ag::Variable& loss, Tensor seed) {
  engine_.run(loss, std::move(seed));
}

}  // namespace hfta
