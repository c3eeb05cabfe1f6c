#include "hfta/train.h"

#include <atomic>

#include "core/check.h"
#include "core/parallel.h"
#include "core/vec.h"

namespace hfta {

namespace {

// FNV-1a over the optimizer's *structure*: which parameter impls and
// storages it steps, and their sizes. Learning-rate values are deliberately
// excluded — schedulers flow through replay (the real optimizer step runs
// each iteration); structural changes (Hyperband repack builds a new array
// and optimizer, fuse-mask/B changes re-register params) change the
// fingerprint and force recapture.
uint64_t fnv_mix(uint64_t h, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (i * 8)) & 0xffu;
    h *= 1099511628211ull;
  }
  return h;
}

uint64_t fnv_var(uint64_t h, const ag::Variable& v) {
  h = fnv_mix(h, reinterpret_cast<uint64_t>(v.id()));
  h = fnv_mix(h, reinterpret_cast<uint64_t>(v.value().data()));
  h = fnv_mix(h, static_cast<uint64_t>(v.numel()));
  return h;
}

uint64_t fingerprint(const nn::Optimizer& opt) {
  uint64_t h = 1469598103934665603ull;
  h = fnv_mix(h, opt.params().size());
  for (const ag::Variable& p : opt.params()) h = fnv_var(h, p);
  return h;
}

}  // namespace

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
    ProgramSlot& slot = programs_[static_cast<const void*>(&opt)];
    uint64_t fp = fingerprint(opt);
    if (amp_) {
      // Precision is structural: an AMP program's GEMM/conv thunks carry
      // the quantize policy by value, so toggling AMP (or changing its
      // dtype) must recapture, not replay a stale-precision graph.
      fp = fnv_mix(fp, 0x9e3779b97f4a7c15ull);
      fp = fnv_mix(fp, static_cast<uint64_t>(amp_dtype_));
    }
    if (slot.warm && slot.fingerprint != fp) {
      // Same optimizer address, different structure (e.g. a repacked group
      // reusing a slot): the captured graph is stale.
      slot.program.clear();
      slot.warm = false;
    }
    slot.fingerprint = fp;
    slot.last_used = ++use_clock_;

    if (slot.program.captured()) {
      step(opt, StepKind::kReplay, [&] {
        // Every tape run's seed shares amp_seed_'s storage; refreshing it
        // in place is how a scale change reaches every cached program
        // without recapture.
        if (amp_) refresh_amp_seed();
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
      ag::AutocastGuard amp(amp_ ? amp_dtype_ : DType::kF32);
      losses = loss_fn();
    }
    const Tensor seed = backward_seed();
    if (program) {
      program->finish_capture(engine_, losses, seed);
    } else {
      for (const ag::Variable& loss : losses) engine_.run(loss, seed);
    }
  });
  if (program) evict_lru();
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
  invalidate_programs();
}

void TrainStep::invalidate_programs() { programs_.clear(); }

void TrainStep::drop_program(const void* opt_key) { programs_.erase(opt_key); }

void TrainStep::evict_lru() {
  // Bounds pinned-buffer memory when many optimizers share one TrainStep.
  constexpr size_t kMaxPrograms = 32;
  while (programs_.size() > kMaxPrograms) {
    auto oldest = programs_.begin();
    for (auto it = programs_.begin(); it != programs_.end(); ++it)
      if (it->second.last_used < oldest->second.last_used) oldest = it;
    programs_.erase(oldest);
  }
}

void TrainStep::enable_amp(const AmpOptions& opts) {
  HFTA_CHECK(opts.dtype != DType::kF32,
             "enable_amp: dtype must be f16 or bf16");
  amp_ = true;
  amp_dtype_ = opts.dtype;
  scaler_ = fused::LossScaler(opts.scaler);
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
  if (!amp_) return Tensor();
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
  if (!amp_) {
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
