// The iteration engine's driver layer: one TrainStep API for every
// training loop in the repo (examples, benches, the HFHT executor).
//
// Every hand-rolled loop here used to repeat the same five lines —
// zero_grad, forward, loss, backward, optimizer step — and every copy paid
// the full per-iteration overhead: a fresh autograd traversal scratch per
// backward and heap-allocated storage for every activation and gradient.
// TrainStep owns the two reusable pieces (an ag::Engine and the pool's
// IterationScope accounting) and drives the canonical sequence; callers
// keep their own loop around it (epochs, schedulers, logging). Porting a
// loop onto TrainStep is what makes pooling + engine reuse apply to it —
// and keeps it bit-exact, because the step order is the same five lines it
// always ran.
#pragma once

#include <functional>
#include <unordered_map>
#include <vector>

#include "autograd/autocast.h"
#include "autograd/engine.h"
#include "autograd/step_program.h"
#include "core/function_ref.h"
#include "core/storage_pool.h"
#include "hfta/fused_optim.h"
#include "hfta/loss_scaling.h"
#include "nn/module.h"
#include "nn/optim.h"

namespace hfta {

/// Builds one iteration's loss graph (forward + loss, under the caller's
/// data). Runs inside the step's pooled iteration scope.
using LossFn = std::function<ag::Variable()>;
/// Multi-loss variant (e.g. a GAN discriminator's real and fake terms):
/// each loss runs backward, in order, before the single optimizer step. A
/// LossFn step is the one-loss case of this one.
using MultiLossFn = std::function<std::vector<ag::Variable>()>;

/// One training iteration: zero_grad -> forward/loss -> backward (through
/// the long-lived engine) -> optimizer step, wrapped in an IterationScope
/// so per-step allocation behavior is observable. One TrainStep may drive
/// several models/optimizers (the engine scratch is graph-agnostic);
/// steady-state steps hit the storage pool for every tensor they allocate.
class TrainStep {
 public:
  struct Stats {
    int64_t steps = 0;               // iterations driven by this TrainStep
    uint64_t last_heap_allocs = 0;   // storage heap allocs in the last step
    uint64_t last_pool_hits = 0;     // pool recycling hits in the last step
    uint64_t last_node_constructions = 0;  // ag::Node builds in the last step
    bool last_was_replay = false;    // last step replayed a step program
    int64_t captures = 0;            // step programs captured so far
    int64_t replays = 0;             // steps served tape-free by replay
    int64_t amp_overflow_skips = 0;  // AMP steps skipped on non-finite grads
  };

  /// One iteration: `opt` is zero_grad'ed and stepped around the loss
  /// built by `loss_fn`. Returns the loss variable (its value is alive; its
  /// tape has been consumed by backward). `opt` is a fused array or a
  /// serial optimizer alike — a serial optimizer is the one-model array.
  ag::Variable run(nn::Optimizer& opt, const LossFn& loss_fn);

  /// Multi-loss iteration (losses run backward in order, one step; leaf
  /// gradients sum every loss's contributions). A replay returns the
  /// program's pinned losses and an eager or capture step a vector this
  /// TrainStep owns, so the reference holds until the next run or program
  /// drop on this TrainStep.
  const std::vector<ag::Variable>& run(nn::Optimizer& opt,
                                       const MultiLossFn& loss_fn);

  /// Backward through the reusable engine, for hand-assembled iterations
  /// that cannot use run() (optimizer-free timing probes, seeded backward,
  /// interleaved updates).
  void backward(const ag::Variable& loss, Tensor seed = Tensor());

  // ---- mixed precision (autocast + dynamic loss scaling) ----------------
  //
  // With AMP enabled, run() builds the losses under an AutocastGuard
  // (GEMM/conv-class ops take low-precision inputs and accumulate f32; see
  // autograd/autocast.h) and applies dynamic loss scaling through the
  // backward SEED: seeding backward with the scale S computes d(S*L)/dw
  // without touching the loss value that run() returns. Every loss of a
  // multi-loss step is seeded with the same S, so the leaf gradients hold
  // S*(g1 + g2 + ...) and the one scan and unscale below cover them.
  // Before the optimizer step, every gradient is scanned READ-ONLY for
  // inf/nan after the 1/S multiply (allocation-free); when all are finite
  // the optimizer folds 1/S into its update via step(grad_scale) — bit-
  // identical to unscaling the buffers first, with one fewer memory pass.
  // A non-finite gradient skips the step and backs the scale off. Scales
  // stay powers of two, so scale/unscale are exact exponent shifts and
  // fused-vs-serial bit-exactness survives.
  //
  // Capture/replay compatible: the quantize policy rides by value in the
  // recorded GEMM/conv thunks, every captured
  // BackwardTape run's seed SHARES the persistent seed tensor's storage (a
  // scale change is an in-place refresh, not a recapture), and the AMP
  // mode + dtype are mixed into each program's fingerprint so toggling
  // precision recaptures.

  struct AmpOptions {
    DType dtype = DType::kBF16;
    fused::LossScaler::Options scaler;
  };

  void enable_amp(const AmpOptions& opts);
  void enable_amp() { enable_amp(AmpOptions()); }
  /// Turns AMP off (cached fp32 programs, fingerprinted separately, stay).
  void disable_amp() { amp_ = false; }
  bool amp_enabled() const { return amp_; }
  DType amp_dtype() const { return amp_dtype_; }
  /// The dynamic scale controller. Persists for the TrainStep's lifetime —
  /// in the HFHT executor that means across Hyperband rungs and repacks.
  fused::LossScaler& scaler() { return scaler_; }
  const fused::LossScaler& scaler() const { return scaler_; }

  // ---- step-program capture & replay ---------------------------------
  //
  // Opt-in (a data-varying loss builder would silently train on stale
  // data): once enabled, both run() overloads drive one eager step per
  // optimizer, capture the next step into an ag::StepProgram (the eager
  // step with a recorder attached; one backward run per loss), and replay
  // it thereafter — no Node construction, no closure allocation, no topo
  // sort, and (warm) no heap allocation.
  //
  // Static-input discipline: during replay the loss builder is NOT
  // called, so per-step data must be staged in place into the tensors the
  // capture run read (see stage()). Per-step scalar hypers (learning
  // rates) stay live — the real optimizer step runs around every replay.
  //
  // Invalidation: each program is fingerprinted over the optimizer's
  // structure (param identities, storages, sizes). A repack, fuse-mask
  // change, or any param re-registration changes the fingerprint and
  // recaptures automatically; stage() with a new shape invalidates every
  // program (batch-size change reshapes the graph).

  /// Enables capture on this TrainStep. Each optimizer's first step runs
  /// eagerly so the pool is warm before a program pins its buffers.
  void enable_capture() { capture_ = true; }

  /// Stages per-step data into `*dst` (a tensor the captured graph
  /// reads): same-shape sources are copied in place so replays observe
  /// them; a shape change reassigns the tensor and invalidates all
  /// programs (the graph must be recaptured over the new buffer).
  void stage(Tensor* dst, const Tensor& src);

  /// Drops every cached program (next runs re-warm and recapture).
  void invalidate_programs();
  /// Drops the program cached for one optimizer (pass its address) —
  /// e.g. when a Hyperband group retires and its optimizer is destroyed.
  void drop_program(const void* opt_key);
  int64_t program_count() const {
    return static_cast<int64_t>(programs_.size());
  }

  const Stats& stats() const { return stats_; }

 private:
  struct ProgramSlot {
    uint64_t fingerprint = 0;
    bool warm = false;       // the warm-up eager step has run
    int64_t last_used = 0;   // LRU clock value
    ag::StepProgram program;
  };

  using Losses = std::vector<ag::Variable>;
  using LossesFn = FunctionRef<Losses()>;
  enum class StepKind { kEager, kCapture, kReplay };
  /// The envelope every step runs in: an IterationScope around zero_grad,
  /// `body` (forward and backward, or a replay), then amp_step and the
  /// stats.
  template <typename Body>
  void step(nn::Optimizer& opt, StepKind kind, const Body& body);
  /// One step of `opt`: eager (the losses `loss_fn` builds into `losses`,
  /// under autocast when AMP is on, then one backward per loss with the
  /// AMP seed), the same step recorded into `opt`'s program, or a replay
  /// of that program. Returns `losses`, or after a replay the program's
  /// pinned losses (by reference: a replayed step copies no vector).
  const Losses& run_step(nn::Optimizer& opt, LossesFn loss_fn,
                         Losses& losses);
  void evict_lru();

  /// Rewrites the persistent scalar seed tensor with the current scale
  /// (in place — captured tapes share its storage).
  void refresh_amp_seed();
  /// The seed for this step's backward: the refreshed scale tensor under
  /// AMP, undefined (seed-with-ones) otherwise.
  Tensor backward_seed();
  /// Read-only scan: true iff every gradient element times inv_scale is
  /// finite (the grads themselves are left scaled — the optimizer applies
  /// 1/S via step(grad_scale)).
  bool grads_finite(const nn::Optimizer& opt, double inv_scale);
  /// The optimizer step under the AMP contract: finiteness scan first,
  /// step(1/S) when clean, skip + backoff on overflow, scaler update either
  /// way. Plain opt.step() when AMP is off.
  void amp_step(nn::Optimizer& opt);

  ag::Engine engine_;
  Stats stats_;
  std::unordered_map<const void*, ProgramSlot> programs_;
  // The last eager or capture multi-loss step's losses, released when the
  // next step of any kind starts, before it builds its own losses.
  Losses multi_losses_;
  bool capture_ = false;
  int64_t use_clock_ = 0;
  bool amp_ = false;
  DType amp_dtype_ = DType::kBF16;
  fused::LossScaler scaler_;
  Tensor amp_seed_;  // persistent scalar; every captured tape shares it
  float amp_seed_value_ = 0.f;  // last value written; skips redundant fills
};

}  // namespace hfta
