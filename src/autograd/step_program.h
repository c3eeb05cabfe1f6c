// Step programs: capture one training iteration's kernel sequence once,
// replay it tape-free thereafter — the compile-plan-once / execute-many
// posture of CUDA Graphs and MIOpen's Fusion API, applied to the fused
// training step.
//
// Eager mode re-records the autograd tape every iteration: a fresh
// ag::Node, closure, and Variable::Impl per differentiable op, plus a
// topological re-sort per backward. The graph is identical step to step —
// training IS the repetition of one step — so a StepProgram records that
// work exactly once:
//
//   - Forward: every differentiable op funnels through make_op
//     (autograd/functions.cpp), which, while a CaptureGuard is active,
//     appends {pinned output tensor, recompute thunk} to the recording
//     program. The thunk captures the op's *input tensors by value* —
//     shared storage, so the thunk permanently reads through the buffers
//     the capture run resolved from the StoragePool (buffer pinning).
//     Replay runs the thunks in recorded order, each handed its pinned
//     output as the destination its kernel writes into (view ops alias
//     their input and record no slot), so every downstream consumer —
//     including backward closures that captured input/output tensors —
//     sees fresh values with zero Node or closure construction, and no
//     pass beyond the kernels themselves.
//   - Forward state lives in the op that produces it: statistics, argmax
//     indices and dropout masks are tensors the op allocates once and its
//     thunk rewrites, and the thunk itself applies what a step does beyond
//     its output (ag::batch_norm's running-stat update, ag::dropout's draw
//     from the module's RNG stream). A slot is thus {out, compute} and
//     nothing else, and replay keeps every draw and update in eager order.
//   - Backward: finish_capture() drives the engine once per loss with a
//     BackwardTape sink (autograd/engine.h), freezing each run's executed
//     node schedule and every gradient buffer for in-place replay. A
//     single-loss step is the one-loss case of a multi-loss step.
//
// Replay contract (the CUDA-graphs static-input discipline): the loss
// builder is NOT called again, so all per-step data must be staged in
// place into the tensors the capture run read (TrainStep::stage), and any
// tensor-valued hyper-state must be mutated in place. Per-step *scalar*
// hypers (learning rates) remain live inputs because the optimizer step is
// executed for real around the replayed program, not baked into it.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "autograd/engine.h"
#include "autograd/variable.h"

namespace hfta::ag {

class StepProgram {
 public:
  /// Activates recording into `p` for the guard's scope (thread-local;
  /// nesting restores the previous recorder). Entering a guard clears any
  /// prior capture in `p`; a null `p` pins recording off (an eager step).
  class CaptureGuard {
   public:
    explicit CaptureGuard(StepProgram* p);
    ~CaptureGuard();
    CaptureGuard(const CaptureGuard&) = delete;
    CaptureGuard& operator=(const CaptureGuard&) = delete;

   private:
    StepProgram* prev_;
  };

  /// The program currently recording on this thread (null outside any
  /// CaptureGuard). make_op consults this.
  static StepProgram* recording();

  /// Appends one op: `out` is the pinned output buffer, `recompute` the
  /// kernel thunk replay calls with `out` as its destination.
  void record_op(const Tensor& out,
                 std::function<Tensor(const Tensor&)> recompute);

  /// Freezes the backward half: runs `engine` from each of `roots` in
  /// order, every run seeded with `seed`, with a capture sink (these ARE
  /// the step's real backward passes, not extra ones).
  void finish_capture(Engine& engine, const std::vector<Variable>& roots,
                      const Tensor& seed = Tensor());

  bool captured() const { return captured_; }
  /// Re-executes the captured step: forward thunks in recorded order, then
  /// the backward tape. Zero Node constructions, zero closure
  /// constructions, zero topo sorts.
  void replay();
  /// The captured loss variables, in backward order; their pinned values
  /// are refreshed by every replay().
  const std::vector<Variable>& losses() const { return losses_; }

  void clear();

 private:
  struct Slot {
    Tensor out;  // pinned output
    std::function<Tensor(const Tensor&)> compute;
  };

  std::vector<Slot> slots_;
  std::vector<Variable> losses_;
  BackwardTape tape_;
  bool captured_ = false;
};

}  // namespace hfta::ag
