// The optimizer interface. Every update rule the paper exercises (SGD with
// momentum / weight decay, Adam, Adadelta) is implemented once, per model
// block, by the fused optimizers in hfta/fused_optim.h: a fused optimizer
// turns each scalar hyper-parameter into a per-model vector (paper §3), so
// the serial optimizers nn::SGD / nn::Adam / nn::Adadelta declared there
// are simply the one-model (B = 1) case with scalar options.
#pragma once

#include <cstdint>
#include <vector>

#include "autograd/step_program.h"
#include "autograd/variable.h"

namespace hfta::nn {

class Optimizer {
 public:
  virtual ~Optimizer() = default;
  // Parameters are shared handles and a captured step pins this
  // optimizer's own graph, so a copy would be an alias, not an optimizer.
  Optimizer(const Optimizer&) = delete;
  Optimizer& operator=(const Optimizer&) = delete;

  /// One update. An AMP step passes grad_scale = 1/S, which every
  /// optimizer folds into its gradient reads instead of unscaling the
  /// buffers first — bit-identical (one f32 multiply either way), but
  /// gradients stay scaled in memory. grad_scale == 1 skips the multiply.
  void step(double grad_scale = 1.0) {
    ++steps_;
    step_impl(static_cast<float>(grad_scale));
  }
  /// step() calls so far: Adam's bias correction reads it, and a repack
  /// carries it into the new array's optimizer.
  int64_t steps() const { return steps_; }
  void zero_grad() {
    for (ag::Variable& p : params_) p.zero_grad();
  }

  /// Every parameter this optimizer steps, in step order.
  const std::vector<ag::Variable>& params() const { return params_; }

  /// The step a capture-enabled hfta::TrainStep recorded for this
  /// optimizer (hfta/train.h). It lives and dies with the optimizer, so no
  /// other optimizer can ever replay it. `epoch` names the TrainStep state
  /// it was captured under (0: none yet); `warm` says the warm-up eager
  /// step has run under that epoch.
  struct CapturedStep {
    ag::StepProgram program;
    uint64_t epoch = 0;
    bool warm = false;
  };
  CapturedStep& captured_step() { return captured_; }
  /// Frees the captured step and the graph it pins; the next capture-
  /// enabled step warms up and captures again.
  void release_program() { captured_ = CapturedStep(); }

 protected:
  explicit Optimizer(std::vector<ag::Variable> params)
      : params_(std::move(params)) {}
  virtual void step_impl(float grad_scale) = 0;

  std::vector<ag::Variable> params_;
  int64_t steps_ = 0;

 private:
  CapturedStep captured_;
};

}  // namespace hfta::nn
