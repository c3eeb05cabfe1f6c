// The optimizer interface. Every update rule the paper exercises (SGD with
// momentum / weight decay, Adam, Adadelta) is implemented once, per model
// block, by the fused optimizers in hfta/fused_optim.h: a fused optimizer
// turns each scalar hyper-parameter into a per-model vector (paper §3), so
// the serial optimizers nn::SGD / nn::Adam / nn::Adadelta declared there
// are simply the one-model (B = 1) case with scalar options.
#pragma once

#include <vector>

#include "autograd/variable.h"

namespace hfta::nn {

class Optimizer {
 public:
  virtual ~Optimizer() = default;

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

  /// Every parameter this optimizer steps, in step order (fingerprinted by
  /// step programs to detect structural changes such as a Hyperband
  /// repack).
  const std::vector<ag::Variable>& params() const { return params_; }

 protected:
  explicit Optimizer(std::vector<ag::Variable> params)
      : params_(std::move(params)) {}
  virtual void step_impl(float grad_scale) = 0;

  std::vector<ag::Variable> params_;
  int64_t steps_ = 0;
};

}  // namespace hfta::nn
