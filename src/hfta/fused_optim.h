// Horizontally fused optimizers. Where the unfused optimizer multiplies by
// a scalar learning rate, the fused one multiplies by a *vector* of B
// per-model learning rates broadcast over each parameter's model blocks
// (paper §3 "HFTA Optimizers and Learning Rate Schedulers").
//
// All fused parameters pack their B model blocks contiguously along dim 0
// (FusedParam), so "broadcast over model b's slice" is a strided loop.
// Optimizer state has the same layout: every state tensor is shaped like
// its parameter, so model b's state is dim-0 block b. Each rule declares
// its state families once (SGD: momentum; Adam: m, v; Adadelta:
// square_avg, acc_delta) and the FusedOptimizer base owns them, which lets
// one repack_state_from carry any rule's per-model state into a new array.
//
// Each update rule exists once, here, applied per model block. The serial
// optimizers at the bottom of this file (nn::SGD / nn::Adam / nn::Adadelta)
// are the B = 1 case: a constructor that maps scalar options to one-element
// hyper-vectors, so fused-vs-serial equality of the optimizer step holds
// by construction.
#pragma once

#include <vector>

#include "core/vec.h"
#include "hfta/fused_ops.h"
#include "nn/optim.h"

namespace hfta::fused {

/// Per-model hyper-parameter vector: size B, or size 1 (shared by all).
using HyperVec = std::vector<double>;

class FusedOptimizer : public nn::Optimizer {
 public:
  int64_t array_size() const { return array_size_; }
  /// Per-model learning rates (always size B).
  const HyperVec& lr() const { return lr_; }
  void set_lr(HyperVec lr);
  /// params() as FusedParams of this optimizer's array size.
  std::vector<FusedParam> fused_params() const;

  /// Carries optimizer state across a FusionPlan::repack_multi: this
  /// optimizer (freshly built over the repacked array's parameters, array
  /// size = picks.size()) receives model picks[j].model's block of every
  /// state tensor from sources[picks[j].source] as its model-j block, and
  /// the sources' step count, so every survivor's next step is
  /// bit-identical to the step its source array would have taken.
  /// Parameters must align index-wise across all sources (the planner
  /// emits steps — and therefore fused parameters — in the same order for
  /// the same model graph). Every source must run this optimizer's update
  /// rule and have taken as many steps (survivors of one rung trained
  /// equally), and each state tensor must be defined in all sources or in
  /// none.
  void repack_state_from(const std::vector<const FusedOptimizer*>& sources,
                         const std::vector<RepackPick>& picks);

 protected:
  /// `rule` names the update rule (a repack's sources must share it);
  /// `state` names its per-parameter state families, in the order state()
  /// indexes them. Both are string literals.
  FusedOptimizer(std::vector<FusedParam> params, int64_t array_size,
                 const char* rule, std::vector<const char*> state);
  /// State family f of parameter i, zero-filled on first use: a zero
  /// buffer makes every rule's first step the plain first-step formula.
  Tensor& state(size_t f, size_t i);
  /// Numel of one model's block of parameter i.
  int64_t per_model_numel(size_t i) const {
    return params_[i].numel() / array_size_;
  }
  HyperVec expand(HyperVec v) const;

  int64_t array_size_;
  HyperVec lr_;

 private:
  const char* rule_;
  std::vector<const char*> state_names_;
  std::vector<std::vector<Tensor>> state_;  // [family][param], lazily defined
};

/// Fused SGD with per-model lr / momentum / weight decay.
class FusedSGD : public FusedOptimizer {
 public:
  struct Options {
    HyperVec lr = {0.01};
    HyperVec momentum = {0.0};
    HyperVec weight_decay = {0.0};
  };
  FusedSGD(std::vector<FusedParam> params, int64_t array_size, Options opt);

 private:
  void step_impl(float grad_scale) override;
  HyperVec momentum_, weight_decay_;
};

/// Fused Adam with per-model lr / beta1 / beta2 / eps / weight decay.
class FusedAdam : public FusedOptimizer {
 public:
  struct Options {
    HyperVec lr = {1e-3};
    HyperVec beta1 = {0.9};
    HyperVec beta2 = {0.999};
    HyperVec eps = {1e-8};
    HyperVec weight_decay = {0.0};
  };
  FusedAdam(std::vector<FusedParam> params, int64_t array_size, Options opt);

 private:
  void step_impl(float grad_scale) override;
  HyperVec beta1_, beta2_, eps_, weight_decay_;
  std::vector<vec::AdamArgs> args_;  // per-model step constants
};

/// Fused Adadelta with per-model lr / rho / eps / weight decay.
class FusedAdadelta : public FusedOptimizer {
 public:
  struct Options {
    HyperVec lr = {1.0};
    HyperVec rho = {0.9};
    HyperVec eps = {1e-6};
    HyperVec weight_decay = {0.0};
  };
  FusedAdadelta(std::vector<FusedParam> params, int64_t array_size,
                Options opt);

 private:
  void step_impl(float grad_scale) override;
  HyperVec rho_, eps_, weight_decay_;
};

}  // namespace hfta::fused

namespace hfta::nn {

// Serial optimizers: the fused ones over a one-model array, with scalar
// hyper-parameters.

class SGD : public fused::FusedSGD {
 public:
  struct Options {
    double lr = 0.01;
    double momentum = 0.0;
    double weight_decay = 0.0;
  };
  SGD(std::vector<ag::Variable> params, Options opt);
};

class Adam : public fused::FusedAdam {
 public:
  struct Options {
    double lr = 1e-3;
    double beta1 = 0.9;
    double beta2 = 0.999;
    double eps = 1e-8;
    double weight_decay = 0.0;
  };
  Adam(std::vector<ag::Variable> params, Options opt);
};

class Adadelta : public fused::FusedAdadelta {
 public:
  struct Options {
    double lr = 1.0;
    double rho = 0.9;
    double eps = 1e-6;
    double weight_decay = 0.0;
  };
  Adadelta(std::vector<ag::Variable> params, Options opt);
};

}  // namespace hfta::nn
