// Horizontally fused optimizers. Where the unfused optimizer multiplies by
// a scalar learning rate, the fused one multiplies by a *vector* of B
// per-model learning rates broadcast over each parameter's model blocks
// (paper §3 "HFTA Optimizers and Learning Rate Schedulers").
//
// All fused parameters pack their B model blocks contiguously along dim 0
// (FusedParam), so "broadcast over model b's slice" is a strided loop.
//
// Each update rule exists once, here, applied per model block. The serial
// optimizers at the bottom of this file (nn::SGD / nn::Adam / nn::Adadelta)
// are the B = 1 case: a constructor that maps scalar options to one-element
// hyper-vectors, so fused-vs-serial equality of the optimizer step holds
// by construction.
#pragma once

#include <functional>
#include <vector>

#include "core/vec.h"
#include "hfta/fused_ops.h"
#include "nn/optim.h"

namespace hfta::fused {

/// Per-model hyper-parameter vector: size B, or size 1 (shared by all).
using HyperVec = std::vector<double>;

/// Selects entries of a size-B (or size-1, broadcast) hyper-vector for the
/// surviving models of a repacked array: out[j] = v[keep[j]].
HyperVec select_hyper(const HyperVec& v, const std::vector<int64_t>& keep);

class FusedOptimizer : public nn::Optimizer {
 public:
  FusedOptimizer(std::vector<FusedParam> params, int64_t array_size);

  int64_t array_size() const { return array_size_; }
  /// Per-model learning rates (always size B).
  const HyperVec& lr() const { return lr_; }
  void set_lr(HyperVec lr);
  /// params() as FusedParams of this optimizer's array size.
  std::vector<FusedParam> fused_params() const;

  /// Carries optimizer state across a FusionPlan::repack_multi: this
  /// optimizer (freshly built over the repacked array's parameters, array
  /// size = picks.size()) receives model picks[j].model's state slice
  /// (momentum / Adam moments / step count) from sources[picks[j].source]
  /// as its model-j slice, so every survivor's next step is bit-identical
  /// to the step its source array would have taken. Parameters must align
  /// index-wise across all sources (the planner emits steps — and
  /// therefore fused parameters — in the same order for the same model
  /// graph); all sources must be this concrete optimizer type and agree on
  /// shared scalar state (Adam's step count).
  virtual void repack_state_from(const std::vector<const FusedOptimizer*>& sources,
                                 const std::vector<RepackPick>& picks) = 0;

 protected:
  /// Shared repack_state_from validation: array/param-count alignment,
  /// per-model block sizes, pick ranges.
  void check_repack(const std::vector<const FusedOptimizer*>& sources,
                   const std::vector<RepackPick>& picks) const;
  /// Gathers per-model blocks of one state tensor family across sources:
  /// dst[i] model-j block = sources[picks[j].source]'s state_of() tensor i,
  /// block picks[j].model. Defined-ness must agree across sources (all
  /// lazily uninitialized -> dst stays undefined, preserving lazy-init
  /// flags; mixed defined-ness is a step-count mismatch and rejected).
  void gather_state(
      const std::function<const std::vector<Tensor>&(const FusedOptimizer&)>&
          state_of,
      std::vector<Tensor>* dst_state,
      const std::vector<const FusedOptimizer*>& sources,
      const std::vector<RepackPick>& picks);
  /// Numel of one model's block of parameter i.
  int64_t per_model_numel(size_t i) const {
    return params_[i].numel() / array_size_;
  }
  /// Resolves v[b] for vectors of size B or 1.
  static double at(const HyperVec& v, int64_t b) {
    return v.size() == 1 ? v[0] : v[static_cast<size_t>(b)];
  }
  HyperVec expand(HyperVec v) const;

  int64_t array_size_;
  HyperVec lr_;
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
  void repack_state_from(const std::vector<const FusedOptimizer*>& sources,
                         const std::vector<RepackPick>& picks) override;

 private:
  void step_impl(float grad_scale) override;
  HyperVec momentum_, weight_decay_;
  std::vector<Tensor> momentum_buf_;
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
  void repack_state_from(const std::vector<const FusedOptimizer*>& sources,
                         const std::vector<RepackPick>& picks) override;

 private:
  void step_impl(float grad_scale) override;
  HyperVec beta1_, beta2_, eps_, weight_decay_;
  std::vector<Tensor> m_, v_;
  int64_t t_ = 0;
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
  void repack_state_from(const std::vector<const FusedOptimizer*>& sources,
                         const std::vector<RepackPick>& picks) override;

 private:
  void step_impl(float grad_scale) override;
  HyperVec rho_, eps_, weight_decay_;
  std::vector<Tensor> square_avg_, acc_delta_;
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
