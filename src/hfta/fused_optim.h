// Horizontally fused optimizers. Where the unfused optimizer multiplies by
// a scalar learning rate, the fused one multiplies by a *vector* of B
// per-model learning rates broadcast over each parameter's model blocks
// (paper §3 "HFTA Optimizers and Learning Rate Schedulers").
//
// All fused parameters pack their B model blocks contiguously along dim 0
// (FusedParam), so "broadcast over model b's slice" is a strided loop.
#pragma once

#include <functional>
#include <vector>

#include "hfta/fused_ops.h"

namespace hfta::fused {

/// Per-model hyper-parameter vector: size B, or size 1 (shared by all).
using HyperVec = std::vector<double>;

/// Selects entries of a size-B (or size-1, broadcast) hyper-vector for the
/// surviving models of a repacked array: out[j] = v[keep[j]].
HyperVec select_hyper(const HyperVec& v, const std::vector<int64_t>& keep);

class FusedOptimizer {
 public:
  FusedOptimizer(std::vector<FusedParam> params, int64_t array_size);
  virtual ~FusedOptimizer() = default;

  /// One update. An AMP step passes grad_scale = 1/S, applied to every
  /// gradient READ — the fused per-element kernels fold the multiply into
  /// the update, so gradients stay scaled in memory (zero_grad wipes them
  /// next iteration) and no separate unscale pass runs. Bit-identical to
  /// unscaling in place first; grad_scale == 1 skips the multiply.
  void step(double grad_scale = 1.0) {
    step_impl(static_cast<float>(grad_scale));
  }
  void zero_grad();

  int64_t array_size() const { return array_size_; }
  /// Per-model learning rates (always size B).
  const HyperVec& lr() const { return lr_; }
  void set_lr(HyperVec lr);
  /// The fused parameters this optimizer steps (fingerprinted by step
  /// programs to detect structural changes such as a Hyperband repack).
  const std::vector<FusedParam>& fused_params() const { return params_; }

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
  /// Single-source convenience (model keep[j] of `src` becomes model j):
  /// thin delegate to the multi-source gather — one code path for both.
  void repack_state_from(const FusedOptimizer& src,
                         const std::vector<int64_t>& keep);

 protected:
  virtual void step_impl(float grad_scale) = 0;
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
  /// Resolves v[b] for vectors of size B or 1.
  static double at(const HyperVec& v, int64_t b) {
    return v.size() == 1 ? v[0] : v[static_cast<size_t>(b)];
  }
  HyperVec expand(HyperVec v) const;

  std::vector<FusedParam> params_;
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
  using FusedOptimizer::repack_state_from;
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
  using FusedOptimizer::repack_state_from;
  void repack_state_from(const std::vector<const FusedOptimizer*>& sources,
                         const std::vector<RepackPick>& picks) override;

 private:
  void step_impl(float grad_scale) override;
  HyperVec beta1_, beta2_, eps_, weight_decay_;
  std::vector<Tensor> m_, v_;
  int64_t t_ = 0;
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
  using FusedOptimizer::repack_state_from;
  void repack_state_from(const std::vector<const FusedOptimizer*>& sources,
                         const std::vector<RepackPick>& picks) override;

 private:
  void step_impl(float grad_scale) override;
  HyperVec rho_, eps_, weight_decay_;
  std::vector<Tensor> square_avg_, acc_delta_;
};

}  // namespace hfta::fused
