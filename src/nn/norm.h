// Normalization layers. BatchNorm keeps running statistics (buffers) and
// switches between batch stats (training) and running stats (eval), exactly
// like torch.nn.BatchNorm*; it is one class template over the spatial rank
// R, with torch's BatchNorm1d/2d as aliases of its two instances. LayerNorm
// normalizes over trailing dims.
#pragma once

#include "nn/module.h"

namespace hfta::nn {

/// One ag::batch_norm over x's dim 1 (statistics over all other dims):
/// batch statistics and the running-stat update in training, running
/// statistics in eval. R sets only the accepted input ranks ([N, C] or
/// [N, C, L] at R = 1, [N, C, H, W] at R = 2) and the kind.
template <int R>
class BatchNorm : public Module {
 public:
  BatchNorm(int64_t channels, float eps = 1e-5f, float momentum = 0.1f);
  ag::Variable forward(const ag::Variable& x) override;
  LayerKind kind() const override {
    return R == 1 ? LayerKind::kBatchNorm1d : LayerKind::kBatchNorm2d;
  }
  ModuleConfig config() const override;
  std::shared_ptr<Module> make_array(int64_t B, Rng& rng) const override;
  ArrayLayout array_layout() const override {
    return ArrayLayout::kChannelFused;
  }

  ag::Variable weight;  // gamma [C]
  ag::Variable bias;    // beta [C]
  Tensor running_mean;  // [C]
  Tensor running_var;   // [C]
  int64_t channels;
  float eps;
  float momentum;
};
using BatchNorm1d = BatchNorm<1>;
using BatchNorm2d = BatchNorm<2>;

/// LayerNorm over the trailing dims. With an array size B > 1 (see
/// nn/layers.h) it is B LayerNorms on [B, ...]: one ag::layer_norm whose
/// affine is grouped by model (row run b uses block b of weight and bias).
class LayerNorm : public Module {
 public:
  /// normalized_shape: trailing dims E1..En to normalize over.
  LayerNorm(Shape normalized_shape, float eps, Rng& rng, int64_t B = 1);
  ag::Variable forward(const ag::Variable& x) override;
  LayerKind kind() const override { return LayerKind::kLayerNorm; }
  ModuleConfig config() const override;
  std::shared_ptr<Module> make_array(int64_t B, Rng& rng) const override;
  ArrayLayout array_layout() const override {
    return ArrayLayout::kModelMajor;
  }

  ag::Variable weight;  // [B*E1, E2..En]
  ag::Variable bias;    // [B*E1, E2..En]
  Shape normalized_shape;
  float eps;
  int64_t array_size;
};

}  // namespace hfta::nn
