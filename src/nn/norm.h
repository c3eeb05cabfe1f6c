// Normalization layers. BatchNorm keeps running statistics (buffers) and
// switches between batch stats (training) and running stats (eval), exactly
// like torch.nn.BatchNorm*. LayerNorm normalizes over trailing dims.
#pragma once

#include "nn/module.h"

namespace hfta::nn {

/// Shared BatchNorm math for the 1d ([N,C] / [N,C,L]) and 2d ([N,C,H,W])
/// variants.
class BatchNormBase : public Module {
 public:
  BatchNormBase(int64_t channels, float eps, float momentum);

  ag::Variable weight;  // gamma [C]
  ag::Variable bias;    // beta [C]
  Tensor running_mean;  // [C]
  Tensor running_var;   // [C]
  int64_t channels;
  float eps;
  float momentum;

 protected:
  /// One ag::batch_norm over x's dim 1 (statistics over all other dims):
  /// batch statistics in training, followed by the running-stat update
  /// (also recorded into a capturing step program); running stats in eval.
  ag::Variable normalize(const ag::Variable& x);
};

class BatchNorm2d : public BatchNormBase {
 public:
  BatchNorm2d(int64_t channels, float eps = 1e-5f, float momentum = 0.1f);
  ag::Variable forward(const ag::Variable& x) override;
  LayerKind kind() const override { return LayerKind::kBatchNorm2d; }
  ModuleConfig config() const override;
  std::shared_ptr<Module> clone() const override;
};

class BatchNorm1d : public BatchNormBase {
 public:
  BatchNorm1d(int64_t channels, float eps = 1e-5f, float momentum = 0.1f);
  ag::Variable forward(const ag::Variable& x) override;
  LayerKind kind() const override { return LayerKind::kBatchNorm1d; }
  ModuleConfig config() const override;
  std::shared_ptr<Module> clone() const override;
};

class LayerNorm : public Module {
 public:
  /// normalized_shape: trailing dims E1..En to normalize over.
  LayerNorm(Shape normalized_shape, float eps, Rng& rng);
  ag::Variable forward(const ag::Variable& x) override;
  LayerKind kind() const override { return LayerKind::kLayerNorm; }
  ModuleConfig config() const override;
  std::shared_ptr<Module> clone() const override;

  ag::Variable weight;  // [E1..En]
  ag::Variable bias;    // [E1..En]
  Shape normalized_shape;
  float eps;
};

/// Checks that x has `lead` dims before a trailing normalized_shape (`who`
/// names the module in the error).
void check_layer_norm_input(const Shape& x, const Shape& normalized_shape,
                            int64_t lead, const char* who);

}  // namespace hfta::nn
