// Fused LayerNorm (Appendix B row LayerNorm). B BatchNorms need no fused
// class: they are one nn::BatchNorm over B*C channels of the channel-fused
// layout (fused_ops.h).
#pragma once

#include "hfta/fused_ops.h"

namespace hfta::fused {

/// B LayerNorms fused on the model-major layout [B, N, D..., E...]: one
/// ag::layer_norm over the trailing E dims whose affine is grouped by model
/// (row run b uses w[b], b[b]) — Appendix B row LayerNorm.
class FusedLayerNorm : public FusedModule {
 public:
  FusedLayerNorm(int64_t B, Shape normalized_shape, float eps, Rng& rng);
  ag::Variable forward(const ag::Variable& x) override;

  ag::Variable weight;  // [B, E...]
  ag::Variable bias;
  Shape normalized_shape;
  float eps;
};

}  // namespace hfta::fused
