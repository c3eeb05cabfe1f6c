#include "hfta/fused_norm.h"

#include "nn/norm.h"

namespace hfta::fused {

FusedLayerNorm::FusedLayerNorm(int64_t B, Shape shape, float eps, Rng&)
    : FusedModule(B), normalized_shape(std::move(shape)), eps(eps) {
  Shape wshape = {B};
  for (int64_t d : normalized_shape) wshape.push_back(d);
  weight = register_parameter("weight", Tensor::ones(wshape));
  bias = register_parameter("bias", Tensor::zeros(wshape));
}

ag::Variable FusedLayerNorm::forward(const ag::Variable& x) {
  nn::check_layer_norm_input(x.shape(), normalized_shape, 1, "FusedLayerNorm");
  HFTA_CHECK(x.size(0) == array_size_, "FusedLayerNorm: expected [B, ...]");
  // Model b's rows are the b-th of B equal runs: groups = B.
  return ag::layer_norm(x, weight, bias, array_size_, eps);
}

}  // namespace hfta::fused
