#include "hfta/fused_norm.h"

namespace hfta::fused {

namespace {

// The per-model BN state lives in the nested B*C-channel impl, as dim-0
// blocks of each of its four tensors.
StateMap batch_norm_state(const nn::BatchNormBase& impl) {
  return {param_entry("weight", impl.weight), param_entry("bias", impl.bias),
          buffer_entry("running_mean", impl.running_mean),
          buffer_entry("running_var", impl.running_var)};
}

}  // namespace

FusedBatchNorm2d::FusedBatchNorm2d(int64_t B, int64_t channels, float eps,
                                   float momentum)
    : FusedModule(B), channels(channels) {
  impl = register_module(
      "bn", std::make_shared<nn::BatchNorm2d>(B * channels, eps, momentum));
}

ag::Variable FusedBatchNorm2d::forward(const ag::Variable& x) {
  return impl->forward(x);
}

StateMap FusedBatchNorm2d::state_map() const {
  return batch_norm_state(*impl);
}

FusedBatchNorm1d::FusedBatchNorm1d(int64_t B, int64_t channels, float eps,
                                   float momentum)
    : FusedModule(B), channels(channels) {
  impl = register_module(
      "bn", std::make_shared<nn::BatchNorm1d>(B * channels, eps, momentum));
}

ag::Variable FusedBatchNorm1d::forward(const ag::Variable& x) {
  return impl->forward(x);
}

StateMap FusedBatchNorm1d::state_map() const {
  return batch_norm_state(*impl);
}

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
