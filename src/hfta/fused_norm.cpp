#include "hfta/fused_norm.h"

#include "tensor/ops.h"

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
  HFTA_CHECK(x.size(0) == array_size_, "FusedLayerNorm: expected [B, ...]");
  const int64_t n = static_cast<int64_t>(normalized_shape.size());
  HFTA_CHECK(x.dim() >= n + 1, "FusedLayerNorm: rank too small");
  std::vector<int64_t> dims;
  for (int64_t i = x.dim() - n; i < x.dim(); ++i) {
    HFTA_CHECK(x.size(i) == normalized_shape[static_cast<size_t>(i - (x.dim() - n))],
               "FusedLayerNorm: trailing shape mismatch at dim ", i);
    dims.push_back(i);
  }
  ag::Variable mean_v = ag::mean(x, dims, /*keepdim=*/true);
  ag::Variable centered = ag::sub(x, mean_v);
  ag::Variable var_v = ag::mean(ag::mul(centered, centered), dims, true);
  ag::Variable inv_std = ag::pow_scalar(ag::add_scalar(var_v, eps), -0.5f);
  ag::Variable xhat = ag::mul(centered, inv_std);
  // Broadcast the per-model affine [B, E...] as [B, 1..., E...].
  Shape bshape(static_cast<size_t>(x.dim()), 1);
  bshape[0] = array_size_;
  for (int64_t i = 0; i < n; ++i)
    bshape[static_cast<size_t>(x.dim() - n + i)] =
        normalized_shape[static_cast<size_t>(i)];
  ag::Variable w = ag::reshape(weight, bshape);
  ag::Variable b = ag::reshape(bias, bshape);
  return ag::add(ag::mul(xhat, w), b);
}

}  // namespace hfta::fused
