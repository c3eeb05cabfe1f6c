#include "nn/norm.h"

namespace hfta::nn {

template <int R>
BatchNorm<R>::BatchNorm(int64_t channels, float eps, float momentum)
    : channels(channels), eps(eps), momentum(momentum) {
  weight = register_parameter("weight", Tensor::ones({channels}));
  bias = register_parameter("bias", Tensor::zeros({channels}));
  running_mean = register_buffer("running_mean", Tensor::zeros({channels}));
  running_var = register_buffer("running_var", Tensor::ones({channels}));
}

template <int R>
ag::Variable BatchNorm<R>::forward(const ag::Variable& x) {
  HFTA_CHECK((x.dim() == R + 2 || (R == 1 && x.dim() == 2)) &&
                 x.size(1) == channels,
             kind_name(), ": expected ",
             R == 1 ? "[N, C] or [N, C, L]" : "[N, C, H, W]", " with C = ",
             channels, ", got ", shape_str(x.shape()));
  return ag::batch_norm(x, weight, bias, running_mean, running_var,
                        is_training(), momentum, eps);
}

template <int R>
ModuleConfig BatchNorm<R>::config() const {
  ModuleConfig c;
  c.set("channels", channels);
  c.set("eps", eps);
  c.set("momentum", momentum);
  return c;
}

// B BatchNorms are one BatchNorm over B*C channels: per-(model, channel)
// statistics.
template <int R>
std::shared_ptr<Module> BatchNorm<R>::make_array(int64_t B, Rng&) const {
  return std::make_shared<BatchNorm<R>>(B * channels, eps, momentum);
}

template class BatchNorm<1>;
template class BatchNorm<2>;

LayerNorm::LayerNorm(Shape shape, float eps, Rng&, int64_t B)
    : normalized_shape(std::move(shape)), eps(eps), array_size(B) {
  HFTA_CHECK(B >= 1, "LayerNorm: array size must be >= 1, got ", B);
  HFTA_CHECK(!normalized_shape.empty(), "LayerNorm: empty normalized shape");
  Shape affine = normalized_shape;
  affine[0] *= B;
  weight = register_parameter("weight", Tensor::ones(affine));
  bias = register_parameter("bias", Tensor::zeros(affine));
}

ag::Variable LayerNorm::forward(const ag::Variable& x) {
  const int64_t B = array_size;
  const Shape& xs = x.shape();
  const size_t n = normalized_shape.size();
  HFTA_CHECK(xs.size() >= n + (B > 1 ? 1 : 0) &&
                 (B == 1 || xs[0] == B) &&
                 Shape(xs.end() - static_cast<std::ptrdiff_t>(n), xs.end()) ==
                     normalized_shape,
             "LayerNorm: input ", shape_str(xs), " does not end in ",
             shape_str(normalized_shape),
             B > 1 ? " after a leading array dim of " : "",
             B > 1 ? std::to_string(B) : "");
  // Model b's rows are the b-th of B equal runs: groups = B.
  return ag::layer_norm(x, weight, bias, B, eps);
}

std::shared_ptr<Module> LayerNorm::make_array(int64_t B, Rng& rng) const {
  return std::make_shared<LayerNorm>(normalized_shape, eps, rng,
                                     B * array_size);
}

ModuleConfig LayerNorm::config() const {
  ModuleConfig c;
  c.set("eps", eps);
  for (size_t i = 0; i < normalized_shape.size(); ++i)
    c.set("normalized_shape[" + std::to_string(i) + "]",
          static_cast<double>(normalized_shape[i]));
  return c;
}

}  // namespace hfta::nn
