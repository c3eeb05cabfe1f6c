#include "nn/norm.h"


namespace hfta::nn {

BatchNormBase::BatchNormBase(int64_t channels, float eps, float momentum)
    : channels(channels), eps(eps), momentum(momentum) {
  weight = register_parameter("weight", Tensor::ones({channels}));
  bias = register_parameter("bias", Tensor::zeros({channels}));
  running_mean = register_buffer("running_mean", Tensor::zeros({channels}));
  running_var = register_buffer("running_var", Tensor::ones({channels}));
}

ag::Variable BatchNormBase::normalize(const ag::Variable& x) {
  return ag::batch_norm(x, weight, bias, running_mean, running_var,
                        is_training(), momentum, eps);
}

BatchNorm2d::BatchNorm2d(int64_t channels, float eps, float momentum)
    : BatchNormBase(channels, eps, momentum) {}

ag::Variable BatchNorm2d::forward(const ag::Variable& x) {
  HFTA_CHECK(x.dim() == 4 && x.size(1) == channels,
             "BatchNorm2d: expected [N, ", channels, ", H, W], got ",
             shape_str(x.shape()));
  return normalize(x);
}

BatchNorm1d::BatchNorm1d(int64_t channels, float eps, float momentum)
    : BatchNormBase(channels, eps, momentum) {}

ag::Variable BatchNorm1d::forward(const ag::Variable& x) {
  HFTA_CHECK((x.dim() == 2 || x.dim() == 3) && x.size(1) == channels,
             "BatchNorm1d: expected [N, ", channels, "] or [N, ", channels,
             ", L], got ", shape_str(x.shape()));
  return normalize(x);
}

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

namespace {
ModuleConfig batch_norm_config(const BatchNormBase& bn) {
  ModuleConfig c;
  c.set("channels", bn.channels);
  c.set("eps", static_cast<double>(bn.eps));
  c.set("momentum", static_cast<double>(bn.momentum));
  return c;
}
}  // namespace

ModuleConfig BatchNorm2d::config() const { return batch_norm_config(*this); }
ModuleConfig BatchNorm1d::config() const { return batch_norm_config(*this); }

// B BatchNorms are one BatchNorm over B*C channels: per-(model, channel)
// statistics.
std::shared_ptr<Module> BatchNorm2d::make_array(int64_t B, Rng&) const {
  return std::make_shared<BatchNorm2d>(B * channels, eps, momentum);
}

std::shared_ptr<Module> BatchNorm1d::make_array(int64_t B, Rng&) const {
  return std::make_shared<BatchNorm1d>(B * channels, eps, momentum);
}

std::shared_ptr<Module> LayerNorm::make_array(int64_t B, Rng& rng) const {
  return std::make_shared<LayerNorm>(normalized_shape, eps, rng,
                                     B * array_size);
}

ModuleConfig LayerNorm::config() const {
  ModuleConfig c;
  c.set("eps", static_cast<double>(eps));
  c.dims = normalized_shape;
  return c;
}

}  // namespace hfta::nn
