#include "nn/layers.h"

#include "nn/init.h"
#include "tensor/ops.h"

namespace hfta::nn {

namespace {
// With an array size B > 1, rejects an input that is not [B, ...] (`who`
// names the module in the error).
void check_array_input(const Shape& x, int64_t B, const char* who) {
  if (B == 1) return;
  HFTA_CHECK(!x.empty() && x[0] == B, who, ": expected [", B,
             ", ...] for an array of ", B, ", got ", shape_str(x));
}
}  // namespace

Linear::Linear(int64_t in, int64_t out, bool has_bias, Rng& rng, int64_t B)
    : in_features(in), out_features(out), array_size(B) {
  HFTA_CHECK(B >= 1, "Linear: array size must be >= 1, got ", B);
  weight = register_parameter(
      "weight", init::kaiming_uniform({B * out, in}, in, rng));
  if (has_bias)
    bias = register_parameter("bias",
                              init::kaiming_uniform({B * out}, in, rng));
}

ag::Variable Linear::forward(const ag::Variable& x) {
  check_array_input(x.shape(), array_size, "Linear");
  return ag::linear(x, weight, bias, array_size);
}

// Weight [out, in/groups, k...] (Conv) or [in, out/groups, k...]
// (ConvTranspose) with R kernel dims; both draw with fan-in = the numel of
// one dim-0 slice.
template <int R>
Conv<R>::Conv(int64_t in, int64_t out, int64_t kernel, int64_t stride,
              int64_t pad, int64_t groups, bool has_bias, Rng& rng)
    : args(ops::ConvArgs::make(stride, pad, groups)) {
  Shape w = {out, in / groups};
  w.resize(2 + R, kernel);
  const int64_t fan_in = shape_numel(w) / out;
  weight = register_parameter("weight", init::kaiming_uniform(w, fan_in, rng));
  if (has_bias)
    bias = register_parameter("bias",
                              init::kaiming_uniform({out}, fan_in, rng));
}

template <int R>
ag::Variable Conv<R>::forward(const ag::Variable& x) {
  return ag::conv(x, weight, bias, args);
}

template <int R>
ConvTranspose<R>::ConvTranspose(int64_t in, int64_t out, int64_t kernel,
                                int64_t stride, int64_t pad, int64_t out_pad,
                                int64_t groups, bool has_bias, Rng& rng)
    : args{stride, pad, out_pad, groups} {
  Shape w = {in, out / groups};
  w.resize(2 + R, kernel);
  const int64_t fan_in = shape_numel(w) / in;
  weight = register_parameter("weight", init::kaiming_uniform(w, fan_in, rng));
  if (has_bias)
    bias = register_parameter("bias",
                              init::kaiming_uniform({out}, fan_in, rng));
}

template <int R>
ag::Variable ConvTranspose<R>::forward(const ag::Variable& x) {
  return ag::conv_transpose(x, weight, bias, args);
}

Embedding::Embedding(int64_t vocab, int64_t dim, Rng& rng, int64_t B)
    : vocab(vocab), dim(dim), array_size(B) {
  HFTA_CHECK(B >= 1, "Embedding: array size must be >= 1, got ", B);
  weight = register_parameter("weight",
                              init::normal({B * vocab, dim}, 0.f, 1.f, rng));
}

ag::Variable Embedding::forward(const ag::Variable&) {
  HFTA_CHECK(false, "Embedding: use lookup(indices) instead of forward()");
  return ag::Variable();
}

ag::Variable Embedding::lookup(const Tensor& indices) {
  check_array_input(indices.shape(), array_size, "Embedding");
  return ag::embedding(indices, weight, array_size);
}

MaxPool2d::MaxPool2d(int64_t kernel, int64_t stride, int64_t pad)
    : args{kernel, stride, pad} {}

ag::Variable MaxPool2d::forward(const ag::Variable& x) {
  return ag::max_pool2d(x, args);
}

AdaptiveAvgPool2d::AdaptiveAvgPool2d(int64_t out_h, int64_t out_w)
    : out_h(out_h), out_w(out_w) {}

ag::Variable AdaptiveAvgPool2d::forward(const ag::Variable& x) {
  return ag::adaptive_avg_pool2d(x, out_h, out_w);
}

Dropout::Dropout(float p, uint64_t seed) : p(p), rng_(seed) {
  HFTA_CHECK(p >= 0.f && p < 1.f, "Dropout: p must be in [0, 1)");
}

ag::Variable Dropout::forward(const ag::Variable& x) {
  if (!is_training() || p == 0.f) return x;
  return ag::dropout(x, p, rng_);
}

Dropout2d::Dropout2d(float p, uint64_t seed) : p(p), rng_(seed) {
  HFTA_CHECK(p >= 0.f && p < 1.f, "Dropout2d: p must be in [0, 1)");
}

ag::Variable Dropout2d::forward(const ag::Variable& x) {
  if (!is_training() || p == 0.f) return x;
  HFTA_CHECK(x.dim() == 4, "Dropout2d expects [N, C, H, W]");
  return ag::dropout(x, p, rng_, x.size(2) * x.size(3));
}

// ---- reflection ------------------------------------------------------------

ModuleConfig Linear::config() const {
  ModuleConfig c;
  c.set("in", in_features);
  c.set("out", out_features);
  c.set("bias", bias.defined());
  return c;
}

template <int R>
ModuleConfig Conv<R>::config() const {
  ModuleConfig c;
  c.set("in", weight.size(1) * args.groups);
  c.set("out", weight.size(0));
  c.set("kernel", weight.size(2));
  c.set("stride", args.stride_w);
  c.set("pad", args.pad_w);
  c.set("groups", args.groups);
  c.set("bias", bias.defined());
  return c;
}

template <int R>
ModuleConfig ConvTranspose<R>::config() const {
  ModuleConfig c;
  c.set("in", weight.size(0));
  c.set("out", weight.size(1) * args.groups);
  c.set("kernel", weight.size(2));
  c.set("stride", args.stride);
  c.set("pad", args.pad);
  c.set("out_pad", args.out_pad);
  c.set("groups", args.groups);
  c.set("bias", bias.defined());
  return c;
}

ModuleConfig Embedding::config() const {
  ModuleConfig c;
  c.set("vocab", vocab);
  c.set("dim", dim);
  return c;
}

ModuleConfig MaxPool2d::config() const {
  ModuleConfig c;
  c.set("kernel", args.kernel);
  c.set("stride", args.stride);
  c.set("pad", args.pad);
  return c;
}

ModuleConfig AdaptiveAvgPool2d::config() const {
  ModuleConfig c;
  c.set("out_h", out_h);
  c.set("out_w", out_w);
  return c;
}

ModuleConfig Dropout::config() const {
  ModuleConfig c;
  c.set("p", static_cast<double>(p));
  return c;
}

ModuleConfig Dropout2d::config() const {
  ModuleConfig c;
  c.set("p", static_cast<double>(p));
  return c;
}

// ---- array forms -----------------------------------------------------------
//
// B of these layers are the same layer at B x width (B*in -> B*out channels,
// B*groups groups) or at B times the array size: same per-model weight
// shapes, fan_in, init draw order and kernels as B plain layers. The pools
// and dropouts run unchanged on the B x wide input.

std::shared_ptr<Module> Linear::make_array(int64_t B, Rng& rng) const {
  return std::make_shared<Linear>(in_features, out_features, bias.defined(),
                                  rng, B * array_size);
}

template <int R>
std::shared_ptr<Module> Conv<R>::make_array(int64_t B, Rng& rng) const {
  return std::make_shared<Conv<R>>(
      B * weight.size(1) * args.groups, B * weight.size(0), weight.size(2),
      args.stride_w, args.pad_w, B * args.groups, bias.defined(), rng);
}

template <int R>
std::shared_ptr<Module> ConvTranspose<R>::make_array(int64_t B,
                                                     Rng& rng) const {
  return std::make_shared<ConvTranspose<R>>(
      B * weight.size(0), B * weight.size(1) * args.groups, weight.size(2),
      args.stride, args.pad, args.out_pad, B * args.groups, bias.defined(),
      rng);
}

std::shared_ptr<Module> Embedding::make_array(int64_t B, Rng& rng) const {
  return std::make_shared<Embedding>(vocab, dim, rng, B * array_size);
}

std::shared_ptr<Module> MaxPool2d::make_array(int64_t, Rng&) const {
  return std::make_shared<MaxPool2d>(args.kernel, args.stride, args.pad);
}

std::shared_ptr<Module> AdaptiveAvgPool2d::make_array(int64_t, Rng&) const {
  return std::make_shared<AdaptiveAvgPool2d>(out_h, out_w);
}

// A dropout array draws one mask stream over the whole fused tensor, from
// its own seed (not the B per-model streams).
std::shared_ptr<Module> Dropout::make_array(int64_t, Rng&) const {
  return std::make_shared<Dropout>(p, 0xd0);
}

std::shared_ptr<Module> Dropout2d::make_array(int64_t, Rng&) const {
  return std::make_shared<Dropout2d>(p, 0xd20);
}

// ---- structural leaves -----------------------------------------------------

ag::Variable Flatten::forward(const ag::Variable& x) {
  return ag::reshape(x, {x.size(0), x.numel() / x.size(0)});
}

ag::Variable GlobalMaxPool1d::forward(const ag::Variable& x) {
  return ag::global_max_pool1d(x);
}

template class Conv<1>;
template class Conv<2>;
template class ConvTranspose<1>;
template class ConvTranspose<2>;

}  // namespace hfta::nn
