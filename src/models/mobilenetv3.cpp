#include "models/mobilenetv3.h"

#include <algorithm>
#include <cmath>

namespace hfta::models {

const std::array<BneckSpec, 15>& mobilenetv3_large_table() {
  // kernel, expand, out, SE, hswish, stride — Howard et al. Table 1.
  static const std::array<BneckSpec, 15> table = {{
      {3, 16, 16, false, false, 1},
      {3, 64, 24, false, false, 2},
      {3, 72, 24, false, false, 1},
      {5, 72, 40, true, false, 2},
      {5, 120, 40, true, false, 1},
      {5, 120, 40, true, false, 1},
      {3, 240, 80, false, true, 2},
      {3, 200, 80, false, true, 1},
      {3, 184, 80, false, true, 1},
      {3, 184, 80, false, true, 1},
      {3, 480, 112, true, true, 1},
      {3, 672, 112, true, true, 1},
      {5, 672, 160, true, true, 2},
      {5, 960, 160, true, true, 1},
      {5, 960, 160, true, true, 1},
  }};
  return table;
}

const std::array<BneckSpec, 17>& mobilenetv2_table() {
  // Sandler et al. Table 2, (t, c, n, s) rows expanded with absolute
  // expansion widths (stem = 32 channels); all blocks ReLU6, no SE.
  static const std::array<BneckSpec, 17> table = {{
      {3, 32, 16, false, false, 1, true},
      {3, 96, 24, false, false, 2, true},
      {3, 144, 24, false, false, 1, true},
      {3, 144, 32, false, false, 2, true},
      {3, 192, 32, false, false, 1, true},
      {3, 192, 32, false, false, 1, true},
      {3, 192, 64, false, false, 2, true},
      {3, 384, 64, false, false, 1, true},
      {3, 384, 64, false, false, 1, true},
      {3, 384, 64, false, false, 1, true},
      {3, 384, 96, false, false, 1, true},
      {3, 576, 96, false, false, 1, true},
      {3, 576, 96, false, false, 1, true},
      {3, 576, 160, false, false, 2, true},
      {3, 960, 160, false, false, 1, true},
      {3, 960, 160, false, false, 1, true},
      {3, 960, 320, false, false, 1, true},
  }};
  return table;
}

std::vector<BneckSpec> MobileNetV3Config::rows() const {
  std::vector<BneckSpec> out;
  if (version == 2) {
    for (int64_t i = 0; i < num_blocks && i < 17; ++i)
      out.push_back(mobilenetv2_table()[static_cast<size_t>(i)]);
  } else {
    for (int64_t i = 0; i < num_blocks && i < 15; ++i)
      out.push_back(mobilenetv3_large_table()[static_cast<size_t>(i)]);
  }
  return out;
}

int64_t MobileNetV3Config::scaled(int64_t c) const {
  // Round to a multiple of 4 with a floor of 4 (divisibility keeps SE and
  // depthwise shapes valid at small widths).
  const int64_t v = static_cast<int64_t>(
      std::round(static_cast<float>(c) * width_mult / 4.f)) * 4;
  return std::max<int64_t>(4, v);
}

SqueezeExcite::SqueezeExcite(int64_t channels, Rng& rng, int64_t B)
    : channels(channels), array_size(B) {
  const int64_t squeeze = std::max<int64_t>(4, channels / 4);
  fc1 = register_module("fc1", std::make_shared<nn::Conv2d>(
                                   B * channels, B * squeeze, 1, 1, 0, B, true,
                                   rng));
  fc2 = register_module("fc2", std::make_shared<nn::Conv2d>(
                                   B * squeeze, B * channels, 1, 1, 0, B, true,
                                   rng));
}

ag::Variable SqueezeExcite::forward(const ag::Variable& x) {
  ag::Variable s = ag::adaptive_avg_pool2d(x, 1, 1);
  s = ag::relu(fc1->forward(s));
  s = ag::hardsigmoid(fc2->forward(s));
  return ag::mul(x, s);  // broadcast over H, W
}

Bneck::Bneck(int64_t in, const BneckSpec& spec, const MobileNetV3Config& cfg,
             Rng& rng, int64_t B)
    : use_hswish(spec.hswish), use_relu6(spec.relu6), in_channels(in),
      spec(spec), cfg(cfg), array_size(B) {
  const int64_t exp_c = cfg.scaled(spec.expand);
  const int64_t out_c = cfg.scaled(spec.out);
  has_expand = exp_c != in;
  residual = spec.stride == 1 && in == out_c;
  if (has_expand) {
    expand_conv = register_module(
        "expand_conv", std::make_shared<nn::Conv2d>(B * in, B * exp_c, 1, 1, 0,
                                                    B, false, rng));
    expand_bn = register_module(
        "expand_bn", std::make_shared<nn::BatchNorm2d>(B * exp_c));
  }
  dw_conv = register_module(
      "dw_conv", std::make_shared<nn::Conv2d>(
                     B * exp_c, B * exp_c, spec.kernel, spec.stride,
                     spec.kernel / 2, /*groups=*/B * exp_c, false, rng));
  dw_bn = register_module("dw_bn",
                          std::make_shared<nn::BatchNorm2d>(B * exp_c));
  if (spec.se)
    se = register_module("se",
                         std::make_shared<SqueezeExcite>(exp_c, rng, B));
  project_conv = register_module(
      "project_conv", std::make_shared<nn::Conv2d>(B * exp_c, B * out_c, 1, 1,
                                                   0, B, false, rng));
  project_bn = register_module(
      "project_bn", std::make_shared<nn::BatchNorm2d>(B * out_c));
}

std::shared_ptr<nn::Module> SqueezeExcite::make_array(int64_t B,
                                                      Rng& rng) const {
  return std::make_shared<SqueezeExcite>(channels, rng, B * array_size);
}

nn::ModuleConfig SqueezeExcite::config() const {
  nn::ModuleConfig c;
  c.set("channels", channels);
  return c;
}

ag::Variable Bneck::forward(const ag::Variable& x) {
  auto act = [this](const ag::Variable& v) {
    if (use_hswish) return ag::hardswish(v);
    return use_relu6 ? ag::relu6(v) : ag::relu(v);
  };
  ag::Variable h = x;
  if (has_expand) h = act(expand_bn->forward(expand_conv->forward(h)));
  h = act(dw_bn->forward(dw_conv->forward(h)));
  if (se) h = se->forward(h);
  h = project_bn->forward(project_conv->forward(h));
  return residual ? ag::add(h, x) : h;
}

std::shared_ptr<nn::Module> Bneck::make_array(int64_t B, Rng& rng) const {
  return std::make_shared<Bneck>(in_channels, spec, cfg, rng, B * array_size);
}

nn::ModuleConfig Bneck::config() const {
  // Everything that shapes the block's operators: the spec row, the width
  // multiplier that scales it, and the input width it was built for.
  nn::ModuleConfig c;
  c.set("in", in_channels);
  c.set("kernel", spec.kernel);
  c.set("expand", spec.expand);
  c.set("out", spec.out);
  c.set("se", static_cast<int64_t>(spec.se));
  c.set("hswish", static_cast<int64_t>(spec.hswish));
  c.set("relu6", static_cast<int64_t>(spec.relu6));
  c.set("stride", spec.stride);
  c.set("width_mult", static_cast<double>(cfg.width_mult));
  return c;
}

MobileNetV3::MobileNetV3(const MobileNetV3Config& cfg, Rng& rng) : cfg(cfg) {
  net = register_module("net", std::make_shared<nn::Sequential>());
  const auto table = cfg.rows();
  const int64_t stem_c = cfg.scaled(cfg.stem_channels());
  auto stem = std::make_shared<nn::Sequential>();
  stem->push_back("conv", std::make_shared<nn::Conv2d>(3, stem_c, 3, 2, 1, 1,
                                                       false, rng));
  stem->push_back("bn", std::make_shared<nn::BatchNorm2d>(stem_c));
  stem->push_back("hswish", std::make_shared<nn::Hardswish>());
  net->push_back("stem", stem);
  int64_t in = stem_c;
  for (size_t i = 0; i < table.size(); ++i) {
    const BneckSpec& spec = table[i];
    net->push_back("bneck" + std::to_string(i),
                   std::make_shared<Bneck>(in, spec, cfg, rng));
    in = cfg.scaled(spec.out);
  }
  const int64_t last_c = cfg.scaled(table.back().expand);
  auto last = std::make_shared<nn::Sequential>();
  last->push_back("conv", std::make_shared<nn::Conv2d>(in, last_c, 1, 1, 0, 1,
                                                       false, rng));
  last->push_back("bn", std::make_shared<nn::BatchNorm2d>(last_c));
  last->push_back("hswish", std::make_shared<nn::Hardswish>());
  net->push_back("last", last);
  net->push_back("pool", std::make_shared<nn::AdaptiveAvgPool2d>(1, 1));
  net->push_back("flatten", std::make_shared<nn::Flatten>());
  net->push_back("fc1", std::make_shared<nn::Linear>(last_c, cfg.head_dim,
                                                     true, rng));
  net->push_back("hswish", std::make_shared<nn::Hardswish>());
  net->push_back("fc2", std::make_shared<nn::Linear>(
                            cfg.head_dim, cfg.num_classes, true, rng));
}

ag::Variable MobileNetV3::forward(const ag::Variable& x) {
  return net->forward(x);  // [N, classes]
}

std::shared_ptr<nn::Module> MobileNetV3::make_array(int64_t B,
                                                    Rng& rng) const {
  return B == 1 ? std::make_shared<MobileNetV3>(cfg, rng) : nullptr;
}

}  // namespace hfta::models
