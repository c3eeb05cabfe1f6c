#include "models/resnet.h"

namespace hfta::models {

BasicBlock::BasicBlock(int64_t in, int64_t out, int64_t stride, Rng& rng,
                       int64_t B)
    : in_channels(in), out_channels(out), stride(stride), array_size(B) {
  conv1 = register_module(
      "conv1", std::make_shared<nn::Conv2d>(B * in, B * out, 3, stride, 1, B,
                                            false, rng));
  bn1 = register_module("bn1", std::make_shared<nn::BatchNorm2d>(B * out));
  conv2 = register_module(
      "conv2", std::make_shared<nn::Conv2d>(B * out, B * out, 3, 1, 1, B,
                                            false, rng));
  bn2 = register_module("bn2", std::make_shared<nn::BatchNorm2d>(B * out));
  if (stride != 1 || in != out) {
    down_conv = register_module(
        "down_conv", std::make_shared<nn::Conv2d>(B * in, B * out, 1, stride,
                                                  0, B, false, rng));
    down_bn =
        register_module("down_bn", std::make_shared<nn::BatchNorm2d>(B * out));
  }
}

ag::Variable BasicBlock::forward(const ag::Variable& x) {
  ag::Variable h = ag::relu(bn1->forward(conv1->forward(x)));
  h = bn2->forward(conv2->forward(h));
  ag::Variable skip = down_conv ? down_bn->forward(down_conv->forward(x)) : x;
  return ag::relu(ag::add(h, skip));
}

nn::ModuleConfig BasicBlock::config() const {
  nn::ModuleConfig c;
  c.set("in", in_channels);
  c.set("out", out_channels);
  c.set("stride", stride);
  return c;
}

std::shared_ptr<nn::Module> BasicBlock::make_array(int64_t B,
                                                   Rng& rng) const {
  return std::make_shared<BasicBlock>(in_channels, out_channels, stride, rng,
                                      B * array_size);
}

ResNet18::ResNet18(const ResNetConfig& cfg, Rng& rng) : cfg(cfg) {
  net = register_module("net", std::make_shared<nn::Sequential>());
  auto stem = std::make_shared<nn::Sequential>();
  stem->push_back("conv",
                  std::make_shared<nn::Conv2d>(cfg.in_channels,
                                               cfg.stage_width(0), 3, 1, 1, 1,
                                               false, rng));
  stem->push_back("bn", std::make_shared<nn::BatchNorm2d>(cfg.stage_width(0)));
  stem->push_back("relu", std::make_shared<nn::ReLU>());
  net->push_back("stem", stem);

  int64_t in = cfg.stage_width(0);
  for (int64_t s = 0; s < 4; ++s) {
    const int64_t out = cfg.stage_width(s);
    for (int64_t i = 0; i < 2; ++i) {
      const int64_t stride = (i == 0 && s > 0) ? 2 : 1;
      blocks.push_back(std::make_shared<BasicBlock>(in, out, stride, rng));
      net->push_back("layer" + std::to_string(s) + "_" + std::to_string(i),
                     blocks.back());
      in = out;
    }
  }
  net->push_back("pool", std::make_shared<nn::AdaptiveAvgPool2d>(1, 1));
  net->push_back("flatten", std::make_shared<nn::Flatten>());
  net->push_back("fc", std::make_shared<nn::Linear>(
                           cfg.stage_width(3), cfg.num_classes, true, rng));
}

ag::Variable ResNet18::forward(const ag::Variable& x) {
  return net->forward(x);
}

std::shared_ptr<nn::Module> ResNet18::make_array(int64_t B, Rng& rng) const {
  return B == 1 ? std::make_shared<ResNet18>(cfg, rng) : nullptr;
}

ResNetFusionMask ResNetFusionMask::partially_unfused(int64_t n) {
  ResNetFusionMask m;
  int64_t left = n;
  if (left-- > 0) m.head = false;
  for (int64_t i = 7; i >= 0 && left > 0; --i, --left)
    m.block[static_cast<size_t>(i)] = false;
  if (left > 0) m.stem = false;
  return m;
}

int64_t ResNetFusionMask::fused_units() const {
  int64_t n = stem + head;
  for (bool b : block) n += b;
  return n;
}

std::vector<bool> ResNetFusionMask::to_fuse_mask() const {
  std::vector<bool> mask;
  mask.push_back(stem);
  for (bool b : block) mask.push_back(b);
  mask.push_back(true);  // pool
  mask.push_back(true);  // flatten
  mask.push_back(head);
  return mask;
}

}  // namespace hfta::models
