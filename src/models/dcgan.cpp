#include "models/dcgan.h"

#include "nn/layers.h"

namespace hfta::models {

// Channel width of the generator/discriminator at pyramid level `l`
// (level 0 = widest, adjacent to the 4x4 spatial extent).
static int64_t level_width(int64_t base, int64_t stages, int64_t l) {
  return base << (stages - 1 - l);
}

DCGANGenerator::DCGANGenerator(const DCGANConfig& cfg, Rng& rng) : cfg(cfg) {
  net = register_module("net", std::make_shared<nn::Sequential>());
  const int64_t S = cfg.stages();
  // Stage 0: nz -> width(0) at 4x4 (kernel 4, stride 1, pad 0).
  int64_t prev = cfg.nz;
  for (int64_t l = 0; l < S; ++l) {
    const int64_t w = level_width(cfg.ngf, S, l);
    net->push_back("deconv" + std::to_string(l),
                   std::make_shared<nn::ConvTranspose2d>(
                       prev, w, 4, l == 0 ? 1 : 2, l == 0 ? 0 : 1, 0, 1,
                       false, rng));
    net->push_back("bn" + std::to_string(l), std::make_shared<nn::BatchNorm2d>(w));
    net->push_back("relu" + std::to_string(l), std::make_shared<nn::ReLU>());
    prev = w;
  }
  net->push_back("deconv_out",
                 std::make_shared<nn::ConvTranspose2d>(prev, cfg.nc, 4, 2, 1,
                                                       0, 1, false, rng));
  net->push_back("tanh", std::make_shared<nn::Tanh>());
}

ag::Variable DCGANGenerator::forward(const ag::Variable& z) {
  return net->forward(z);
}

DCGANDiscriminator::DCGANDiscriminator(const DCGANConfig& cfg, Rng& rng)
    : cfg(cfg) {
  net = register_module("net", std::make_shared<nn::Sequential>());
  const int64_t S = cfg.stages();
  int64_t prev = cfg.nc;
  for (int64_t l = S - 1; l >= 0; --l) {
    const int64_t w = level_width(cfg.ndf, S, l);
    const std::string idx = std::to_string(S - 1 - l);
    net->push_back("conv" + idx,
                   std::make_shared<nn::Conv2d>(prev, w, 4, 2, 1, 1, false,
                                                rng));
    if (l != S - 1)  // first conv has no BN (as in the reference code)
      net->push_back("bn" + idx, std::make_shared<nn::BatchNorm2d>(w));
    net->push_back("lrelu" + idx, std::make_shared<nn::LeakyReLU>(0.2f));
    prev = w;
  }
  net->push_back("conv_out",
                 std::make_shared<nn::Conv2d>(prev, 1, 4, 1, 0, 1, false,
                                              rng));
  net->push_back("flatten", std::make_shared<nn::Flatten>());
}

ag::Variable DCGANDiscriminator::forward(const ag::Variable& x) {
  ag::Variable logit = net->forward(x);  // [N, 1]
  return ag::reshape(logit, {logit.size(0)});
}

std::shared_ptr<nn::Module> DCGANGenerator::make_array(int64_t B,
                                                       Rng& rng) const {
  return B == 1 ? std::make_shared<DCGANGenerator>(cfg, rng) : nullptr;
}

std::shared_ptr<nn::Module> DCGANDiscriminator::make_array(int64_t B,
                                                           Rng& rng) const {
  return B == 1 ? std::make_shared<DCGANDiscriminator>(cfg, rng) : nullptr;
}

}  // namespace hfta::models
