// DCGAN (Radford et al., ICLR 2016), following the PyTorch official example
// the paper benchmarks: generator = ConvTranspose2d/BN/ReLU pyramid ending
// in Tanh; discriminator = strided Conv2d/BN/LeakyReLU pyramid ending in a
// single logit. `paper()` is the 64x64 LSUN configuration (nz=100,
// ngf=ndf=64); `tiny()` a 16x16 CPU-trainable reduction.
//
// Each network is defined ONCE as a per-model Sequential graph (`net`); the
// fused variants are produced by the fusion planner (FusionPlan) from B
// per-model graphs — there is no hand-written fused DCGAN.
#pragma once

#include "hfta/fusion.h"
#include "nn/norm.h"

namespace hfta::models {

struct DCGANConfig {
  int64_t image_size = 16;  // must be 2^k, k >= 3
  int64_t nz = 8;           // latent dim
  int64_t ngf = 8;          // generator base width
  int64_t ndf = 8;          // discriminator base width
  int64_t nc = 3;           // image channels

  /// Number of up/down-sampling stages: image 16 -> 2 middle stages.
  int64_t stages() const {
    int64_t s = 0, sz = image_size;
    while (sz > 4) {
      sz /= 2;
      ++s;
    }
    return s;
  }

  static DCGANConfig tiny() { return {}; }
  static DCGANConfig paper() { return {64, 100, 64, 64, 3}; }
};

class DCGANGenerator : public nn::Module {
 public:
  DCGANGenerator(const DCGANConfig& cfg, Rng& rng);
  /// z: [N, nz, 1, 1] -> image [N, nc, S, S] in (-1, 1).
  ag::Variable forward(const ag::Variable& z) override;
  std::shared_ptr<nn::Module> make_array(int64_t B, Rng& rng) const override;

  std::shared_ptr<nn::Sequential> net;  // the planner-walkable graph
  DCGANConfig cfg;
};

class DCGANDiscriminator : public nn::Module {
 public:
  DCGANDiscriminator(const DCGANConfig& cfg, Rng& rng);
  /// x: [N, nc, S, S] -> logits [N] (BCEWithLogits outside).
  ag::Variable forward(const ag::Variable& x) override;
  std::shared_ptr<nn::Module> make_array(int64_t B, Rng& rng) const override;

  std::shared_ptr<nn::Sequential> net;
  DCGANConfig cfg;
};

}  // namespace hfta::models
