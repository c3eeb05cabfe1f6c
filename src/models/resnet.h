// ResNet-18 (He et al., CVPR 2016), CIFAR-style stem (3x3 conv, no initial
// max-pool), 4 stages x 2 BasicBlocks, adaptive average pool, linear head —
// the paper's convergence benchmark (Fig. 11) and partial-fusion study
// subject (Fig. 17 / Appendix H.4).
//
// The per-model network is a planner-walkable Sequential (`net`); the fused
// variant is compiled by FusionPlan (each BasicBlock lowering to one
// BasicBlock at B x width), with the Fig. 17 partial-fusion sweep
// expressed as the plan's fuse_mask: units whose fusion is "turned off" run
// B per-model replicas through an UnfusedBlockAdapter on the channel-fused
// layout (mathematically identical, no operator fusion).
#pragma once

#include "hfta/fusion.h"
#include "nn/layers.h"
#include "nn/norm.h"

namespace hfta::models {

struct ResNetConfig {
  int64_t base_width = 8;     // stage widths: w, 2w, 4w, 8w
  int64_t image_size = 16;    // input resolution (CIFAR-10: 32)
  int64_t num_classes = 10;
  int64_t in_channels = 3;

  static ResNetConfig tiny() { return {}; }
  static ResNetConfig paper() { return {64, 32, 10, 3}; }

  int64_t stage_width(int64_t s) const { return base_width << s; }
};

/// Standard two-conv residual block.
///
/// `B` works like `groups` on nn::Conv2d: B > 1 builds B independent blocks
/// side by side on the channel-fused layout — every conv over B*in -> B*out
/// channels with B x groups, every BatchNorm over B*out channels — which is
/// exactly the fused form of B such blocks (paper Appendix B), and what
/// make_array builds: the planner lowers B congruent blocks to one block at
/// B x width.
class BasicBlock : public nn::Module {
 public:
  BasicBlock(int64_t in, int64_t out, int64_t stride, Rng& rng,
             int64_t B = 1);
  ag::Variable forward(const ag::Variable& x) override;
  std::string kind_name() const override { return "models::BasicBlock"; }
  /// The per-model constructor arguments (in, out, stride), whatever B is.
  nn::ModuleConfig config() const override;
  std::shared_ptr<nn::Module> make_array(int64_t B, Rng& rng) const override;
  nn::ArrayLayout array_layout() const override {
    return nn::ArrayLayout::kChannelFused;
  }

  std::shared_ptr<nn::Conv2d> conv1, conv2, down_conv;  // down_conv optional
  std::shared_ptr<nn::BatchNorm2d> bn1, bn2, down_bn;
  int64_t in_channels, out_channels, stride, array_size;
};

class ResNet18 : public nn::Module {
 public:
  ResNet18(const ResNetConfig& cfg, Rng& rng);
  /// x: [N, 3, S, S] -> [N, num_classes].
  ag::Variable forward(const ag::Variable& x) override;
  std::shared_ptr<nn::Module> make_array(int64_t B, Rng& rng) const override;

  std::shared_ptr<nn::Sequential> net;  // the planner-walkable graph
  ResNetConfig cfg;
};

/// Which parts of the fused ResNet-18 are operator-fused. The paper's
/// Fig. 17 sweep turns these off one by one (stem, 8 blocks, final linear =
/// 10 fusion units).
struct ResNetFusionMask {
  bool stem = true;
  std::array<bool, 8> block{true, true, true, true, true, true, true, true};
  bool head = true;

  static ResNetFusionMask all_fused() { return {}; }
  /// Fusion turned off for the first `n` units in the paper's order
  /// (head, then blocks from the last to the first, then stem).
  static ResNetFusionMask partially_unfused(int64_t n);
  int64_t fused_units() const;
  /// The planner's per-unit mask over ResNet18::net's 12 top-level units
  /// (stem, 8 blocks, pool, flatten, fc); pool/flatten are parameterless
  /// and always fused.
  std::vector<bool> to_fuse_mask() const;
};

}  // namespace hfta::models
