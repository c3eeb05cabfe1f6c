// PointNet (Qi et al., CVPR 2017) — classification and part-segmentation
// variants, following the third-party PyTorch implementation the paper uses
// (fxia22/pointnet.pytorch): Conv1d(1x1) feature extractor with BatchNorm1d,
// global max pooling, optional input spatial-transformer (STN), MLP heads.
//
// Plain and HFTA-fused builds share a PointNetConfig; `paper()` holds the
// published shapes (2500 points, 1024-d global feature, ShapeNet's 16
// classes / 50 part labels), `tiny()` a CPU-trainable reduction.
#pragma once

#include "hfta/fusion.h"
#include "nn/layers.h"
#include "nn/norm.h"

namespace hfta::models {

struct PointNetConfig {
  int64_t num_points = 64;
  int64_t w1 = 16, w2 = 32, w3 = 64;  // conv widths (global feature = w3)
  int64_t fc1 = 32, fc2 = 16;         // classifier MLP widths
  int64_t num_classes = 4;            // classification classes
  int64_t num_parts = 6;              // segmentation labels
  bool input_transform = false;       // STN on the 3-d input
  float dropout_p = 0.f;              // dropout before the last FC (cls)

  static PointNetConfig tiny() { return {}; }
  static PointNetConfig paper() {
    return {2500, 64, 128, 1024, 512, 256, 16, 50, true, 0.3f};
  }
};

// STN, PointNetTrunk and PointNetSeg take an array size `B` last, the way
// models::BasicBlock does: B > 1 builds B independent models side by side
// on the channel-fused layout [N, B*C, L], which is exactly the fused form
// of B such models (paper Appendix B). Every conv runs at B x width with
// B x groups, every BatchNorm over B x channels, and the STN's Linear head
// is an nn::Linear at B on the model-major [B, N, F] view.

/// Input spatial transformer: predicts a CxC alignment matrix per cloud.
class STN : public nn::Module {
 public:
  STN(int64_t channels, const PointNetConfig& cfg, Rng& rng, int64_t B = 1);
  /// x: [N, B*C, L] -> transforms [B*N, C, C] (identity-initialized), model
  /// b's cloud n at row b*N + n.
  ag::Variable forward(const ag::Variable& x) override;

  std::shared_ptr<nn::Conv1d> conv1, conv2;
  std::shared_ptr<nn::BatchNorm1d> bn1, bn2;
  std::shared_ptr<nn::Linear> fc1, fc2;
  int64_t channels, array_size;
};

/// Shared trunk: 1x1 Conv1d stack -> per-point features + global feature.
/// Its array form is the trunk at B, so the planner fuses any model built
/// on it.
class PointNetTrunk : public nn::Module {
 public:
  PointNetTrunk(const PointNetConfig& cfg, Rng& rng, int64_t B = 1);
  ag::Variable forward(const ag::Variable& x) override;  // global feature
  /// x: [N, B*3, L] -> {pointfeat [N, B*w1, L], global [N, B*w3]}.
  std::pair<ag::Variable, ag::Variable> forward_both(const ag::Variable& x);
  std::string kind_name() const override { return "models::PointNetTrunk"; }
  /// The per-model config, whatever B is.
  nn::ModuleConfig config() const override;
  std::shared_ptr<nn::Module> make_array(int64_t B, Rng& rng) const override;
  nn::ArrayLayout array_layout() const override {
    return nn::ArrayLayout::kChannelFused;
  }

  std::shared_ptr<STN> stn;  // may be null
  std::shared_ptr<nn::Conv1d> conv1, conv2, conv3;
  std::shared_ptr<nn::BatchNorm1d> bn1, bn2, bn3;
  PointNetConfig cfg;
  int64_t array_size;
};

/// Classification head: logits over num_classes. Defined once as a
/// per-model Sequential (`net`); the fused variant is planner-compiled.
class PointNetCls : public nn::Module {
 public:
  PointNetCls(const PointNetConfig& cfg, Rng& rng);
  /// x: [N, 3, L] -> [N, num_classes].
  ag::Variable forward(const ag::Variable& x) override;
  std::shared_ptr<nn::Module> make_array(int64_t B, Rng& rng) const override;

  std::shared_ptr<nn::Sequential> net;  // the planner-walkable graph
  PointNetConfig cfg;
};

/// Part-segmentation head: per-point logits.
class PointNetSeg : public nn::Module {
 public:
  PointNetSeg(const PointNetConfig& cfg, Rng& rng, int64_t B = 1);
  /// x: [N, B*3, L] -> [N, B*num_parts, L].
  ag::Variable forward(const ag::Variable& x) override;

  std::shared_ptr<PointNetTrunk> trunk;
  std::shared_ptr<nn::Conv1d> conv1, conv2, conv3;
  std::shared_ptr<nn::BatchNorm1d> bn1, bn2;
  PointNetConfig cfg;
  int64_t array_size;
};

}  // namespace hfta::models
