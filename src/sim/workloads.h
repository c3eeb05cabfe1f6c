// Kernel-trace builders for the paper's benchmark models at PAPER scale
// (published batch sizes and layer widths), parameterized by the fusion
// array size B. Channel-fused shapes are linear in B: grouped-conv traces
// get B x groups, model-major GEMMs get B x batch entries — exactly what
// the real fused modules in src/models do.
#pragma once

#include "sim/kernel.h"

namespace hfta::sim {

enum class Workload {
  kPointNetCls,
  kPointNetSeg,
  kDCGAN,
  kResNet18,
  kMobileNetV3,
  kTransformer,
  kBertMedium,
};

const char* workload_name(Workload w);

/// Builds the per-iteration kernel trace of `B` horizontally fused models
/// (B = 1 gives the unfused job that serial/concurrent/MPS/MIG run).
IterationTrace build_trace(Workload w, int64_t B);

/// Structural hyper-parameters of one PointNet-classification training job
/// — the shapes the HFHT real executor actually trains. Defaults are the
/// paper scale; the executor fills in each trial's batch size / feature
/// transform so fused jobs are priced from their real trace, not the
/// canned kPointNetCls one.
struct PointNetTraceSpec {
  int64_t batch = 32;
  int64_t points = 2500;
  int64_t w1 = 64, w2 = 128, w3 = 1024;  // trunk conv widths
  int64_t fc1 = 512, fc2 = 256;          // classifier MLP widths
  int64_t num_classes = 16;
  bool input_transform = true;  // STN on the 3-d input
};

/// Per-iteration kernel trace of `B` fused PointNet classifiers with the
/// given structural hyper-parameters (mirrors models::PointNetCls layer by
/// layer: optional STN, trunk conv1d stack, global max pool, MLP head).
IterationTrace build_pointnet_cls_trace(const PointNetTraceSpec& spec,
                                        int64_t B);

/// Structural hyper-parameters of one MobileNet (V3-Large or V2) training
/// job, after width scaling: the shapes the HFHT real executor actually
/// trains. Defaults are the paper scale: build_trace(kMobileNetV3, B) is
/// build_mobilenet_trace(MobileNetTraceSpec{}, B). The executor fills in
/// each trial's batch size and scaled bneck rows so MobileNet jobs are
/// priced from their real trace too.
struct MobileNetTraceSpec {
  struct Row {
    int64_t kernel;
    int64_t expand;  // scaled expansion width
    int64_t out;     // scaled output width
    int64_t stride;
    bool se;
  };

  int64_t batch = 1024;
  int64_t image = 32;       // input resolution
  int64_t stem = 16;        // scaled stem width
  std::vector<Row> rows;    // scaled bneck rows (empty = V3-Large table)
  int64_t last = 960;       // scaled last-conv width
  int64_t head = 1280;      // classifier hidden width
  int64_t num_classes = 10;
};

/// Per-iteration kernel trace of `B` fused MobileNets with the given
/// structural hyper-parameters (mirrors models::MobileNetV3 block by
/// block: stem, inverted-residual bnecks with depthwise conv + optional
/// SE, last conv, pooled classifier head).
IterationTrace build_mobilenet_trace(const MobileNetTraceSpec& spec,
                                     int64_t B);

/// ResNet-18 partial fusion (paper Fig. 17): only `fused_units` of the 10
/// fusion units (stem, 8 blocks, head) are fused; the rest run as B
/// per-model kernel sequences.
IterationTrace build_resnet_partial_trace(int64_t B, int64_t fused_units);

}  // namespace hfta::sim
