// Kernel-trace builders for the paper's benchmark models at PAPER scale
// (published batch sizes and layer widths), parameterized by the fusion
// array size B. Channel-fused shapes are linear in B: grouped-conv traces
// get B x groups, model-major GEMMs get B x batch entries — exactly what
// the real fused modules in src/models do. Only paper-scale traces live
// here: the HFHT real executor bills its measured step time instead.
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

/// ResNet-18 partial fusion (paper Fig. 17): only `fused_units` of the 10
/// fusion units (stem, 8 blocks, head) are fused; the rest run as B
/// per-model kernel sequences.
IterationTrace build_resnet_partial_trace(int64_t B, int64_t fused_units);

}  // namespace hfta::sim
