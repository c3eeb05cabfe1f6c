// Horizontally fused operators — the paper's primary contribution
// (Appendix B, Table 6). Fusing B instances of an nn:: layer gives an
// operator that already exists, so the array runs that nn:: layer itself,
// built by the layer's own nn::Module::make_array(B):
//
//   Conv1d/2d, ConvTranspose1d/2d  B convs with G groups -> one nn:: conv
//                 over B*in -> B*out channels with B*G groups
//   BatchNorm1d/2d  one nn:: BatchNorm over B*C channels: per-(model,
//                   channel) statistics
//   MaxPool2d / AdaptiveAvgPool2d / Dropout / Dropout2d / Flatten  the nn::
//                   layer, unchanged, on the channel-fused layout (Flatten
//                   keeps each model's C*H*W block contiguous)
//   Linear        nn::Linear with array size B: one GEMM per model block
//                 (ag::linear with groups = B)
//   LayerNorm     nn::LayerNorm with array size B: one ag::layer_norm whose
//                 affine is grouped by model
//   Embedding     nn::Embedding with array size B: one [B*V, E] table, model
//                 b's ids read block b (ag::embedding with groups = B)
//
// A model built only from those layers is, fused, the same model at B:
// models::BasicBlock, Bneck, SqueezeExcite, TransformerEncoderLayer,
// TransformerLM, BertModel and PointNet's STN/PointNetTrunk/PointNetSeg
// take the array size B the way nn::Conv2d takes groups, and their
// make_array(B) builds one with that B. No hand-fused model class remains.
//
// Layout conventions (see DESIGN.md §2):
//   channel-fused  [N, B*C, H, W] / [N, B*C, L]  (conv/BN/pool family)
//   model-major    [B, N, F] / [B, N, ...]       (linear/LayerNorm/attention)
// to_model_major / to_channel_fused convert between them.
//
// Model b's state in any array is block b along dim 0 of the tensor at the
// same path as in the per-model module, so one free pair,
// load_model/store_model, moves a whole model in and out of any array. The
// pair is nn::'s one state walk, re-exported here; it checks both
// directions, and clone(), copy_state and FusedArray's load and store all
// go through it (DESIGN.md §7).
#pragma once

#include "nn/layers.h"
#include "nn/module.h"

namespace hfta::fused {

/// A fused parameter: the tensor packs B per-model blocks contiguously
/// along dim 0 (numel = B * per-model numel). Fused optimizers use this to
/// apply per-model hyper-parameters as broadcasted vector ops.
struct FusedParam {
  ag::Variable var;
  int64_t array_size = 1;  // B

  int64_t per_model_numel() const { return var.numel() / array_size; }
};

/// One survivor of a multi-source repack: model `model` of the `source`-th
/// donor. FusionPlan::repack_multi (arrays) and
/// FusedOptimizer::repack_state_from (optimizer state) share this pick type
/// so weights and optimizer slices always gather from the same slots.
struct RepackPick {
  size_t source = 0;
  int64_t model = 0;
};

/// The one state walk (nn/module.h): load_model copies model b's
/// parameters and buffers from a per-model tree into block b of every
/// array tensor at the same path, store_model copies them back out, and
/// both throw, naming the path, unless the two trees pair up both ways.
using nn::load_model;
using nn::store_model;

/// Collects every parameter of an array as a FusedParam of the array size
/// B; a parameter whose numel B does not divide is rejected, and so, for
/// B > 1, is a FusedArray root with a masked-off unit (its replicas each
/// belong to one model; the error names the unit).
std::vector<FusedParam> collect_fused_parameters(nn::Module& root,
                                                 int64_t array_size);

// ---- layout converters -------------------------------------------------------

/// [N, B*C, ...] -> [B, N, C, ...].
ag::Variable to_model_major(const ag::Variable& x, int64_t B);
/// [B, N, C, ...] -> [N, B*C, ...].
ag::Variable to_channel_fused(const ag::Variable& x);
/// Stacks B per-model tensors [N, C, ...] into channel-fused [N, B*C, ...].
Tensor pack_channel_fused(const std::vector<Tensor>& xs);
/// Splits channel-fused [N, B*C, ...] back into B tensors [N, C, ...].
std::vector<Tensor> unpack_channel_fused(const Tensor& x, int64_t B);
/// Stacks B per-model tensors [N, ...] into model-major [B, N, ...].
Tensor pack_model_major(const std::vector<Tensor>& xs);

}  // namespace hfta::fused
