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
// Every fused module moves model b's state in and out through one pair,
// load_state/store_state (FusedModule::load_model/store_model on the
// array), which follows the schema state_map() derives from the module
// tree (DESIGN.md §7).
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

// ---- state schema -----------------------------------------------------------

/// One entry of a fused module's state schema: which per-model tensor
/// (dotted path relative to the per-model layer) lives where inside the
/// fused module. Every fused tensor packs B per-model blocks contiguously
/// along dim 0, each laid out exactly like the per-model tensor, so model
/// b's slice is block b (fused numel = B * per-model numel). Exactly one of
/// fused_param / fused_buffer is defined. load_model, store_model and the
/// planner's state-congruence check all derive from these entries
/// (DESIGN.md §7).
struct StateEntry {
  std::string path;          // per-model tensor path, e.g. "weight"
  ag::Variable fused_param;  // trainable state lives in a parameter...
  Tensor fused_buffer;       // ...non-trainable state (running stats) here

  bool is_buffer() const { return fused_buffer.defined(); }
};

/// Ordered per-kind state schema (order follows registration order, which
/// matches the per-model module's own parameter/buffer order).
using StateMap = std::vector<StateEntry>;

inline StateEntry param_entry(std::string path, const ag::Variable& v) {
  StateEntry e;
  e.path = std::move(path);
  e.fused_param = v;
  return e;
}
inline StateEntry buffer_entry(std::string path, const Tensor& t) {
  StateEntry e;
  e.path = std::move(path);
  e.fused_buffer = t;
  return e;
}

/// One survivor of a multi-source repack: model `model` of the `source`-th
/// donor. FusionPlan::repack_multi (arrays) and
/// FusedOptimizer::repack_state_from (optimizer state) share this pick type
/// so weights and optimizer slices always gather from the same slots.
struct RepackPick {
  size_t source = 0;
  int64_t model = 0;
};

/// Base for all fused modules: tracks B and moves per-model state.
class FusedModule : public nn::Module {
 public:
  explicit FusedModule(int64_t array_size) : array_size_(array_size) {
    HFTA_CHECK(array_size >= 1, "FusedModule: array size must be >= 1");
  }
  int64_t array_size() const { return array_size_; }

  /// Copies model b's parameters and buffers from `m`, the per-model
  /// module this one fuses (load_state over state_map(*this)). Throws
  /// unless 0 <= b < B.
  virtual void load_model(int64_t b, const nn::Module& m);
  /// The inverse: extracts model b's slices into `m` (store_state over
  /// state_map(*this)).
  virtual void store_model(int64_t b, nn::Module& m) const;

 protected:
  int64_t array_size_;
};

/// The per-model state schema of a fused module tree: every registered
/// parameter and buffer, under its dotted path, as one dim-0 block per
/// model. A fused module's children are named as in the per-model module,
/// so each path is also the per-model tensor's path; plain nn:: children
/// run at B x width, and a composite's schema is its children's schemas
/// under their names.
StateMap state_map(const nn::Module& fused);

/// Copies model b's state from the congruent per-model module `src` into
/// the fused tensors of `map`. `B` is the fused array size; b outside
/// [0, B) throws.
void load_state(const StateMap& map, int64_t B, int64_t b,
                const nn::Module& src);
/// The inverse: extracts model b's slices out of the fused tensors into
/// the per-model module `dst`.
void store_state(const StateMap& map, int64_t B, int64_t b, nn::Module& dst);

/// Collects FusedParams of every fused module in a module tree given the
/// tree's (uniform) array size; non-fused parameters are rejected.
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
