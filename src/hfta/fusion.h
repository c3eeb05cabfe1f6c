// The fusion planner: compiles B per-model nn::Module graphs into one
// horizontally fused array model (the paper's core transformation), plus the
// fusion bookkeeping it builds on — converting between B per-model modules
// and one fused module, and the partial-fusion adapter used by the paper's
// Appendix H.4 study.
//
// A FusionPlan mirrors MIOpen's Fusion API shape: a plan object validates
// that the B module trees are structurally congruent (same layer kinds,
// shapes and topology — per-model hyper-parameters like learning rate live
// in the fused optimizer, not the graph), reports unsupported combinations
// as structured diagnostics, and lowers each layer to its array form,
// nn::Module::make_array(B) of the first model's layer: the per-model layer
// or block itself built for B models (B x width for the
// conv/BN/pool/dropout family, array size B for Linear, LayerNorm and the
// Transformer/PointNet blocks; fused_ops.h). It inserts
// to_model_major/to_channel_fused layout conversions automatically where
// the kinds' array_layout() families meet (DESIGN.md §2). Partial fusion
// is a plan option (FusionOptions::fuse_mask) rather than bespoke
// per-model wiring.
#pragma once

#include <memory>
#include <stdexcept>

#include "hfta/fused_ops.h"

namespace hfta::fused {

/// Runs B unfused replicas of a module on the channel-fused layout:
/// splits [N, B*C, ...] into per-model chunks, forwards each through its own
/// module, re-concatenates. This is what "fusion off for this block" means
/// in the partial-fusion study: the math is unchanged but the operator-level
/// fusion (and its efficiency) is gone.
///
/// The adapter OWNS its replicas: each donor passed to the constructor is
/// deep-copied via Module::clone(), so neither FusedArray::load_model nor
/// training ever writes through to the donor modules. Stateless kinds
/// without clone support (no parameters, no buffers) are shared as-is —
/// there is no storage to write through; a stateful kind without clone
/// support is rejected with a FusionError naming the unit's `path`.
class UnfusedBlockAdapter : public nn::Module {
 public:
  UnfusedBlockAdapter(int64_t B, std::vector<std::shared_ptr<nn::Module>> mods,
                      const std::string& path = "");
  ag::Variable forward(const ag::Variable& x) override;

  const std::vector<std::shared_ptr<nn::Module>>& replicas() const {
    return mods_;
  }

 private:
  std::vector<std::shared_ptr<nn::Module>> mods_;
};

/// Splits a dim-0-block fused tensor into B per-model tensors of `shape`.
std::vector<Tensor> unfuse_blocks(const Tensor& fused, int64_t B, Shape shape);

// ---- planner ---------------------------------------------------------------

/// The fused data layouts of DESIGN.md §2 (see nn::ArrayLayout).
using Layout = nn::ArrayLayout;
const char* layout_name(Layout l);

/// One structured planner diagnostic, in the spirit of MIOpen's
/// fusion-compile errors: which layer, which model, why.
struct FusionDiagnostic {
  std::string path;        // dotted module path; "" = the root
  int64_t model_index = -1;  // offending replica; -1 = structural/all
  std::string reason;

  std::string str() const;
};

class FusionError : public std::runtime_error {
 public:
  explicit FusionError(FusionDiagnostic d);
  FusionDiagnostic diagnostic;
};

struct FusionOptions {
  /// Per top-level fusion unit (the children of the root Sequential, or the
  /// single root otherwise): true = operator-fused, false = B per-model
  /// replicas behind an UnfusedBlockAdapter (Appendix H.4). Empty = all
  /// fused. Unfused units own Module::clone() copies of the donors'
  /// submodules, so the array never shares parameter/buffer storage with
  /// the donor models (stateful kinds must be clonable; see
  /// UnfusedBlockAdapter).
  std::vector<bool> fuse_mask;
  /// Layout the array's output is converted to (kAny = leave as produced).
  Layout output_layout = Layout::kAny;
};

/// A compiled fused array: the lowered steps of B per-model graphs, with
/// layout conversions inserted automatically between the channel-fused
/// (conv/BN/pool) and model-major (linear/LayerNorm) families. Input is
/// channel-fused [N, B*C, ...] (pack_channel_fused).
class FusedArray : public nn::Module {
 public:
  struct Step {
    std::shared_ptr<nn::Module> module;
    Layout in = Layout::kAny;
    Layout out = Layout::kAny;
    std::string path;  // dotted path into the per-model tree
    std::string kind;  // the per-model layer kind this step lowers
    bool fused = true;
    int64_t unit = 0;  // top-level fusion-unit index
  };

  ag::Variable forward(const ag::Variable& x) override;

  int64_t array_size() const { return array_size_; }

  /// Copies model b's parameters and buffers from a per-model tree
  /// congruent with the compiled one, through the one state walk:
  /// nn::load_model(step, B, b, layer) on each fused step's module, with
  /// the per-model layer at the step's path, and nn::copy_state (the walk
  /// at B = 1) into replica b of each unfused step. A fused step's walk
  /// failure is rethrown as FusionError{step path, b, reason}, which is how
  /// FusionPlan::compile rejects an array form that does not hold exactly
  /// the per-model state. Always copies INTO the array — unfused units own
  /// cloned replicas, so neither this nor training ever mutates the
  /// compile-time donors.
  void load_model(int64_t b, const nn::Module& per_model_root);

  /// The inverse of load_model: extracts model b's parameters and buffers
  /// out of the array into a congruent per-model tree, walking the same
  /// per-step paths — fused blocks (nn::store_model) and unfused owned
  /// replicas (nn::copy_state) alike, so every kind that loads also stores.
  /// Scope: parameters and buffers only. Private rng stream positions of
  /// stateless-random steps (a fused nn::Dropout draws ONE stream over
  /// the fused tensor, not the B per-model streams) are neither extracted
  /// nor part of the fused/serial equivalence contract to begin with; a
  /// repacked array restarts those streams.
  void store_model(int64_t b, nn::Module& per_model_root) const;

  const std::vector<Step>& steps() const { return steps_; }
  /// Number of top-level fusion units (granularity of fuse_mask).
  int64_t num_units() const { return num_units_; }
  /// Whether top-level unit u is operator-fused.
  bool unit_fused(int64_t u) const;
  Layout output_layout() const;
  /// Human-readable plan: one line per step with layouts and fusion state.
  std::string describe() const;

 private:
  friend class FusionPlan;
  FusedArray(int64_t B, FusionOptions opts);

  int64_t array_size_;
  std::vector<Step> steps_;
  FusionOptions opts_;
  int64_t num_units_ = 0;
};

/// The compiler from B per-model module graphs to a FusedArray.
class FusionPlan {
 public:
  explicit FusionPlan(int64_t array_size, FusionOptions opts = {});

  /// Structural congruence check only — returns every diagnostic (empty =
  /// the models are fusible as far as topology and configs go).
  std::vector<FusionDiagnostic> analyze(
      const std::vector<const nn::Module*>& models) const;

  /// Verifies congruence, lowers every layer to its array form, loads
  /// all B models' weights, and returns the fused array. Every unit —
  /// fused or masked off — gets its own copy of the weights;
  /// the donor modules are never aliased or mutated. Throws FusionError
  /// (with a structured diagnostic) on the first unsupported combination.
  std::shared_ptr<FusedArray> compile(
      const std::vector<std::shared_ptr<nn::Module>>& models, Rng& rng) const;

  /// Repacks survivors drawn from SEVERAL live arrays into one fresh array
  /// of this plan's size: model j of the result is model picks[j].model of
  /// sources[picks[j].source], extracted via store_model into clones of
  /// `template_model` and recompiled. Weights and buffers (BN running stats
  /// included) carry over exactly, so the survivors continue training
  /// bit-exactly as if they had always shared one array (optimizer state
  /// gathers separately via FusedOptimizer::repack_state_from with the same
  /// picks). This is Hyperband's successive-halving step when a rung was
  /// larger than the device cap and had to be chunked across arrays (paper
  /// Appendix E at bracket scale).
  std::shared_ptr<FusedArray> repack_multi(
      const std::vector<const FusedArray*>& sources,
      const std::vector<RepackPick>& picks, const nn::Module& template_model,
      Rng& rng) const;

  int64_t array_size() const { return array_size_; }
  const FusionOptions& options() const { return opts_; }

 private:
  int64_t array_size_;
  FusionOptions opts_;
};

}  // namespace hfta::fused
