// Module base class: owns parameters and child modules, exposes recursive
// parameter collection, train/eval mode, and zero_grad — the PyTorch
// nn.Module contract scaled down to what the paper's models need.
//
// Model state moves between trees through one path-keyed walk,
// load_model/store_model: block b of every tensor of an array of B models
// pairs with the per-model tensor at the same dotted path, and both
// directions are checked (DESIGN.md §7). copy_state, and so clone(), is
// that walk at B = 1.
#pragma once

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "autograd/functions.h"
#include "autograd/variable.h"
#include "core/rng.h"

namespace hfta::nn {

/// Layer-kind tag exposed by Module::kind(): the reflection surface the
/// fusion planner walks. Leaf layers report their concrete kind; composite
/// user modules stay kCustom and either build their own array form
/// (Module::make_array) or are run unfused behind an adapter.
enum class LayerKind {
  kCustom,
  kSequential,
  kLinear,
  kConv1d,
  kConv2d,
  kConvTranspose1d,
  kConvTranspose2d,
  kEmbedding,
  kBatchNorm1d,
  kBatchNorm2d,
  kLayerNorm,
  kMaxPool2d,
  kAdaptiveAvgPool2d,
  kDropout,
  kDropout2d,
  kFlatten,
  kGlobalMaxPool1d,
  kReLU,
  kReLU6,
  kLeakyReLU,
  kTanh,
  kSigmoid,
  kHardswish,
  kGELU,
};

const char* layer_kind_name(LayerKind kind);

/// The two fused data layouts of DESIGN.md §2, the family an array form
/// (Module::make_array) runs in: channel-fused [N, B*C, ...] for the
/// conv/BatchNorm/pool family, model-major [B, N, ...] for Linear,
/// LayerNorm and attention. kAny marks layout-agnostic (elementwise) kinds
/// that run in whatever layout the data is in.
enum class ArrayLayout { kChannelFused, kModelMajor, kAny };

/// Structural + numeric hyper-parameters of a layer, reported by
/// Module::config(): one ordered list of named values. Integers are held
/// exactly (every structural value is far below 2^53), and a shape-valued
/// parameter is one entry per dim. The fusion planner compares the list
/// entry by entry and requires every entry to match across the B models of
/// an array (per-model hyper-parameters the paper allows to differ —
/// learning rate, betas, weight decay — live in the fused optimizer, not in
/// the module graph).
struct ModuleConfig {
  std::vector<std::pair<std::string, double>> entries;

  void set(std::string name, double v) {
    entries.emplace_back(std::move(name), v);
  }
};

class Module {
 public:
  Module() = default;
  virtual ~Module() = default;

  /// Single-input forward; models with several inputs expose their own
  /// methods and use Module only for parameter bookkeeping.
  virtual ag::Variable forward(const ag::Variable& x) = 0;
  ag::Variable operator()(const ag::Variable& x) { return forward(x); }

  /// This kind's array form (paper Appendix B: B fused copies of an
  /// operator are an operator that already exists): a freshly initialised
  /// module of this kind for B times this module's models, its init drawn
  /// from `rng` — B x width for the conv/BatchNorm/pool family, array size
  /// B for Linear, LayerNorm, Embedding and the model blocks. The fusion
  /// planner lowers B congruent modules to make_array(B) of the first.
  /// nullptr = the kind has no such form (the default); root models build
  /// only at B = 1.
  virtual std::shared_ptr<Module> make_array(int64_t /*B*/,
                                             Rng& /*rng*/) const {
    return nullptr;
  }
  /// The layout family make_array's module reads and writes.
  virtual ArrayLayout array_layout() const { return ArrayLayout::kAny; }

  /// Deep copy: structurally congruent, equal parameter/buffer values,
  /// independently owned storage (mutating the clone never touches the
  /// original, and vice versa). The default is make_array(1) with this
  /// module's parameters, buffers and private rng streams copied in by
  /// copy_state and its train/eval mode set, so nullptr (no clone support)
  /// exactly when the kind has no array form.
  virtual std::shared_ptr<Module> clone() const;

  /// All trainable parameters, depth-first (this module's own first).
  std::vector<ag::Variable> parameters() const;
  /// Parameters with dotted path names ("conv1.weight", ...).
  std::vector<std::pair<std::string, ag::Variable>> named_parameters() const;

  // -- reflection (walked by the fusion planner) -----------------------------

  /// This layer's kind tag; kCustom for composite user modules.
  virtual LayerKind kind() const { return LayerKind::kCustom; }
  /// The kind's name in plans and diagnostics. Leaf layers use the
  /// layer-kind name; composite modules override it (e.g.
  /// "models::BasicBlock").
  virtual std::string kind_name() const { return layer_kind_name(kind()); }
  /// Structural/numeric hyper-parameters (must match across a fused array).
  virtual ModuleConfig config() const { return {}; }
  /// Direct children, in registration order.
  const std::vector<std::pair<std::string, std::shared_ptr<Module>>>&
  named_children() const {
    return children_;
  }
  /// This module's own buffers (not recursive).
  const std::vector<std::pair<std::string, Tensor>>& named_buffers() const {
    return buffers_;
  }
  /// Resolves a dotted child path ("trunk.conv1"); "" is this module itself.
  /// Returns nullptr when the path does not exist.
  const Module* find(const std::string& path) const;
  /// Mutable overload (FusedArray::store_model resolves each step's path in
  /// the per-model tree it writes model b's state into).
  Module* find(const std::string& path);

  /// Total number of trainable scalars.
  int64_t num_parameters() const;

  void zero_grad();

  /// Switches train/eval mode recursively (affects Dropout / BatchNorm).
  void train(bool mode = true);
  void eval() { train(false); }
  bool is_training() const { return training_; }

 protected:
  /// Copying shares parameter/buffer storage (Variables are handles) — only
  /// meaningful for stateless-or-self-contained leaves (e.g. Dropout's
  /// copy-based clone); kept protected so trees are not copied by accident.
  Module(const Module&) = default;
  Module& operator=(const Module&) = default;

  /// Registers a trainable parameter; returns the stored handle.
  ag::Variable& register_parameter(std::string name, Tensor value);
  /// Registers a non-trainable buffer (running stats); returns the handle.
  Tensor& register_buffer(std::string name, Tensor value);
  /// Registers (and returns) a child module.
  template <typename M>
  std::shared_ptr<M> register_module(std::string name, std::shared_ptr<M> m) {
    children_.emplace_back(std::move(name), m);
    return m;
  }

  bool training_ = true;

 private:
  std::vector<std::pair<std::string, ag::Variable>> params_;
  std::vector<std::pair<std::string, Tensor>> buffers_;
  std::vector<std::pair<std::string, std::shared_ptr<Module>>> children_;

  void collect(const std::string& prefix,
               std::vector<std::pair<std::string, ag::Variable>>* out) const;
};

/// Runs modules in order.
class Sequential : public Module {
 public:
  Sequential() = default;
  explicit Sequential(std::vector<std::shared_ptr<Module>> mods);

  void push_back(std::shared_ptr<Module> m);
  /// Registers under `name` instead of the positional index, so planner
  /// diagnostics and load paths read "stem.conv" rather than "0.0".
  void push_back(std::string name, std::shared_ptr<Module> m);
  ag::Variable forward(const ag::Variable& x) override;
  LayerKind kind() const override { return LayerKind::kSequential; }
  /// Deep clone: every child cloned in registration order (nullptr if any
  /// child has no clone support).
  std::shared_ptr<Module> clone() const override;
  size_t size() const { return mods_.size(); }
  const std::shared_ptr<Module>& at(size_t i) const { return mods_.at(i); }

 private:
  std::vector<std::shared_ptr<Module>> mods_;
};

/// All buffers with dotted path names, depth-first (mirrors
/// named_parameters()).
std::vector<std::pair<std::string, Tensor>> named_buffers_recursive(
    const Module& m);

/// Copies model b's parameters and buffers from `per_model` into `array`,
/// an array of B such models: every tensor of `array` is B dim-0 blocks,
/// and block b takes the per-model tensor at the same dotted path. The
/// walk consumes each per-model tensor exactly once and throws, naming
/// the path, unless 0 <= b < B and the two trees pair up both ways: every
/// array tensor has a per-model twin holding 1/B of its numel, no path is
/// visited twice, and no per-model tensor is left over. It checks every
/// pair before it copies, so a rejected transfer writes nothing.
void load_model(Module& array, int64_t B, int64_t b, const Module& per_model);
/// The inverse: copies block b of every array tensor out into the
/// per-model tensor at the same path, under the same checks.
void store_model(const Module& array, int64_t B, int64_t b,
                 Module& per_model);

/// Copies every parameter and buffer of `src` into `dst`, a tree with the
/// same paths and shapes: load_model(dst, 1, 0, src). Also carries each
/// Dropout's current mask stream over (neither a parameter nor a buffer).
void copy_state(const Module& src, Module& dst);

/// True when the module tree holds any parameter or buffer storage.
bool has_state(const Module& m);

}  // namespace hfta::nn
