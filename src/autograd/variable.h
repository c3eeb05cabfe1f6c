// Tape-based reverse-mode automatic differentiation.
//
// A Variable is a value-semantics handle to (value, grad, creator node).
// Differentiable ops (autograd/functions.h) record a Node holding the input
// Variables and a backward closure; Variable::backward() topologically
// sorts the tape and accumulates gradients into every requires-grad leaf.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/op_counters.h"
#include "tensor/tensor.h"

namespace hfta::ag {

class Engine;
class Variable;
struct BackwardTape;

/// Graph node recorded by a differentiable op.
struct Node {
  /// Every tape node bumps the process-wide construction counter — the
  /// direct measure of per-step tape cost that IterationScope reports and
  /// the replayed-step-program zero-node assertions read.
  Node() { counters::count_node_construction(); }

  std::string name;                 // op name, for debugging
  std::vector<Variable> inputs;     // parents
  /// Maps the output gradient to per-input gradients (undefined Tensor for
  /// inputs that do not need a gradient).
  std::function<std::vector<Tensor>(const Tensor& gy)> backward;
};

class Variable {
 public:
  /// Undefined variable.
  Variable() = default;
  /// Wraps a tensor; requires_grad marks it as a trainable leaf.
  explicit Variable(Tensor value, bool requires_grad = false);

  bool defined() const { return impl_ != nullptr; }
  const Tensor& value() const;
  Tensor& mutable_value();
  /// Gradient tensor; allocated as zeros on first access.
  Tensor& grad();
  bool has_grad() const;
  bool requires_grad() const;
  void zero_grad();

  const Shape& shape() const { return value().shape(); }
  int64_t size(int64_t d) const { return value().size(d); }
  int64_t numel() const { return value().numel(); }
  int64_t dim() const { return value().dim(); }

  /// Runs backpropagation from this variable. If `seed` is undefined, the
  /// variable must be scalar-like and is seeded with ones. Convenience
  /// front-end over ag::Engine (autograd/engine.h); training loops that
  /// run backward every iteration should hold one Engine and reuse it.
  void backward(Tensor seed = Tensor()) const;

  /// A new leaf sharing this variable's value but cut from the tape.
  Variable detach() const;

  /// Internal: creates a non-leaf output of `node`.
  static Variable make_output(Tensor value, std::shared_ptr<Node> node);
  const std::shared_ptr<Node>& node() const;

  /// Identity of the underlying impl (for graph bookkeeping in tests).
  const void* id() const { return impl_.get(); }

 private:
  friend class Engine;        // traverses impls and stamps visit marks
  friend struct BackwardTape; // replays a captured schedule over impls

  struct Impl {
    Tensor value;
    Tensor grad;
    bool requires_grad = false;
    std::shared_ptr<Node> node;  // creator; null for leaves
    uint64_t visit_mark = 0;     // ag::Engine visited stamp (run id)
    uint64_t grad_mark = 0;      // backward pass that last wrote grad
  };
  std::shared_ptr<Impl> impl_;
};

}  // namespace hfta::ag
