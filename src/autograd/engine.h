// Reusable backward engine.
//
// Variable::backward() is correct but rebuilds its traversal scratch — the
// topological order, the DFS stack, the visited bookkeeping — from nothing
// on every call. Training runs backward once per iteration over a graph of
// the same shape, so an Engine keeps that scratch alive across runs: the
// vectors retain their capacity and the visited check is an O(1) epoch
// stamp on each node (no hash set, no per-run rehashing).
//
// Bit-exactness contract: Engine::run visits nodes and accumulates
// gradients in EXACTLY the order the original Variable::backward() did
// (iterative post-order DFS, children in input order; reverse-topo
// propagation; per-input grad accumulation in input order). Reusing one
// Engine for N iterations is bit-identical to N fresh backward() calls —
// engine_test asserts this — so the fused-vs-serial 0.00e+00 invariant is
// untouched.
#pragma once

#include "autograd/variable.h"

namespace hfta::ag {

/// The backward half of a captured step program: the exact node schedule
/// one Engine::run executed, flattened for replay. `schedule` holds the
/// reverse-topological node order the eager pass propagated through, so
/// replay() can re-seed the root and re-run the recorded backward closures
/// — no topo sort, no visited stamps, no Node or closure construction, and
/// (once warm) no allocation: every gradient lands in the same pinned pool
/// buffer the capture run resolved.
///
/// Bit-exactness contract: replay() visits nodes and accumulates per-input
/// gradients in exactly the captured order. Each gradient's first
/// contribution of the pass overwrites its buffer as `x + 0` (what the
/// buffer held before — last step's gradient, or optimizer zeros — is
/// never read), later ones add_() on top: the roundings of eager's fresh
/// buffer, so a replayed backward is bit-identical to the eager pass it
/// recorded.
///
/// Lifetime: `root` keeps the whole captured graph (and therefore every
/// raw Impl pointer here) alive; the tape must be cleared or discarded
/// before the graph it captured is mutated structurally.
struct BackwardTape {
  Variable root;    // capture root; owns the graph the raw pointers walk
  Tensor seed;      // root seed, already reshaped to root's shape
  std::vector<Variable::Impl*> schedule;  // nodes, reverse-topo order

  bool captured() const { return root.defined(); }
  void replay() const;
  void clear();
};

class Engine {
 public:
  Engine() = default;
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Runs backpropagation from `root` (same contract as
  /// Variable::backward: an undefined seed requires a scalar root and
  /// seeds with ones). Safe to call repeatedly, on unrelated graphs.
  /// When `capture` is non-null the executed schedule is recorded into it
  /// (replacing any previous capture) for tape-free replay.
  void run(const Variable& root, Tensor seed = Tensor(),
           BackwardTape* capture = nullptr);

  /// Number of backward passes driven through this engine.
  int64_t runs() const { return runs_; }
  /// Nodes (graph outputs) on the tape of the most recent run.
  int64_t last_tape_size() const {
    return static_cast<int64_t>(topo_.size());
  }

 private:
  friend struct BackwardTape;  // replays through backward_node/accumulate

  /// One node's backward step, shared by run() and BackwardTape::replay():
  /// runs the node's closure and accumulates each on-tape input's gradient
  /// into that input's grad buffer, in input order (see accumulate()).
  static void backward_node(Variable::Impl* impl, uint64_t pass,
                            bool overwrite);
  /// Adds contribution `x` to `target`'s gradient during backward pass
  /// `pass`. A gradient without a buffer gets one, written as `x + 0` in
  /// one pass — bit-identical to adding `x` into fresh zeros, −0 → +0
  /// included. With `overwrite` (replay), a buffer not yet written in this
  /// pass (its grad_mark stamp is stale) is written the same way; every
  /// other contribution is add_()ed, so eager still accumulates into
  /// gradients that exist before the pass (parameters, multi-loss steps).
  static void accumulate(Variable::Impl* target, const Tensor& x,
                         uint64_t pass, bool overwrite);

  // Traversal scratch, reused across runs (capacity persists).
  std::vector<Variable::Impl*> topo_;
  std::vector<std::pair<Variable::Impl*, size_t>> stack_;
  int64_t runs_ = 0;
};

}  // namespace hfta::ag
