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

/// The backward half of a captured step program: the Engine::run calls of
/// one training step, in order, flattened for replay. A step with one
/// loss is one run; a multi-loss step (a GAN discriminator's real and fake
/// terms) is one run per loss. `schedule` holds every run's
/// reverse-topological node order back to back, run i's nodes ending at
/// runs[i].end, so replay() can re-seed each root and re-run the recorded
/// backward closures — no topo sort, no visited stamps, no Node or closure
/// construction, and (once warm) no allocation: every gradient lands in the
/// same pinned pool buffer the capture run resolved.
///
/// Bit-exactness contract: replay() visits nodes and accumulates per-input
/// gradients in exactly the captured order, under the engine's gradient
/// rule (see Engine::accumulate): a non-leaf's gradient holds only its own
/// run's contributions, a leaf's sums every run of the step. Each
/// gradient's first contribution of its span (the run for a non-leaf, the
/// whole replay for a leaf) overwrites its buffer as `x + 0` (what the
/// buffer held before — last step's gradient, or optimizer zeros — is
/// never read), later ones add_() on top: the roundings of eager's fresh or
/// zeroed buffer, so a replayed backward is bit-identical to the eager runs
/// it recorded.
///
/// Lifetime: each run's `root` keeps its captured graph (and therefore
/// every raw Impl pointer here) alive; the tape must be cleared or
/// discarded before a graph it captured is mutated structurally.
struct BackwardTape {
  struct Run {
    Variable root;  // owns the graph the run's raw pointers walk
    Tensor seed;    // root seed, already reshaped to root's shape
    size_t end = 0; // one past the run's last node in `schedule`
  };
  std::vector<Run> runs;
  std::vector<Variable::Impl*> schedule;  // nodes, reverse-topo per run

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
  /// When `capture` is non-null the executed schedule is appended to it as
  /// one more run, for tape-free replay.
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
  static void backward_node(Variable::Impl* impl, uint64_t run,
                            uint64_t first_run);
  /// Adds contribution `x` to `target`'s gradient during backward run
  /// `run`. A non-leaf's gradient holds only its own run's contributions
  /// (PyTorch's rule): its first contribution of the run overwrites it. A
  /// leaf's gradient sums every run of the step: it is overwritten only
  /// when no run since `first_run` wrote it — the first run of a replay,
  /// or 0 in eager, where a leaf accumulates into the gradient it holds
  /// (parameters after zero_grad, earlier losses of a multi-loss step).
  /// An overwrite, like a gradient without a buffer (which gets one), is
  /// written as `x + 0` in one pass — bit-identical to adding `x` into
  /// fresh zeros, −0 → +0 included; every other contribution is add_()ed.
  static void accumulate(Variable::Impl* target, const Tensor& x,
                         uint64_t run, uint64_t first_run);

  // Traversal scratch, reused across runs (capacity persists).
  std::vector<Variable::Impl*> topo_;
  std::vector<std::pair<Variable::Impl*, size_t>> stack_;
  int64_t runs_ = 0;
};

}  // namespace hfta::ag
