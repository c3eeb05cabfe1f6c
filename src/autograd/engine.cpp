#include "autograd/engine.h"

#include <atomic>

#include "core/check.h"
#include "core/parallel.h"
#include "core/vec.h"

namespace hfta::ag {

namespace {
// Visit marks must be unique across every Engine in the process (impls are
// shared between graphs, and nothing stops two engines from touching the
// same tape), so run ids come from one global counter.
std::atomic<uint64_t> g_run_counter{0};
}  // namespace

void Engine::accumulate(Variable::Impl* target, const Tensor& x,
                        uint64_t run, uint64_t first_run) {
  Tensor& g = target->grad;
  const bool fresh = !g.defined();
  if (fresh) g = Tensor::empty(target->value.shape());
  HFTA_CHECK(x.numel() == g.numel(), "gradient of ", g.numel(),
             " elements given a contribution of ", x.numel());
  if (fresh || target->grad_mark < (target->node ? run : first_run)) {
    // x + 0, not a copy: it maps -0 to +0, the rounding of adding x into
    // zeros. One operation per element, so the split cannot move a bit.
    const float* px = x.data();
    float* pg = g.data();
    parallel_for(Partition::elems(g.numel()), [&](int64_t lo, int64_t hi) {
      vec::unary(vec::UnOp::kAddScalar, 0.f, 0.f, px + lo, pg + lo, hi - lo);
    });
  } else {
    g.add_(x);
  }
  target->grad_mark = run;
}

void Engine::backward_node(Variable::Impl* impl, uint64_t run,
                           uint64_t first_run) {
  std::vector<Tensor> gin = impl->node->backward(impl->grad);
  HFTA_CHECK(gin.size() == impl->node->inputs.size(),
             "backward of ", impl->node->name, " returned ", gin.size(),
             " grads for ", impl->node->inputs.size(), " inputs");
  for (size_t i = 0; i < gin.size(); ++i) {
    const Variable& in = impl->node->inputs[i];
    if (!in.defined() || !gin[i].defined()) continue;
    if (!in.impl_->requires_grad && !in.impl_->node) continue;
    accumulate(in.impl_.get(), gin[i], run, first_run);
  }
}

void Engine::run(const Variable& root, Tensor seed, BackwardTape* capture) {
  HFTA_CHECK(root.defined(), "backward() on undefined Variable");
  if (!seed.defined()) {
    HFTA_CHECK(root.numel() == 1,
               "backward() without seed requires a scalar; got ",
               shape_str(root.shape()));
    seed = Tensor::ones(root.value().shape());
  }
  HFTA_CHECK(seed.numel() == root.numel(), "backward(): seed shape mismatch");

  const uint64_t mark = ++g_run_counter;
  Variable::Impl* root_impl = root.impl_.get();

  // Topological order over impls (post-order DFS, iterative) — the same
  // traversal Variable::backward() always performed, with the visited set
  // replaced by an epoch stamp and the scratch vectors reused across runs.
  topo_.clear();
  stack_.clear();
  stack_.emplace_back(root_impl, 0);
  root_impl->visit_mark = mark;
  while (!stack_.empty()) {
    auto& [impl, child] = stack_.back();
    if (impl->node && child < impl->node->inputs.size()) {
      const Variable& in = impl->node->inputs[child++];
      if (in.defined()) {
        Variable::Impl* ci = in.impl_.get();
        if (ci->node && ci->visit_mark != mark) {
          ci->visit_mark = mark;
          stack_.emplace_back(ci, 0);
        }
      }
    } else {
      topo_.push_back(impl);
      stack_.pop_back();
    }
  }

  if (capture != nullptr)
    capture->runs.push_back({root, seed.reshape(root.shape())});

  // Seed and propagate in reverse topological order, through the nodes
  // this run reached (a gradient left by an earlier run is not this run's).
  accumulate(root_impl, seed, mark, /*first_run=*/0);
  for (auto it = topo_.rbegin(); it != topo_.rend(); ++it) {
    Variable::Impl* impl = *it;
    if (!impl->node || impl->grad_mark != mark) continue;
    if (capture != nullptr) capture->schedule.push_back(impl);
    backward_node(impl, mark, /*first_run=*/0);
  }
  if (capture != nullptr) capture->runs.back().end = capture->schedule.size();
  ++runs_;
}

void BackwardTape::replay() const {
  // Each run gets a fresh stamp, so a non-leaf's first contribution of its
  // run overwrites it; a leaf's first contribution since the replay's first
  // run does (the seed first, at each root). The captured schedule runs in
  // the captured accumulation order.
  uint64_t first_run = 0;
  size_t begin = 0;
  for (const Run& r : runs) {
    const uint64_t run = ++g_run_counter;
    if (first_run == 0) first_run = run;
    Engine::accumulate(r.root.impl_.get(), r.seed, run, first_run);
    for (size_t i = begin; i < r.end; ++i)
      Engine::backward_node(schedule[i], run, first_run);
    begin = r.end;
  }
}

void BackwardTape::clear() {
  runs.clear();
  schedule.clear();
}

}  // namespace hfta::ag
