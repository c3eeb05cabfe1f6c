#include "autograd/engine.h"

#include <atomic>
#include <unordered_set>

#include "core/check.h"

namespace hfta::ag {

namespace {
// Visit marks must be unique across every Engine in the process (impls are
// shared between graphs, and nothing stops two engines from touching the
// same tape), so run ids come from one global counter.
std::atomic<uint64_t> g_run_counter{0};
}  // namespace

template <typename OnTarget>
void Engine::backward_node(Variable::Impl* impl, const OnTarget& on_target) {
  std::vector<Tensor> gin = impl->node->backward(impl->grad);
  HFTA_CHECK(gin.size() == impl->node->inputs.size(),
             "backward of ", impl->node->name, " returned ", gin.size(),
             " grads for ", impl->node->inputs.size(), " inputs");
  for (size_t i = 0; i < gin.size(); ++i) {
    const Variable& in = impl->node->inputs[i];
    if (!in.defined() || !gin[i].defined()) continue;
    if (!in.impl_->requires_grad && !in.impl_->node) continue;
    Tensor& g = in.impl_->grad;
    if (!g.defined()) g = Tensor::zeros(in.shape());
    HFTA_CHECK(gin[i].numel() == g.numel(), "backward of ",
               impl->node->name, ": grad ", i, " numel mismatch");
    g.add_(gin[i]);
    on_target(in.impl_.get());
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

  // Capture bookkeeping: the dedup set exists only on the (rare) capture
  // run, so eager passes pay nothing for recordability.
  std::unordered_set<Variable::Impl*> seen_targets;
  if (capture != nullptr) {
    capture->clear();
    capture->root = root;
    capture->seed = seed.reshape(root.shape());
  }

  // Seed and propagate in reverse topological order.
  root_impl->grad =
      root_impl->grad.defined() ? root_impl->grad : Tensor::zeros(root.shape());
  root_impl->grad.add_(seed.reshape(root.shape()));
  if (capture != nullptr) {
    capture->grad_targets.push_back(root_impl);
    seen_targets.insert(root_impl);
  }
  for (auto it = topo_.rbegin(); it != topo_.rend(); ++it) {
    Variable::Impl* impl = *it;
    if (!impl->node || !impl->grad.defined()) continue;
    if (capture != nullptr) capture->schedule.push_back(impl);
    backward_node(impl, [&](Variable::Impl* target) {
      if (capture != nullptr && seen_targets.insert(target).second)
        capture->grad_targets.push_back(target);
    });
  }
  ++runs_;
}

void BackwardTape::replay() const {
  HFTA_CHECK(captured(), "BackwardTape::replay() before any capture");
  // Zero every gradient buffer the captured pass wrote (in place: the
  // buffers are pinned by the captured graph), then re-seed the root —
  // equivalent to eager's fresh lazily-zeroed grads.
  for (Variable::Impl* t : grad_targets) {
    if (t->grad.defined()) {
      t->grad.zero_();
    } else {
      t->grad = Tensor::zeros(t->value.shape());
    }
  }
  root.impl_->grad.add_(seed);
  // The captured schedule, with the captured accumulation order.
  for (Variable::Impl* impl : schedule)
    Engine::backward_node(impl, [](Variable::Impl*) {});
}

void BackwardTape::clear() {
  root = Variable();
  seed = Tensor();
  schedule.clear();
  grad_targets.clear();
}

}  // namespace hfta::ag
