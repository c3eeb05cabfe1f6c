#include "autograd/step_program.h"

#include <utility>

#include "core/check.h"

namespace hfta::ag {

namespace {
thread_local StepProgram* g_recording = nullptr;
}  // namespace

StepProgram::CaptureGuard::CaptureGuard(StepProgram* p) : prev_(g_recording) {
  if (p != nullptr) p->clear();
  g_recording = p;
}

StepProgram::CaptureGuard::~CaptureGuard() { g_recording = prev_; }

StepProgram* StepProgram::recording() { return g_recording; }

void StepProgram::record_op(const Tensor& out,
                            std::function<Tensor(const Tensor&)> recompute) {
  slots_.push_back({out, std::move(recompute)});
}

void StepProgram::finish_capture(Engine& engine,
                                 const std::vector<Variable>& roots,
                                 const Tensor& seed) {
  HFTA_CHECK(g_recording != this,
             "finish_capture inside this program's own CaptureGuard — end "
             "the guard (forward capture) before freezing the backward");
  for (const Variable& root : roots) engine.run(root, seed, &tape_);
  losses_ = roots;
  captured_ = true;
}

void StepProgram::replay() {
  HFTA_CHECK(captured_, "StepProgram::replay() before finish_capture()");
  for (Slot& s : slots_) {
    const Tensor r = s.compute(s.out);
    HFTA_CHECK(r.shares_storage_with(s.out),
               "a replayed op wrote its result outside its pinned output");
  }
  tape_.replay();
}

void StepProgram::clear() {
  slots_.clear();
  losses_.clear();
  tape_.clear();
  captured_ = false;
}

}  // namespace hfta::ag
