#include "autograd/autocast.h"

namespace hfta::ag {

namespace {
thread_local DType g_autocast_dtype = DType::kF32;
}  // namespace

DType autocast_dtype() { return g_autocast_dtype; }

AutocastGuard::AutocastGuard(DType dtype) : prev_dtype_(g_autocast_dtype) {
  g_autocast_dtype = dtype;
}

AutocastGuard::~AutocastGuard() { g_autocast_dtype = prev_dtype_; }

}  // namespace hfta::ag
