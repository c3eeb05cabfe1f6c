#include "autograd/autocast.h"

namespace hfta::ag {

namespace {
thread_local bool g_autocast_enabled = false;
thread_local DType g_autocast_dtype = DType::kF32;
}  // namespace

bool autocast_enabled() { return g_autocast_enabled; }

DType autocast_dtype() { return g_autocast_dtype; }

AutocastGuard::AutocastGuard(DType dtype)
    : prev_enabled_(g_autocast_enabled), prev_dtype_(g_autocast_dtype) {
  g_autocast_enabled = dtype != DType::kF32;
  g_autocast_dtype = dtype;
}

AutocastGuard::~AutocastGuard() {
  g_autocast_enabled = prev_enabled_;
  g_autocast_dtype = prev_dtype_;
}

}  // namespace hfta::ag
