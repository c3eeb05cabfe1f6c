// Autocast: scoped mixed-precision policy for the differentiable ops.
//
// Inside an AutocastGuard(kF16 / kBF16) scope, the GEMM/conv-class ops
// (matmul, linear, attention's GEMMs, conv and conv_transpose at either
// rank) round their tensor operands — NOT their biases — to the
// autocast dtype before computing, and accumulate in f32, so the op class
// runs "fp32-accumulate from low-precision inputs". Everything else is
// untouched: elementwise and pooling ops run native on the (f32) activations
// that GEMMs produce, and reductions/losses stay f32. Gradients are ALWAYS
// f32.
//
// There is one formulation: each op captures the dtype BY VALUE as a
// per-operand quantize policy, and the packed GEMM (directly, or behind
// conv's im2col) rounds those operands to the half format INSIDE its pack
// loop (vec::GemmArgs::a_type/b_type) — no cast tensors, no cast nodes, and
// no half-precision storage anywhere. A backward quantizes only the saved
// operand of each product; the incoming gradient stays f32.
//
// The policy rides in the op closures, so captured step programs replay it
// with no autocast state involved. TrainStep mixes the autocast state into
// its structural fingerprint, so toggling precision recaptures instead of
// replaying a stale-precision program.
//
// The policy flag is thread_local. Guards are used on the launching thread
// (graph construction is single-threaded here); worker threads never build
// graphs.
#pragma once

#include "tensor/dtype.h"

namespace hfta::ag {

/// True inside an AutocastGuard scope with a 16-bit dtype.
bool autocast_enabled();

/// The active autocast dtype (meaningful only when autocast_enabled()).
DType autocast_dtype();

/// RAII scope. Passing kF32 DISABLES autocast within the scope — that is how
/// fp32 code (and TrainStep with AMP off) pins the policy regardless of any
/// enclosing scope.
class AutocastGuard {
 public:
  explicit AutocastGuard(DType dtype);
  ~AutocastGuard();
  AutocastGuard(const AutocastGuard&) = delete;
  AutocastGuard& operator=(const AutocastGuard&) = delete;

 private:
  bool prev_enabled_;
  DType prev_dtype_;
};

}  // namespace hfta::ag
