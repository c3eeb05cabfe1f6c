// Autocast precision policy helpers and the scalar quantize round trip.
//
// Tensors always store f32. A DType (core/half.h) names the precision an
// operand is rounded to when an op runs under autocast: kF16/kBF16 ask the
// GEMM and conv kernels to round that operand round-to-nearest-even to the
// half format inside their pack loops and accumulate in f32 — the
// "fp32-accumulate from low-precision inputs" policy AMP hardware uses.
#pragma once

#include "core/half.h"

namespace hfta {

const char* dtype_name(DType d);

/// Scalar round trip through `dt` (identity for kF32): the value an f32
/// number takes when rounded to that precision — exactly what the kernels'
/// quantize-on-pack produces for each element.
float quantize_to(float f, DType dt);

}  // namespace hfta
