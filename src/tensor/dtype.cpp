#include "tensor/dtype.h"

namespace hfta {

const char* dtype_name(DType d) {
  switch (d) {
    case DType::kF32: return "f32";
    case DType::kF16: return "f16";
    case DType::kBF16: return "bf16";
  }
  return "?";
}

float quantize_to(float f, DType dt) {
  switch (dt) {
    case DType::kF32: return f;
    case DType::kF16: return f16_bits_to_f32(f32_to_f16_bits(f));
    case DType::kBF16: return bf16_bits_to_f32(f32_to_bf16_bits(f));
  }
  return f;
}

}  // namespace hfta
