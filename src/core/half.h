// Scalar f32 <-> f16/bf16 bit converters (round-to-nearest-even), and the
// DType that names which of them an operand's quantize policy applies.
//
// These live in core/ (not tensor/dtype.cpp) because their round trip is the
// REFERENCE semantics for the quantizing GEMM pack in core/vec_*.cpp: the
// scalar SIMD-emulation path calls them per lane, and the AVX2/F16C path
// must match them bit-for-bit on every input — including NaN payloads,
// which these deliberately canonicalize on narrowing where hardware
// converters keep them. Keeping one copy here means "matches the scalar
// converter" is true by construction for the scalar lane path and testable
// exhaustively for the vector path.
#pragma once

#include <cstdint>
#include <cstring>

namespace hfta {

/// A quantize policy. Tensors always store f32; kF16/kBF16 ask a GEMM or
/// conv kernel to round that operand RNE to the half format and widen it
/// back inside its pack loop (vec::GemmArgs::a_type/b_type), kF32 packs it
/// verbatim.
enum class DType : uint8_t {
  kF32 = 0,   // IEEE binary32: no rounding
  kF16 = 1,   // IEEE binary16: 1 sign, 5 exponent, 10 mantissa
  kBF16 = 2,  // bfloat16: 1 sign, 8 exponent, 7 mantissa (truncated f32)
};

inline uint32_t f32_bits(float f) {
  uint32_t x;
  std::memcpy(&x, &f, sizeof(x));
  return x;
}

inline float bits_f32(uint32_t x) {
  float f;
  std::memcpy(&f, &x, sizeof(f));
  return f;
}

inline uint16_t f32_to_f16_bits(float f) {
  const uint32_t x = f32_bits(f);
  const uint16_t sign = static_cast<uint16_t>((x >> 16) & 0x8000u);
  const uint32_t abs = x & 0x7fffffffu;
  if (abs >= 0x7f800000u) {
    // Inf stays inf; NaN stays NaN (quieted — software converters cannot
    // preserve 23-bit payloads in 10 bits, so set the quiet bit).
    return static_cast<uint16_t>(sign | 0x7c00u |
                                 (abs > 0x7f800000u ? 0x0200u : 0u));
  }
  const int32_t e = static_cast<int32_t>(abs >> 23) - 127 + 15;  // rebias
  uint32_t m = abs & 0x007fffffu;
  if (e >= 31) return static_cast<uint16_t>(sign | 0x7c00u);  // -> inf
  if (e <= 0) {
    // Result is subnormal (or zero). Shift the full significand (implicit
    // bit restored) down to the 10-bit subnormal grid and round the shifted-
    // out remainder to nearest, ties to even. A carry out of the mantissa
    // lands on the smallest normal — which is exactly the right answer.
    if (e < -10) return sign;  // below half the smallest subnormal
    m |= 0x00800000u;
    const uint32_t shift = static_cast<uint32_t>(14 - e);  // 14..24
    uint16_t h = static_cast<uint16_t>(sign | (m >> shift));
    const uint32_t rem = m & ((1u << shift) - 1u);
    const uint32_t half = 1u << (shift - 1);
    if (rem > half || (rem == half && (h & 1u))) ++h;
    return h;
  }
  // Normal: drop 13 mantissa bits with RNE. The increment may carry into the
  // exponent; e == 30 with a full mantissa then rounds to inf, as required.
  uint16_t h = static_cast<uint16_t>(sign | (static_cast<uint32_t>(e) << 10) |
                                     (m >> 13));
  const uint32_t rem = m & 0x1fffu;
  if (rem > 0x1000u || (rem == 0x1000u && (h & 1u))) ++h;
  return h;
}

inline float f16_bits_to_f32(uint16_t h) {
  const uint32_t sign = static_cast<uint32_t>(h & 0x8000u) << 16;
  const uint32_t e = (h >> 10) & 0x1fu;
  uint32_t m = h & 0x3ffu;
  if (e == 31) return bits_f32(sign | 0x7f800000u | (m << 13));  // inf / nan
  if (e == 0) {
    if (m == 0) return bits_f32(sign);  // +-0
    // Subnormal: value is m * 2^-24; normalize into an f32 with an implicit
    // leading bit. Exact — f32 has exponent range to spare.
    int shift = 0;
    while (!(m & 0x400u)) {
      m <<= 1;
      ++shift;
    }
    m &= 0x3ffu;
    return bits_f32(sign | (static_cast<uint32_t>(113 - shift) << 23) |
                    (m << 13));
  }
  return bits_f32(sign | ((e - 15 + 127) << 23) | (m << 13));
}

inline uint16_t f32_to_bf16_bits(float f) {
  uint32_t x = f32_bits(f);
  if ((x & 0x7fffffffu) > 0x7f800000u) {
    // NaN: keep sign + high payload bits, force the quiet bit so a payload
    // living entirely in the dropped low 16 bits cannot turn into inf.
    return static_cast<uint16_t>((x >> 16) | 0x0040u);
  }
  // RNE via the classic carry trick: add 0x7fff plus the LSB of the kept
  // part. Carries propagate into the exponent (overflow -> inf, correct);
  // inf itself has a zero mantissa so the add never changes it.
  x += 0x7fffu + ((x >> 16) & 1u);
  return static_cast<uint16_t>(x >> 16);
}

inline float bf16_bits_to_f32(uint16_t h) {
  return bits_f32(static_cast<uint32_t>(h) << 16);
}

}  // namespace hfta
