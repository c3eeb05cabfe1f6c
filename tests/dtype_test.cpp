// Conversion property tests: fp32 <-> fp16/bf16 round-trips for
// exactly-representable values, round-to-nearest-even ties, inf/nan
// propagation, subnormal handling, and quantize_to as the definition the
// GEMM quantize policy matches.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include "core/rng.h"
#include "tensor/dtype.h"
#include "tensor/matmul.h"
#include "tensor/tensor.h"

namespace hfta {
namespace {

float rt_f16(float f) { return f16_bits_to_f32(f32_to_f16_bits(f)); }
float rt_bf16(float f) { return bf16_bits_to_f32(f32_to_bf16_bits(f)); }

uint32_t bits_of(float f) {
  uint32_t x;
  std::memcpy(&x, &f, sizeof(x));
  return x;
}

TEST(DTypeTest, MetaHelpers) {
  EXPECT_STREQ(dtype_name(DType::kF32), "f32");
  EXPECT_STREQ(dtype_name(DType::kF16), "f16");
  EXPECT_STREQ(dtype_name(DType::kBF16), "bf16");
}

TEST(DTypeTest, F16ExactValuesRoundTrip) {
  // Every value representable in binary16 must survive unchanged.
  const float exact[] = {0.0f,     -0.0f,   1.0f,      -1.0f,   0.5f,
                         2.75f,    -1024.f, 65504.f,   -65504.f,
                         0.0625f,  1.5f,    0.0009765625f /* 2^-10 */,
                         6.103515625e-05f /* 2^-14, smallest normal */};
  for (float f : exact) {
    EXPECT_EQ(bits_of(rt_f16(f)), bits_of(f)) << "value " << f;
  }
  // Sign of zero survives.
  EXPECT_EQ(bits_of(rt_f16(-0.0f)), 0x80000000u);
}

TEST(DTypeTest, BF16ExactValuesRoundTrip) {
  // bfloat16 = truncated f32: any f32 with 7 or fewer mantissa bits (and
  // any exponent) is exact.
  const float exact[] = {0.0f, -0.0f, 1.0f, -2.0f, 1.0078125f /* 1+2^-7 */,
                         std::ldexp(1.875f, 127),  // 3.19e38, near bf16 max
                         1.1754944e-38f /* smallest f32 normal */,
                         9.4039548e-38f /* 2^-123 */};
  for (float f : exact) {
    EXPECT_EQ(bits_of(rt_bf16(f)), bits_of(f)) << "value " << f;
  }
}

TEST(DTypeTest, F16RoundToNearestEvenTies) {
  // At 1.0 the f16 mantissa step is 2^-10; 1 + 2^-11 is an exact halfway
  // case and must round DOWN to the even mantissa (1.0).
  EXPECT_EQ(rt_f16(1.0f + std::ldexp(1.0f, -11)), 1.0f);
  // 1 + 3*2^-11 is halfway between 1+2^-10 (odd mantissa) and 1+2^-9
  // (even): ties-to-even rounds UP.
  EXPECT_EQ(rt_f16(1.0f + 3 * std::ldexp(1.0f, -11)),
            1.0f + std::ldexp(1.0f, -9));
  // Just above/below the tie rounds to nearest, not to even.
  EXPECT_EQ(rt_f16(std::nextafterf(1.0f + std::ldexp(1.0f, -11), 2.0f)),
            1.0f + std::ldexp(1.0f, -10));
  EXPECT_EQ(rt_f16(std::nextafterf(1.0f + std::ldexp(1.0f, -11), 0.0f)), 1.0f);
}

TEST(DTypeTest, BF16RoundToNearestEvenTies) {
  // bf16 mantissa step at 1.0 is 2^-7; 1 + 2^-8 ties down to 1.0, and
  // 1 + 3*2^-8 ties up to 1 + 2^-6.
  EXPECT_EQ(rt_bf16(1.0f + std::ldexp(1.0f, -8)), 1.0f);
  EXPECT_EQ(rt_bf16(1.0f + 3 * std::ldexp(1.0f, -8)),
            1.0f + std::ldexp(1.0f, -6));
}

TEST(DTypeTest, F16OverflowAndInfinity) {
  const float inf = std::numeric_limits<float>::infinity();
  EXPECT_EQ(rt_f16(inf), inf);
  EXPECT_EQ(rt_f16(-inf), -inf);
  // Beyond the halfway point to 2^16, finite values overflow to inf.
  EXPECT_EQ(rt_f16(65520.0f), inf);  // tie between 65504 and 65536 -> even
  EXPECT_EQ(rt_f16(70000.0f), inf);
  EXPECT_EQ(rt_f16(-70000.0f), -inf);
  // Just below the tie stays at the max finite value.
  EXPECT_EQ(rt_f16(65519.996f), 65504.0f);
}

TEST(DTypeTest, BF16OverflowAndInfinity) {
  const float inf = std::numeric_limits<float>::infinity();
  EXPECT_EQ(rt_bf16(inf), inf);
  EXPECT_EQ(rt_bf16(-inf), -inf);
  // f32 max (0x7f7fffff) is past the bf16 tie point: rounds to inf.
  EXPECT_EQ(rt_bf16(std::numeric_limits<float>::max()), inf);
}

TEST(DTypeTest, NaNPropagates) {
  EXPECT_TRUE(std::isnan(rt_f16(std::nanf(""))));
  EXPECT_TRUE(std::isnan(rt_bf16(std::nanf(""))));
  // A NaN whose payload lives entirely in the dropped bits must stay NaN.
  float sneaky;
  uint32_t sneaky_bits = 0x7f800001u;  // signalling-ish, payload in low bits
  std::memcpy(&sneaky, &sneaky_bits, sizeof(sneaky));
  EXPECT_TRUE(std::isnan(rt_f16(sneaky)));
  EXPECT_TRUE(std::isnan(rt_bf16(sneaky)));
}

TEST(DTypeTest, F16Subnormals) {
  const float min_sub = std::ldexp(1.0f, -24);   // smallest f16 subnormal
  const float min_norm = std::ldexp(1.0f, -14);  // smallest f16 normal
  EXPECT_EQ(rt_f16(min_sub), min_sub);
  EXPECT_EQ(rt_f16(5 * min_sub), 5 * min_sub);
  EXPECT_EQ(rt_f16(1023 * min_sub), 1023 * min_sub);  // largest subnormal
  EXPECT_EQ(rt_f16(-min_sub), -min_sub);
  // Halfway below the smallest subnormal ties to zero (even).
  EXPECT_EQ(rt_f16(std::ldexp(1.0f, -25)), 0.0f);
  // 1.5 * 2^-25 is past halfway: rounds up to the smallest subnormal.
  EXPECT_EQ(rt_f16(1.5f * std::ldexp(1.0f, -25)), min_sub);
  EXPECT_EQ(rt_f16(std::ldexp(1.0f, -26)), 0.0f);
  // A subnormal halfway case inside the subnormal range: 2.5 * 2^-24 ties
  // between 2*2^-24 (even) and 3*2^-24 (odd) -> 2*2^-24.
  EXPECT_EQ(rt_f16(2.5f * min_sub), 2 * min_sub);
  // The carry from rounding the largest pre-normal value lands exactly on
  // the smallest normal.
  EXPECT_EQ(rt_f16(std::nextafterf(min_norm, 0.0f)), min_norm);
}

TEST(DTypeTest, BF16Subnormals) {
  // bf16 subnormals are f32 subnormals with a 7-bit mantissa; the smallest
  // is 2^-133.
  const float min_sub = std::ldexp(1.0f, -133);
  EXPECT_EQ(rt_bf16(min_sub), min_sub);
  EXPECT_EQ(rt_bf16(3 * min_sub), 3 * min_sub);
  // The smallest f32 subnormal (2^-149) is far below 2^-134: flushes to 0.
  EXPECT_EQ(rt_bf16(std::numeric_limits<float>::denorm_min()), 0.0f);
}

TEST(DTypeTest, ExhaustiveF16BitPatternsRoundTripThroughF32) {
  // Widening is exact, so every one of the 65536 f16 patterns must survive
  // f16 -> f32 -> f16 bit-for-bit (NaNs keep their quiet bit set by the
  // narrowing converter, so compare through the widened value).
  for (uint32_t h = 0; h < 0x10000u; ++h) {
    const uint16_t hb = static_cast<uint16_t>(h);
    const float f = f16_bits_to_f32(hb);
    if (std::isnan(f)) {
      EXPECT_TRUE(std::isnan(f16_bits_to_f32(f32_to_f16_bits(f))));
      continue;
    }
    EXPECT_EQ(f32_to_f16_bits(f), hb) << "pattern " << h;
  }
}

TEST(DTypeTest, QuantizeToMatchesScalarConverters) {
  Rng rng(123);
  for (int i = 0; i < 1000; ++i) {
    const float f = static_cast<float>(rng.normal()) * 100.f;
    EXPECT_EQ(bits_of(quantize_to(f, DType::kF32)), bits_of(f));
    EXPECT_EQ(bits_of(quantize_to(f, DType::kF16)), bits_of(rt_f16(f)));
    EXPECT_EQ(bits_of(quantize_to(f, DType::kBF16)), bits_of(rt_bf16(f)));
  }
}

TEST(DTypeTest, MatmulQuantizePolicyMatchesQuantizedInputs) {
  // A GEMM with quantize policies must equal the f32 GEMM over operands
  // rounded elementwise with quantize_to — fp32 accumulation from
  // low-precision inputs, bit for bit.
  Rng rng(17);
  Tensor a = Tensor::randn({3, 4}, rng);
  Tensor b = Tensor::randn({4, 5}, rng);
  auto quantized = [](const Tensor& t, DType dt) {
    Tensor q = t.clone();
    for (int64_t i = 0; i < q.numel(); ++i)
      q.data()[i] = quantize_to(q.data()[i], dt);
    return q;
  };
  for (DType dt : {DType::kF16, DType::kBF16}) {
    Tensor ref = ops::matmul(quantized(a, dt), quantized(b, dt));
    Tensor out = ops::matmul(a, b, false, false, dt, dt);
    const std::vector<float> rs = ref.to_vector();
    const std::vector<float> os = out.to_vector();
    for (size_t i = 0; i < rs.size(); ++i) EXPECT_EQ(bits_of(os[i]), bits_of(rs[i]));
  }
}

}  // namespace
}  // namespace hfta
