// Scalar emulation of the 8-lane virtual vector machine (see vec.h).
//
// Each trait op mirrors its AVX2 counterpart's value semantics exactly:
// std::fma / std::sqrt are correctly rounded (bit-identical to
// vfmadd/vsqrtps), min/max use the vminps/vmaxps selection rule, and masked
// loads zero the dead lanes like vmaskmovps. This backend exists for the
// HFTA_SIMD=0 A/B equality tests and for hosts without AVX2 — it is not
// expected to be fast.
#include <cmath>
#include <cstdint>
#include <utility>

#include "core/half.h"
#include "core/vec.h"
#include "core/vec_impl.h"

namespace hfta::vec {

namespace {

struct ScalarTraits {
  struct V {
    float l[kLanes];
  };

  static V zero() {
    V v;
    for (int i = 0; i < kLanes; ++i) v.l[i] = 0.f;
    return v;
  }
  static V set1(float x) {
    V v;
    for (int i = 0; i < kLanes; ++i) v.l[i] = x;
    return v;
  }
  static V load(const float* p) {
    V v;
    for (int i = 0; i < kLanes; ++i) v.l[i] = p[i];
    return v;
  }
  static void store(float* p, V v) {
    for (int i = 0; i < kLanes; ++i) p[i] = v.l[i];
  }
  static V maskload(const float* p, int64_t rem) {
    V v;
    for (int i = 0; i < kLanes; ++i) v.l[i] = i < rem ? p[i] : 0.f;
    return v;
  }
  static void maskstore(float* p, int64_t rem, V v) {
    for (int i = 0; i < kLanes && i < rem; ++i) p[i] = v.l[i];
  }
  /// All-ones mask for lanes < rem (represented as 1.0f selectors here; only
  /// ever consumed by select()).
  static V lanemask(int64_t rem) {
    V v;
    for (int i = 0; i < kLanes; ++i) v.l[i] = i < rem ? 1.f : 0.f;
    return v;
  }
  static V select(V mask, V a, V b) {
    V v;
    for (int i = 0; i < kLanes; ++i) v.l[i] = mask.l[i] != 0.f ? a.l[i] : b.l[i];
    return v;
  }
  static V gt(V a, V b) {
    V v;
    for (int i = 0; i < kLanes; ++i) v.l[i] = a.l[i] > b.l[i] ? 1.f : 0.f;
    return v;
  }

  static V add(V a, V b) {
    V v;
    for (int i = 0; i < kLanes; ++i) v.l[i] = a.l[i] + b.l[i];
    return v;
  }
  static V sub(V a, V b) {
    V v;
    for (int i = 0; i < kLanes; ++i) v.l[i] = a.l[i] - b.l[i];
    return v;
  }
  static V mul(V a, V b) {
    V v;
    for (int i = 0; i < kLanes; ++i) v.l[i] = a.l[i] * b.l[i];
    return v;
  }
  static V div(V a, V b) {
    V v;
    for (int i = 0; i < kLanes; ++i) v.l[i] = a.l[i] / b.l[i];
    return v;
  }
  static V sqrt(V a) {
    V v;
    for (int i = 0; i < kLanes; ++i) v.l[i] = std::sqrt(a.l[i]);
    return v;
  }
  static V fma(V a, V b, V c) {
    V v;
    for (int i = 0; i < kLanes; ++i) v.l[i] = std::fma(a.l[i], b.l[i], c.l[i]);
    return v;
  }
  // vminps/vmaxps selection semantics: NaN in either operand selects b.
  static V min(V a, V b) {
    V v;
    for (int i = 0; i < kLanes; ++i) v.l[i] = a.l[i] < b.l[i] ? a.l[i] : b.l[i];
    return v;
  }
  static V max(V a, V b) {
    V v;
    for (int i = 0; i < kLanes; ++i) v.l[i] = a.l[i] > b.l[i] ? a.l[i] : b.l[i];
    return v;
  }
  static V neg(V a) {
    V v;
    for (int i = 0; i < kLanes; ++i) v.l[i] = -a.l[i];
    return v;
  }
  static V floor(V a) {
    V v;
    for (int i = 0; i < kLanes; ++i) v.l[i] = std::floor(a.l[i]);
    return v;
  }
  /// y * 2^(int)fx for integral-valued fx in the exp range (-126..127).
  static V scale_pow2(V y, V fx) {
    V v;
    for (int i = 0; i < kLanes; ++i) {
      const int32_t k = static_cast<int32_t>(fx.l[i]);
      v.l[i] = y.l[i] * bits_f32(static_cast<uint32_t>(k + 127) << 23);
    }
    return v;
  }

  // Fixed cross-lane trees: (0,4)(1,5)(2,6)(3,7) -> (0,2)(1,3) -> (0,1).
  static float tree_add(V v) {
    const float t0 = v.l[0] + v.l[4], t1 = v.l[1] + v.l[5];
    const float t2 = v.l[2] + v.l[6], t3 = v.l[3] + v.l[7];
    const float u0 = t0 + t2, u1 = t1 + t3;
    return u0 + u1;
  }
  static float tree_max(V v) {
    const auto mx = [](float a, float b) { return a > b ? a : b; };
    const float t0 = mx(v.l[0], v.l[4]), t1 = mx(v.l[1], v.l[5]);
    const float t2 = mx(v.l[2], v.l[6]), t3 = mx(v.l[3], v.l[7]);
    return mx(mx(t0, t2), mx(t1, t3));
  }

  // Quantize-on-pack: RNE round trip through the half format, per lane —
  // the reference composition the AVX2 ops reproduce.
  static V quantize_f16(V a) {
    V v;
    for (int i = 0; i < kLanes; ++i)
      v.l[i] = f16_bits_to_f32(f32_to_f16_bits(a.l[i]));
    return v;
  }
  static V quantize_bf16(V a) {
    V v;
    for (int i = 0; i < kLanes; ++i)
      v.l[i] = bf16_bits_to_f32(f32_to_bf16_bits(a.l[i]));
    return v;
  }

  static void transpose8(V* r) {
    for (int i = 0; i < kLanes; ++i)
      for (int j = 0; j < i; ++j) std::swap(r[i].l[j], r[j].l[i]);
  }

  static V or_(V a, V b) {
    V v;
    for (int i = 0; i < kLanes; ++i) {
      const uint32_t x = f32_bits(a.l[i]) | f32_bits(b.l[i]);
      std::memcpy(&v.l[i], &x, sizeof(float));
    }
    return v;
  }

  /// Per-lane mask: all-ones where the lane is inf/NaN, zero otherwise —
  /// the same composition the AVX2 backend runs, so OR-accumulated verdicts
  /// agree on every input.
  static V nonfinite_mask(V a) {
    V v;
    for (int i = 0; i < kLanes; ++i) {
      const uint32_t x =
          (f32_bits(a.l[i]) & 0x7f800000u) == 0x7f800000u ? 0xffffffffu : 0u;
      std::memcpy(&v.l[i], &x, sizeof(float));
    }
    return v;
  }

  /// True when any lane is inf/NaN (exponent field all ones) — the same bit
  /// test the AVX2 backend runs, so the verdicts agree on every input.
  static bool any_nonfinite(V a) {
    for (int i = 0; i < kLanes; ++i)
      if ((f32_bits(a.l[i]) & 0x7f800000u) == 0x7f800000u) return true;
    return false;
  }
};

}  // namespace

const VecOps* vec_scalar_ops() {
  static const VecOps ops = detail::Kern<ScalarTraits>::table();
  return &ops;
}

}  // namespace hfta::vec
