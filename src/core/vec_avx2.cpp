// AVX2/FMA/F16C backend of the 8-lane virtual vector machine (see vec.h).
//
// Compiled with -mavx2 -mfma -mf16c via per-source CMake flags; nothing in
// this TU executes unless vec.cpp's runtime CPU check passes (taking the
// address of the table emits no vector instructions). On toolchains without
// those flags the TU collapses to a nullptr table and the scalar backend is
// used unconditionally.
//
// Value semantics match the scalar backend bit-for-bit: vfmadd/vsqrtps are
// correctly rounded like std::fma/std::sqrt, vminps/vmaxps implement the
// agreed (a<b)?a:b / (a>b)?a:b NaN rule, and the F16C quantize round trip
// is patched on NaN lanes to reproduce the software converters in
// core/half.h exactly (vcvtps2ph keeps payload bits; the scalar converter
// canonicalizes to sign|0x7e00 on narrowing).
#include "core/vec.h"

#if defined(__AVX2__) && defined(__FMA__) && defined(__F16C__)

#include <immintrin.h>

#include <cstdint>

#include "core/half.h"
#include "core/vec_impl.h"

namespace hfta::vec {

namespace {

inline __m256i tail_epi32(int64_t rem) {
  const __m256i iota = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
  return _mm256_cmpgt_epi32(_mm256_set1_epi32(static_cast<int>(rem)), iota);
}

struct Avx2Traits {
  using V = __m256;

  static V zero() { return _mm256_setzero_ps(); }
  static V set1(float x) { return _mm256_set1_ps(x); }
  static V load(const float* p) { return _mm256_loadu_ps(p); }
  static void store(float* p, V v) { _mm256_storeu_ps(p, v); }
  static V maskload(const float* p, int64_t rem) {
    return _mm256_maskload_ps(p, tail_epi32(rem));
  }
  static void maskstore(float* p, int64_t rem, V v) {
    _mm256_maskstore_ps(p, tail_epi32(rem), v);
  }
  static V lanemask(int64_t rem) {
    return _mm256_castsi256_ps(tail_epi32(rem));
  }
  static V select(V mask, V a, V b) { return _mm256_blendv_ps(b, a, mask); }
  static V gt(V a, V b) { return _mm256_cmp_ps(a, b, _CMP_GT_OQ); }

  static V add(V a, V b) { return _mm256_add_ps(a, b); }
  static V sub(V a, V b) { return _mm256_sub_ps(a, b); }
  static V mul(V a, V b) { return _mm256_mul_ps(a, b); }
  static V div(V a, V b) { return _mm256_div_ps(a, b); }
  static V sqrt(V a) { return _mm256_sqrt_ps(a); }
  static V fma(V a, V b, V c) { return _mm256_fmadd_ps(a, b, c); }
  static V min(V a, V b) { return _mm256_min_ps(a, b); }
  static V max(V a, V b) { return _mm256_max_ps(a, b); }
  static V neg(V a) {
    return _mm256_xor_ps(a, _mm256_set1_ps(-0.f));
  }
  static V floor(V a) { return _mm256_floor_ps(a); }
  static V scale_pow2(V y, V fx) {
    __m256i k = _mm256_cvttps_epi32(fx);
    k = _mm256_add_epi32(k, _mm256_set1_epi32(127));
    k = _mm256_slli_epi32(k, 23);
    return _mm256_mul_ps(y, _mm256_castsi256_ps(k));
  }

  // Fixed cross-lane trees: (0,4)(1,5)(2,6)(3,7) -> (0,2)(1,3) -> (0,1).
  static float tree_add(V v) {
    const __m128 lo = _mm256_castps256_ps128(v);
    const __m128 hi = _mm256_extractf128_ps(v, 1);
    const __m128 s = _mm_add_ps(lo, hi);
    const __m128 u = _mm_add_ps(s, _mm_movehl_ps(s, s));
    const __m128 r = _mm_add_ss(u, _mm_shuffle_ps(u, u, 0x1));
    return _mm_cvtss_f32(r);
  }
  static float tree_max(V v) {
    const __m128 lo = _mm256_castps256_ps128(v);
    const __m128 hi = _mm256_extractf128_ps(v, 1);
    const __m128 s = _mm_max_ps(lo, hi);
    const __m128 u = _mm_max_ps(s, _mm_movehl_ps(s, s));
    const __m128 r = _mm_max_ss(u, _mm_shuffle_ps(u, u, 0x1));
    return _mm_cvtss_f32(r);
  }

  /// f16_bits_to_f32(f32_to_f16_bits(x)) per lane: vcvtps2ph(RNE) +
  /// vcvtph2ps for the numeric lanes; NaN lanes are rebuilt from the scalar
  /// composition (canonical sign|0x7e00 narrowed then widened to
  /// sign|0x7fc00000 — a per-lane constant, so the patch stays vectorized).
  static V quantize_f16(V a) {
    const __m128i h = _mm256_cvtps_ph(a, _MM_FROUND_TO_NEAREST_INT |
                                             _MM_FROUND_NO_EXC);
    V r = _mm256_cvtph_ps(h);
    const V isnan = _mm256_cmp_ps(a, a, _CMP_UNORD_Q);
    if (_mm256_movemask_ps(isnan) != 0) {
      const __m256i sign = _mm256_and_si256(_mm256_castps_si256(a),
                                            _mm256_set1_epi32(
                                                static_cast<int>(0x80000000u)));
      const __m256i canon =
          _mm256_or_si256(sign, _mm256_set1_epi32(0x7fc00000));
      r = _mm256_blendv_ps(r, _mm256_castsi256_ps(canon), isnan);
    }
    return r;
  }
  /// bf16_bits_to_f32(f32_to_bf16_bits(x)) per lane, entirely in-register:
  /// the RNE carry trick masked back to the top 16 bits (widening is <<16,
  /// so no narrow/re-widen shuffle is needed); NaN lanes take the scalar
  /// converter's (x>>16)|0x40 composition.
  static V quantize_bf16(V a) {
    const __m256i x = _mm256_castps_si256(a);
    const __m256i lsb = _mm256_and_si256(_mm256_srli_epi32(x, 16),
                                         _mm256_set1_epi32(1));
    const __m256i rne = _mm256_and_si256(
        _mm256_add_epi32(x, _mm256_add_epi32(_mm256_set1_epi32(0x7fff), lsb)),
        _mm256_set1_epi32(static_cast<int>(0xffff0000u)));
    const __m256i nanv = _mm256_or_si256(
        _mm256_and_si256(x, _mm256_set1_epi32(static_cast<int>(0xffff0000u))),
        _mm256_set1_epi32(0x00400000));
    // NaN detect via unordered FP compare: one op, and it runs on the FP
    // ports while the integer RNE chain occupies the ALU ports.
    const __m256i isnan =
        _mm256_castps_si256(_mm256_cmp_ps(a, a, _CMP_UNORD_Q));
    return _mm256_castsi256_ps(_mm256_blendv_epi8(rne, nanv, isnan));
  }

  /// 8x8 transpose in registers: unpack pairs, shuffle quads, swap halves.
  static void transpose8(V* r) {
    const V t0 = _mm256_unpacklo_ps(r[0], r[1]);
    const V t1 = _mm256_unpackhi_ps(r[0], r[1]);
    const V t2 = _mm256_unpacklo_ps(r[2], r[3]);
    const V t3 = _mm256_unpackhi_ps(r[2], r[3]);
    const V t4 = _mm256_unpacklo_ps(r[4], r[5]);
    const V t5 = _mm256_unpackhi_ps(r[4], r[5]);
    const V t6 = _mm256_unpacklo_ps(r[6], r[7]);
    const V t7 = _mm256_unpackhi_ps(r[6], r[7]);
    const V u0 = _mm256_shuffle_ps(t0, t2, _MM_SHUFFLE(1, 0, 1, 0));
    const V u1 = _mm256_shuffle_ps(t0, t2, _MM_SHUFFLE(3, 2, 3, 2));
    const V u2 = _mm256_shuffle_ps(t1, t3, _MM_SHUFFLE(1, 0, 1, 0));
    const V u3 = _mm256_shuffle_ps(t1, t3, _MM_SHUFFLE(3, 2, 3, 2));
    const V u4 = _mm256_shuffle_ps(t4, t6, _MM_SHUFFLE(1, 0, 1, 0));
    const V u5 = _mm256_shuffle_ps(t4, t6, _MM_SHUFFLE(3, 2, 3, 2));
    const V u6 = _mm256_shuffle_ps(t5, t7, _MM_SHUFFLE(1, 0, 1, 0));
    const V u7 = _mm256_shuffle_ps(t5, t7, _MM_SHUFFLE(3, 2, 3, 2));
    r[0] = _mm256_permute2f128_ps(u0, u4, 0x20);
    r[1] = _mm256_permute2f128_ps(u1, u5, 0x20);
    r[2] = _mm256_permute2f128_ps(u2, u6, 0x20);
    r[3] = _mm256_permute2f128_ps(u3, u7, 0x20);
    r[4] = _mm256_permute2f128_ps(u0, u4, 0x31);
    r[5] = _mm256_permute2f128_ps(u1, u5, 0x31);
    r[6] = _mm256_permute2f128_ps(u2, u6, 0x31);
    r[7] = _mm256_permute2f128_ps(u3, u7, 0x31);
  }

  static V or_(V a, V b) { return _mm256_or_ps(a, b); }

  /// Per-lane mask: all-ones where the lane is inf/NaN (exponent field all
  /// ones), zero otherwise. All-ones is itself a NaN bit pattern, so masks
  /// OR-accumulated across strips collapse to one any_nonfinite call.
  static V nonfinite_mask(V a) {
    const __m256i expo = _mm256_and_si256(_mm256_castps_si256(a),
                                          _mm256_set1_epi32(0x7f800000));
    return _mm256_castsi256_ps(
        _mm256_cmpeq_epi32(expo, _mm256_set1_epi32(0x7f800000)));
  }

  /// True when any lane is inf/NaN (exponent field all ones).
  static bool any_nonfinite(V a) {
    const __m256i expo = _mm256_and_si256(_mm256_castps_si256(a),
                                          _mm256_set1_epi32(0x7f800000));
    const __m256i hit =
        _mm256_cmpeq_epi32(expo, _mm256_set1_epi32(0x7f800000));
    return _mm256_movemask_epi8(hit) != 0;
  }
};

}  // namespace

const VecOps* vec_avx2_ops_table() {
  static const VecOps ops = detail::Kern<Avx2Traits>::table();
  return &ops;
}

}  // namespace hfta::vec

#else  // no AVX2 toolchain support: scalar backend only

namespace hfta::vec {
const VecOps* vec_avx2_ops_table() { return nullptr; }
}  // namespace hfta::vec

#endif
