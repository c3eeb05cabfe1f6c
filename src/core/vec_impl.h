// Shared kernel bodies for the vec backends, templated over an ISA traits
// struct. vec_scalar.cpp and vec_avx2.cpp both include this header and
// instantiate Kern<> with their own Traits; every algorithm below is written
// ONCE against the 8-lane virtual vector machine (see vec.h), so the two
// backends cannot diverge structurally. The remaining equality obligations
// sit entirely inside the traits:
//
//   * fma / sqrt / div are correctly rounded on both (std::fma & std::sqrt
//     vs vfmadd/vsqrtps) — IEEE pins the result bits.
//   * min/max follow the x86 vminps/vmaxps selection rule ((a<b)?a:b /
//     (a>b)?a:b, NaN in either operand selects b).
//   * the half quantize round trip matches the scalar converters in
//     core/half.h bit-for-bit (the F16C path patches NaN lanes to do so).
//
// Traits interface (V = 8 x f32):
//   zero set1 load store maskload maskstore lanemask select
//   add sub mul div sqrt fma min max neg abs floor scale_pow2
//   tree_add tree_max quantize_f16 quantize_bf16 any_nonfinite
//   transpose8 (in place: lane l of V[j] <-> lane j of V[l]; moves bits only)
#pragma once

#include <algorithm>
#include <cstdint>

#include "core/check.h"
#include "core/parallel.h"
#include "core/storage_pool.h"
#include "core/vec.h"

namespace hfta::vec::detail {

inline int64_t ceil_div(int64_t a, int64_t b) { return (a + b - 1) / b; }

template <class T>
struct Kern {
  using V = typename T::V;

  // -- shared polynomial exp (Cephes-style) ----------------------------------
  // Range-clamped Cody-Waite reduction + degree-5 Horner in fma + exponent
  // rebuild. Every operation is exact or correctly rounded, so lane results
  // are bit-identical across backends (and to vec::exp_approx). Below
  // kExpUnderflow the result is exactly +0, never a subnormal: a masked
  // softmax entry then stays 0 through the 1/z scale instead of stalling
  // every kernel that reads it (see DESIGN.md §12). Those lanes are
  // selected away, so no lower clamp is needed; the ordered compare is
  // false for NaN, and NaN lanes take the upper clamp.
  static inline V vexp(V x) {
    const V under = T::gt(T::set1(kExpUnderflow), x);
    x = T::min(x, T::set1(88.3762626647949f));
    const V fx = T::floor(T::fma(x, T::set1(1.44269504088896341f),
                                 T::set1(0.5f)));
    x = T::sub(x, T::mul(fx, T::set1(0.693359375f)));
    x = T::sub(x, T::mul(fx, T::set1(-2.12194440e-4f)));
    const V z = T::mul(x, x);
    V y = T::set1(1.9875691500e-4f);
    y = T::fma(y, x, T::set1(1.3981999507e-3f));
    y = T::fma(y, x, T::set1(8.3334519073e-3f));
    y = T::fma(y, x, T::set1(4.1665795894e-2f));
    y = T::fma(y, x, T::set1(1.6666665459e-1f));
    y = T::fma(y, x, T::set1(5.0000001201e-1f));
    y = T::fma(y, z, x);
    y = T::add(y, T::set1(1.f));
    return T::select(under, T::zero(), T::scale_pow2(y, fx));
  }

  // ==== packed cache-blocked GEMM ============================================

  // PT is a DType value: 0 = verbatim f32, 1 = quantize through f16,
  // 2 = quantize through bf16.

  /// Vector-quantizes eight lanes (PT 1 = f16 round trip, PT 2 = bf16): the
  /// per-lane composition f16_bits_to_f32(f32_to_f16_bits(x)) (resp. bf16)
  /// of core/half.h, which both backends reproduce bit-for-bit. Dead tail
  /// lanes load 0.0, which quantizes to 0.0 — discarded by the maskstore.
  template <int PT>
  static inline V quantize_v(V v) {
    static_assert(PT == 1 || PT == 2);
    if constexpr (PT == 1)
      return T::quantize_f16(v);
    else
      return T::quantize_bf16(v);
  }
  template <int PT>
  static inline void quantize_strip(const float* src, float* dst, int64_t n) {
    int64_t i = 0;
    for (; i + kLanes <= n; i += kLanes)
      T::store(dst + i, quantize_v<PT>(T::load(src + i)));
    if (i < n)
      T::maskstore(dst + i, n - i,
                   quantize_v<PT>(T::maskload(src + i, n - i)));
  }

  /// Packs all kNR-column panels of the logical B[k0..k0+kc) x [0..n) into
  /// dst: panel jp holds kc rows of kNR contiguous floats (zero-padded past
  /// n). ldb is the stored operand's row stride. Runs on the launching
  /// thread (the panels are shared by every row block).
  template <int PT, bool TB>
  static void pack_b(const float* b, int64_t n, int64_t ldb, int64_t k0,
                     int64_t kc, float* dst) {
    const int64_t nb = ceil_div(n, kNR);
    for (int64_t jp = 0; jp < nb; ++jp) {
      const int64_t j0 = jp * kNR;
      const int64_t jn = std::min<int64_t>(kNR, n - j0);
      float* d = dst + jp * kNR * kc;
      if constexpr (!TB) {
        if (jn == kNR) {
          // Full panel of a row-major [k,n] operand: two vector copies (with
          // in-flight quantization under a quantize policy) per k row.
          for (int64_t p = 0; p < kc; ++p) {
            const float* bp = b + (k0 + p) * ldb + j0;
            if constexpr (PT == 0) {
              T::store(d + p * kNR, T::load(bp));
              T::store(d + p * kNR + kLanes, T::load(bp + kLanes));
            } else {
              T::store(d + p * kNR, quantize_v<PT>(T::load(bp)));
              T::store(d + p * kNR + kLanes,
                       quantize_v<PT>(T::load(bp + kLanes)));
            }
          }
        } else if constexpr (PT != 0) {
          // Partial panel under a quantize policy: quantize vector strips
          // straight from the contiguous row.
          for (int64_t p = 0; p < kc; ++p) {
            const float* bp = b + (k0 + p) * ldb + j0;
            const int64_t j1 = std::min<int64_t>(jn, kLanes);
            T::maskstore(d + p * kNR, j1,
                         quantize_v<PT>(T::maskload(bp, j1)));
            if (jn > kLanes)
              T::maskstore(d + p * kNR + kLanes, jn - kLanes,
                           quantize_v<PT>(T::maskload(bp + kLanes,
                                                      jn - kLanes)));
            for (int64_t j = jn; j < kNR; ++j) d[p * kNR + j] = 0.f;
          }
        } else {
          for (int64_t p = 0; p < kc; ++p) {
            for (int64_t j = 0; j < jn; ++j)
              d[p * kNR + j] = b[(k0 + p) * ldb + j0 + j];
            for (int64_t j = jn; j < kNR; ++j) d[p * kNR + j] = 0.f;
          }
        }
      } else {
        // Transposed operand (row-major [n,k]): column j of the logical B is
        // contiguous in p, so the pack IS the transpose — no materialized
        // transpose-copy scratch anywhere.
        if constexpr (PT != 0) {
          // Quantize each contiguous source column into a stack strip with
          // vector round trips; the strided scatter below is then the same
          // loop the f32 path runs.
          alignas(64) float q[kKC];
          for (int64_t j = 0; j < jn; ++j) {
            quantize_strip<PT>(b + (j0 + j) * ldb + k0, q, kc);
            for (int64_t p = 0; p < kc; ++p) d[p * kNR + j] = q[p];
          }
        } else {
          for (int64_t j = 0; j < jn; ++j)
            for (int64_t p = 0; p < kc; ++p)
              d[p * kNR + j] = b[(j0 + j) * ldb + k0 + p];
        }
        for (int64_t j = jn; j < kNR; ++j)
          for (int64_t p = 0; p < kc; ++p) d[p * kNR + j] = 0.f;
      }
    }
  }

  /// Packs one kMR-row micro-panel of the logical A (rows [i0, i0+ir),
  /// k-range [k0, k0+kc)) into d, folding alpha (one rounding, identical on
  /// every path) and zero-padding past ir. lda is the stored operand's row
  /// stride. Runs inside the row-block parallel body — each block writes
  /// only its own disjoint region.
  template <int PT, bool TA>
  static void pack_a(const float* a, int64_t lda, int64_t i0, int64_t ir,
                     int64_t k0, int64_t kc, float alpha, float* d) {
    if constexpr (PT != 0 && !TA) {
      // Quantize-on-pack: each row's k-strip is contiguous, so quantize it
      // with vector round trips into a stack strip first; the strided
      // scatter below is then identical to the f32 path's.
      alignas(64) float q[kKC];
      for (int64_t r = 0; r < ir; ++r) {
        quantize_strip<PT>(a + (i0 + r) * lda + k0, q, kc);
        for (int64_t p = 0; p < kc; ++p) d[p * kMR + r] = alpha * q[p];
      }
    } else if constexpr (PT != 0 && TA) {
      // Transposed source: the ir rows of one k-slice are contiguous, and
      // ir <= kMR < kLanes, so one masked vector quantizes and scatters
      // each slice (dead lanes load 0.0 and are never stored).
      const V av = T::set1(alpha);
      for (int64_t p = 0; p < kc; ++p) {
        const V v = quantize_v<PT>(T::maskload(a + (k0 + p) * lda + i0, ir));
        T::maskstore(d + p * kMR, ir, T::mul(av, v));
      }
    } else if constexpr (!TA) {
      for (int64_t r = 0; r < ir; ++r)
        for (int64_t p = 0; p < kc; ++p)
          d[p * kMR + r] = alpha * a[(i0 + r) * lda + k0 + p];
    } else {
      for (int64_t p = 0; p < kc; ++p)
        for (int64_t r = 0; r < ir; ++r)
          d[p * kMR + r] = alpha * a[(k0 + p) * lda + i0 + r];
    }
    for (int64_t r = ir; r < kMR; ++r)
      for (int64_t p = 0; p < kc; ++p) d[p * kMR + r] = 0.f;
  }

  // Partial-width load/store of one accumulator vector: `cols` is how many
  // of its kLanes columns are real (<= 0 means none).
  static inline V load_cols(const float* p, int64_t cols) {
    if (cols >= kLanes) return T::load(p);
    if (cols <= 0) return T::zero();
    return T::maskload(p, cols);
  }
  static inline void store_cols(float* p, int64_t cols, V v) {
    if (cols >= kLanes) {
      T::store(p, v);
    } else if (cols > 0) {
      T::maskstore(p, cols, v);
    }
  }

  /// kMR x kNR register-tiled microkernel over one packed A micro-panel and
  /// one packed B panel. Each C element is ONE k-ascending fma chain seeded
  /// with its beta term on the first k-panel and with the stored partial on
  /// later panels (an exact f32 store/reload — blocking is numerics-free).
  static void micro(const float* pa, const float* pb, float* c, int64_t ldc,
                    int64_t kc, int64_t ir, int64_t jn, float beta,
                    bool first_panel) {
    const int64_t c0 = jn;            // real cols in vector 0
    const int64_t c1 = jn - kLanes;   // real cols in vector 1
    // Accumulators as plain locals (never address-taken) so they live in
    // registers through the k loop.
    const auto init = [&](int64_t r, int64_t cols, int64_t off) -> V {
      if (r >= ir) return T::zero();
      if (first_panel && beta == 0.f) return T::zero();
      const V v = load_cols(c + r * ldc + off, cols);
      if (first_panel && beta != 1.f) return T::mul(T::set1(beta), v);
      return v;
    };
    V a0_0 = init(0, c0, 0), a0_1 = init(0, c1, kLanes);
    V a1_0 = init(1, c0, 0), a1_1 = init(1, c1, kLanes);
    V a2_0 = init(2, c0, 0), a2_1 = init(2, c1, kLanes);
    V a3_0 = init(3, c0, 0), a3_1 = init(3, c1, kLanes);
    V a4_0 = init(4, c0, 0), a4_1 = init(4, c1, kLanes);
    V a5_0 = init(5, c0, 0), a5_1 = init(5, c1, kLanes);
    for (int64_t p = 0; p < kc; ++p) {
      const V b0 = T::load(pb + p * kNR);
      const V b1 = T::load(pb + p * kNR + kLanes);
      const float* ap = pa + p * kMR;
      V av;
      av = T::set1(ap[0]);
      a0_0 = T::fma(av, b0, a0_0);
      a0_1 = T::fma(av, b1, a0_1);
      av = T::set1(ap[1]);
      a1_0 = T::fma(av, b0, a1_0);
      a1_1 = T::fma(av, b1, a1_1);
      av = T::set1(ap[2]);
      a2_0 = T::fma(av, b0, a2_0);
      a2_1 = T::fma(av, b1, a2_1);
      av = T::set1(ap[3]);
      a3_0 = T::fma(av, b0, a3_0);
      a3_1 = T::fma(av, b1, a3_1);
      av = T::set1(ap[4]);
      a4_0 = T::fma(av, b0, a4_0);
      a4_1 = T::fma(av, b1, a4_1);
      av = T::set1(ap[5]);
      a5_0 = T::fma(av, b0, a5_0);
      a5_1 = T::fma(av, b1, a5_1);
    }
    const auto emit = [&](int64_t r, V v0, V v1) {
      if (r >= ir) return;
      store_cols(c + r * ldc, c0, v0);
      store_cols(c + r * ldc + kLanes, c1, v1);
    };
    emit(0, a0_0, a0_1);
    emit(1, a1_0, a1_1);
    emit(2, a2_0, a2_1);
    emit(3, a3_0, a3_1);
    emit(4, a4_0, a4_1);
    emit(5, a5_0, a5_1);
  }

  static void pack_b_dispatch(const GemmArgs& g, int64_t ldb, int64_t k0,
                              int64_t kc, float* pb) {
    switch (g.b_type) {
      case DType::kF16:
        g.trans_b ? pack_b<1, true>(g.b, g.n, ldb, k0, kc, pb)
                  : pack_b<1, false>(g.b, g.n, ldb, k0, kc, pb);
        break;
      case DType::kBF16:
        g.trans_b ? pack_b<2, true>(g.b, g.n, ldb, k0, kc, pb)
                  : pack_b<2, false>(g.b, g.n, ldb, k0, kc, pb);
        break;
      default:
        g.trans_b ? pack_b<0, true>(g.b, g.n, ldb, k0, kc, pb)
                  : pack_b<0, false>(g.b, g.n, ldb, k0, kc, pb);
        break;
    }
  }

  static void pack_a_dispatch(const GemmArgs& g, int64_t lda, int64_t i0,
                              int64_t ir, int64_t k0, int64_t kc, float* pa) {
    switch (g.a_type) {
      case DType::kF16:
        g.trans_a ? pack_a<1, true>(g.a, lda, i0, ir, k0, kc, g.alpha, pa)
                  : pack_a<1, false>(g.a, lda, i0, ir, k0, kc, g.alpha, pa);
        break;
      case DType::kBF16:
        g.trans_a ? pack_a<2, true>(g.a, lda, i0, ir, k0, kc, g.alpha, pa)
                  : pack_a<2, false>(g.a, lda, i0, ir, k0, kc, g.alpha, pa);
        break;
      default:
        g.trans_a ? pack_a<0, true>(g.a, lda, i0, ir, k0, kc, g.alpha, pa)
                  : pack_a<0, false>(g.a, lda, i0, ir, k0, kc, g.alpha, pa);
        break;
    }
  }

  static void gemm(const GemmArgs& g, float* scratch) {
    const int64_t m = g.m, n = g.n, k = g.k;
    if (m <= 0 || n <= 0) return;
    // Leading dimensions: 0 means the dense row stride of that operand.
    const int64_t lda = g.lda != 0 ? g.lda : (g.trans_a ? m : k);
    const int64_t ldb = g.ldb != 0 ? g.ldb : (g.trans_b ? k : n);
    const int64_t ldc = g.ldc != 0 ? g.ldc : n;
    if (k <= 0) {
      // Degenerate contraction: C is just its beta term.
      for (int64_t i = 0; i < m; ++i) {
        float* c = g.c + i * ldc;
        if (g.beta == 0.f) {
          for (int64_t j = 0; j < n; ++j) c[j] = 0.f;
        } else if (g.beta != 1.f) {
          for (int64_t j = 0; j < n; ++j) c[j] = g.beta * c[j];
        }
      }
      return;
    }
    const int64_t mb = ceil_div(m, kMR);
    const int64_t nb = ceil_div(n, kNR);
    const int64_t kcp = std::min<int64_t>(k, kKC);
    float* pb = scratch;
    float* pa = scratch + nb * kNR * kcp;
    for (int64_t k0 = 0; k0 < k; k0 += kcp) {
      const int64_t kc = std::min<int64_t>(kcp, k - k0);
      pack_b_dispatch(g, ldb, k0, kc, pb);
      const bool first = (k0 == 0);
      // One row block is kMR x kc x n FMAs, kLanes to a vector FMA.
      parallel_for(Partition::work(mb, kMR * kc * n / kLanes),
                   [&](int64_t lo, int64_t hi) {
        for (int64_t ib = lo; ib < hi; ++ib) {
          const int64_t i0 = ib * kMR;
          const int64_t ir = std::min<int64_t>(kMR, m - i0);
          float* apanel = pa + ib * kMR * kc;
          pack_a_dispatch(g, lda, i0, ir, k0, kc, apanel);
          for (int64_t jp = 0; jp < nb; ++jp) {
            const int64_t jn = std::min<int64_t>(kNR, n - jp * kNR);
            micro(apanel, pb + jp * kNR * kc, g.c + i0 * ldc + jp * kNR, ldc,
                  kc, ir, jn, g.beta, first);
          }
        }
      });
    }
  }

  // ==== range kernels ========================================================

  template <class F>
  static inline void map1(const float* a, float* o, int64_t n, F f) {
    int64_t i = 0;
    for (; i + kLanes <= n; i += kLanes) T::store(o + i, f(T::load(a + i)));
    if (i < n) T::maskstore(o + i, n - i, f(T::maskload(a + i, n - i)));
  }

  template <class F>
  static inline void map2(const float* a, const float* b, float* o, int64_t n,
                          F f) {
    int64_t i = 0;
    for (; i + kLanes <= n; i += kLanes)
      T::store(o + i, f(T::load(a + i), T::load(b + i)));
    if (i < n)
      T::maskstore(o + i, n - i,
                   f(T::maskload(a + i, n - i), T::maskload(b + i, n - i)));
  }

  static void binary(BinOp op, const float* a, const float* b, float* o,
                     int64_t n) {
    switch (op) {
      case BinOp::kAdd:
        map2(a, b, o, n, [](V x, V y) { return T::add(x, y); });
        break;
      case BinOp::kSub:
        map2(a, b, o, n, [](V x, V y) { return T::sub(x, y); });
        break;
      case BinOp::kMul:
        map2(a, b, o, n, [](V x, V y) { return T::mul(x, y); });
        break;
      case BinOp::kDiv:
        map2(a, b, o, n, [](V x, V y) { return T::div(x, y); });
        break;
      case BinOp::kReluBwd:
        // gy * ((x > 0) ? 1 : 0): the mask-then-multiply composition the
        // autograd backward used as two passes, in one pass (signed zeros in
        // gy*0 preserved exactly).
        map2(a, b, o, n, [](V gy, V x) {
          const V one = T::set1(1.f);
          return T::mul(gy, T::select(T::gt(x, T::zero()), one, T::zero()));
        });
        break;
    }
  }

  static void unary(UnOp op, float p0, float p1, const float* a, float* o,
                    int64_t n) {
    switch (op) {
      case UnOp::kRelu:
        map1(a, o, n, [](V x) {
          return T::select(T::gt(x, T::zero()), x, T::zero());
        });
        break;
      case UnOp::kLeakyRelu:
        map1(a, o, n, [p0](V x) {
          const V s = T::set1(p0);
          return T::select(T::gt(x, T::zero()), x, T::mul(s, x));
        });
        break;
      case UnOp::kNeg:
        map1(a, o, n, [](V x) { return T::neg(x); });
        break;
      case UnOp::kAddScalar:
        map1(a, o, n, [p0](V x) { return T::add(x, T::set1(p0)); });
        break;
      case UnOp::kMulScalar:
        map1(a, o, n, [p0](V x) { return T::mul(x, T::set1(p0)); });
        break;
      case UnOp::kClamp:
        map1(a, o, n, [p0, p1](V x) {
          return T::min(T::max(x, T::set1(p0)), T::set1(p1));
        });
        break;
    }
  }

  static void axpy(float alpha, const float* x, float* o, int64_t n) {
    const V av = T::set1(alpha);
    int64_t i = 0;
    for (; i + kLanes <= n; i += kLanes)
      T::store(o + i, T::add(T::load(o + i), T::mul(av, T::load(x + i))));
    if (i < n) {
      const int64_t r = n - i;
      T::maskstore(o + i, r,
                   T::add(T::maskload(o + i, r),
                          T::mul(av, T::maskload(x + i, r))));
    }
  }

  static void fill(float v, float* o, int64_t n) {
    const V vv = T::set1(v);
    int64_t i = 0;
    for (; i + kLanes <= n; i += kLanes) T::store(o + i, vv);
    if (i < n) T::maskstore(o + i, n - i, vv);
  }

  static void adam(const AdamArgs& s, float* p, const float* grad, float* m,
                   float* v, int64_t n) {
    const V wd = T::set1(s.weight_decay), b1 = T::set1(s.beta1),
            omb1 = T::set1(s.one_minus_beta1), b2 = T::set1(s.beta2),
            omb2 = T::set1(s.one_minus_beta2), ss = T::set1(s.step_size),
            ibc2 = T::set1(s.inv_bc2), eps = T::set1(s.eps);
    // grad_scale != 1 is AMP's 1/S: one extra multiply, bit-identical to
    // unscaling the gradient buffer first. The == 1 branch keeps the fp32
    // expression literally unchanged (no multiply by 1.0 inserted).
    const bool scaled = s.grad_scale != 1.f;
    const V gs = T::set1(s.grad_scale);
    // Plain mul/add/div/sqrt only — every op is IEEE-exact, so this is the
    // scalar update verbatim, 8 elements at a time.
    const auto step = [&](V pv, V gv0, V mv, V vv, V* om, V* ov) {
      const V gv = scaled ? T::mul(gs, gv0) : gv0;
      const V g = T::add(gv, T::mul(wd, pv));
      const V mn = T::add(T::mul(b1, mv), T::mul(omb1, g));
      const V vn = T::add(T::mul(b2, vv), T::mul(omb2, T::mul(g, g)));
      *om = mn;
      *ov = vn;
      const V denom = T::add(T::sqrt(T::mul(vn, ibc2)), eps);
      return T::sub(pv, T::div(T::mul(ss, mn), denom));
    };
    int64_t i = 0;
    for (; i + kLanes <= n; i += kLanes) {
      V om, ov;
      const V np = step(T::load(p + i), T::load(grad + i), T::load(m + i),
                        T::load(v + i), &om, &ov);
      T::store(m + i, om);
      T::store(v + i, ov);
      T::store(p + i, np);
    }
    if (i < n) {
      const int64_t r = n - i;
      V om, ov;
      const V np = step(T::maskload(p + i, r), T::maskload(grad + i, r),
                        T::maskload(m + i, r), T::maskload(v + i, r), &om,
                        &ov);
      T::maskstore(m + i, r, om);
      T::maskstore(v + i, r, ov);
      T::maskstore(p + i, r, np);
    }
  }

  static void sgd(const SgdArgs& s, float* p, const float* grad, float* buf,
                  int64_t n) {
    const V wd = T::set1(s.weight_decay), mom = T::set1(s.momentum),
            lr = T::set1(s.lr);
    const bool scaled = s.grad_scale != 1.f;
    const V gs = T::set1(s.grad_scale);
    if (buf != nullptr) {
      const auto step = [&](V pv, V gv0, V bv, V* ob) {
        const V gv = scaled ? T::mul(gs, gv0) : gv0;
        V g = T::add(gv, T::mul(wd, pv));
        const V bn = T::add(T::mul(mom, bv), g);
        *ob = bn;
        return T::sub(pv, T::mul(lr, bn));
      };
      int64_t i = 0;
      for (; i + kLanes <= n; i += kLanes) {
        V ob;
        const V np =
            step(T::load(p + i), T::load(grad + i), T::load(buf + i), &ob);
        T::store(buf + i, ob);
        T::store(p + i, np);
      }
      if (i < n) {
        const int64_t r = n - i;
        V ob;
        const V np = step(T::maskload(p + i, r), T::maskload(grad + i, r),
                          T::maskload(buf + i, r), &ob);
        T::maskstore(buf + i, r, ob);
        T::maskstore(p + i, r, np);
      }
    } else {
      const auto step = [&](V pv, V gv0) {
        const V gv = scaled ? T::mul(gs, gv0) : gv0;
        const V g = T::add(gv, T::mul(wd, pv));
        return T::sub(pv, T::mul(lr, g));
      };
      int64_t i = 0;
      for (; i + kLanes <= n; i += kLanes)
        T::store(p + i, step(T::load(p + i), T::load(grad + i)));
      if (i < n) {
        const int64_t r = n - i;
        T::maskstore(p + i, r,
                     step(T::maskload(p + i, r), T::maskload(grad + i, r)));
      }
    }
  }

  static bool finite_scaled(const float* g, float inv, int64_t n) {
    // Read-only AMP overflow scan. The verdict is "is g[i] * inv finite for
    // every i", but for inv <= 1 the multiply is provably redundant: a
    // finite float times a factor in (0, 1] has real magnitude <= |g[i]| <=
    // FLT_MAX, and round-to-nearest never rounds a value <= FLT_MAX up to
    // inf, while inf/NaN stay non-finite under any positive multiply. The
    // loss scale S >= 1 (so inv = 1/S <= 1) in every non-pathological run;
    // the multiply survives only for the S < 1 tail case. Non-finite lanes
    // are OR-accumulated as a mask vector (all-ones lanes are themselves
    // NaN-patterned, so one any_nonfinite at the end reads the verdict) —
    // no per-strip branch or movemask. Dead tail lanes load 0, which is
    // finite, so they cannot flip the verdict.
    V acc = T::set1(0.f);
    int64_t i = 0;
    if (inv <= 1.f) {
      for (; i + kLanes <= n; i += kLanes)
        acc = T::or_(acc, T::nonfinite_mask(T::load(g + i)));
      if (i < n)
        acc = T::or_(acc, T::nonfinite_mask(T::maskload(g + i, n - i)));
    } else {
      const V iv = T::set1(inv);
      for (; i + kLanes <= n; i += kLanes)
        acc = T::or_(acc, T::nonfinite_mask(T::mul(iv, T::load(g + i))));
      if (i < n)
        acc = T::or_(acc,
                     T::nonfinite_mask(T::mul(iv, T::maskload(g + i, n - i))));
    }
    return !T::any_nonfinite(acc);
  }

  // ==== row reductions (st == 1; strided rows live in vec.cpp) ==============

  static float row_max(const float* x, int64_t st, int64_t n) {
    (void)st;  // == 1 (dispatch routes strided rows elsewhere)
    V acc = T::set1(-kInf);
    int64_t i = 0;
    for (; i + kLanes <= n; i += kLanes) acc = T::max(acc, T::load(x + i));
    if (i < n) {
      const int64_t r = n - i;
      const V tail = T::select(T::lanemask(r), T::maskload(x + i, r),
                               T::set1(-kInf));
      acc = T::max(acc, tail);
    }
    return T::tree_max(acc);
  }

  static float row_sumexp(const float* x, int64_t st, int64_t n, float mx,
                          float* eout) {
    (void)st;  // == 1
    const V mxv = T::set1(mx);
    V acc = T::zero();
    int64_t i = 0;
    for (; i + kLanes <= n; i += kLanes) {
      const V e = vexp(T::sub(T::load(x + i), mxv));
      if (eout != nullptr) T::store(eout + i, e);
      acc = T::add(acc, e);
    }
    if (i < n) {
      const int64_t r = n - i;
      V e = vexp(T::sub(T::maskload(x + i, r), mxv));
      e = T::select(T::lanemask(r), e, T::zero());
      if (eout != nullptr) T::maskstore(eout + i, r, e);
      acc = T::add(acc, e);
    }
    return T::tree_add(acc);
  }

  static void col_sum(const float* src, float* dst, int64_t rows, int64_t cols,
                      bool accumulate) {
    int64_t j = 0;
    for (; j + kLanes <= cols; j += kLanes) {
      V acc = accumulate ? T::load(dst + j) : T::zero();
      for (int64_t r = 0; r < rows; ++r)
        acc = T::add(acc, T::load(src + r * cols + j));
      T::store(dst + j, acc);
    }
    if (j < cols) {
      const int64_t rem = cols - j;
      V acc = accumulate ? T::maskload(dst + j, rem) : T::zero();
      for (int64_t r = 0; r < rows; ++r)
        acc = T::add(acc, T::maskload(src + r * cols + j, rem));
      T::maskstore(dst + j, rem, acc);
    }
  }

  // ==== per-channel kernels (one channel per lane; see vec.h) ================

  static inline int64_t lanes_of(const ChannelBlock& b) {
    return std::min<int64_t>(kLanes, b.C - b.c0);
  }

  /// Rows c0..c0+nc of run n at positions [s0, s0 + rem), transposed: lane
  /// l of t[j] is channel c0 + l at position s0 + j. Dead rows load 0.
  static inline void load_tile(const ChannelBlock& b, const float* x, int64_t n,
                               int64_t s0, int64_t rem, int64_t nc, V* t) {
    const float* row = x + (n * b.C + b.c0) * b.S + s0;
    for (int64_t l = 0; l < kLanes; ++l)
      t[l] = l < nc ? load_cols(row + l * b.S, rem) : T::zero();
    T::transpose8(t);
  }

  /// Calls f(x, gy) once per position of block b, in ascending (n, s), lane
  /// l holding channel c0 + l; gy is read only when GY (zero otherwise).
  template <bool GY, class F>
  static inline void visit(const ChannelBlock& b, F f) {
    const int64_t nc = lanes_of(b);
    if (b.S == 1) {
      for (int64_t n = 0; n < b.N; ++n) {
        const int64_t off = n * b.C + b.c0;
        f(load_cols(b.x + off, nc),
          GY ? load_cols(b.gy + off, nc) : T::zero());
      }
      return;
    }
    V xt[kLanes], gt[kLanes];
    for (int64_t n = 0; n < b.N; ++n) {
      for (int64_t s0 = 0; s0 < b.S; s0 += kLanes) {
        const int64_t rem = std::min<int64_t>(kLanes, b.S - s0);
        load_tile(b, b.x, n, s0, rem, nc, xt);
        if constexpr (GY) load_tile(b, b.gy, n, s0, rem, nc, gt);
        for (int64_t j = 0; j < rem; ++j)
          f(xt[j], GY ? gt[j] : T::zero());
      }
    }
  }

  /// A lane parameter as a vector (lane l = p[l]; dead lanes 0).
  static inline V lanes_param(const float* p, int64_t nc) {
    return p != nullptr ? load_cols(p, nc) : T::zero();
  }

  static void channel_reduce(ChanReduce op, const ChannelBlock& b,
                             float* sums) {
    const int64_t nc = lanes_of(b);
    const V z = T::zero();
    const V m = lanes_param(b.mean, nc);
    switch (op) {
      case ChanReduce::kSum: {
        V acc = z;
        visit<false>(b, [&](V x, V) { acc = T::add(acc, x); });
        T::store(sums, acc);
        break;
      }
      case ChanReduce::kSqDev: {
        V acc = z;
        visit<false>(b, [&](V x, V) {
          const V d = T::sub(x, m);
          acc = T::add(acc, T::mul(d, d));
        });
        T::store(sums, acc);
        break;
      }
      case ChanReduce::kBnGrads: {
        const V r = lanes_param(b.rstd, nc);
        const V w = lanes_param(b.weight, nc);
        V gb = z, gw = z, gr = z, gm2 = z;
        visit<true>(b, [&](V x, V g) {
          const V d = T::sub(x, m);
          const V gt = T::add(z, g);
          const V gxh = T::add(z, T::mul(gt, w));
          gb = T::add(gb, g);
          gw = T::add(gw, T::mul(gt, T::mul(d, r)));
          gr = T::add(gr, T::mul(gxh, d));
          gm2 = T::add(gm2, T::neg(T::add(z, T::mul(gxh, r))));
        });
        T::store(sums, gb);
        T::store(sums + kLanes, gw);
        T::store(sums + 2 * kLanes, gr);
        T::store(sums + 3 * kLanes, gm2);
        break;
      }
      case ChanReduce::kBnGradM1: {
        const V gsq = lanes_param(b.g_sq, nc);
        V acc = z;
        visit<false>(b, [&](V x, V) {
          const V t = T::mul(gsq, T::sub(x, m));
          acc = T::add(acc, T::neg(T::add(T::add(z, t), t)));
        });
        T::store(sums, acc);
        break;
      }
    }
  }

  // Lane parameters of a map, as vectors.
  struct MapParams {
    V m, r, w, b, gsq, gs1;
  };

  /// out = f(p, x, gy) over block b: across the block's channels when
  /// S == 1, else along each channel's runs with its parameters broadcast.
  template <bool GY, class F>
  static inline void map_block(const ChannelBlock& b, F f) {
    const int64_t nc = lanes_of(b);
    const V z = T::zero();
    if (b.S == 1) {
      const MapParams p{lanes_param(b.mean, nc),   lanes_param(b.rstd, nc),
                        lanes_param(b.weight, nc), lanes_param(b.bias, nc),
                        lanes_param(b.g_sq, nc),   lanes_param(b.g_s1, nc)};
      for (int64_t n = 0; n < b.N; ++n) {
        const int64_t off = n * b.C + b.c0;
        store_cols(b.out + off, nc,
                   f(p, load_cols(b.x + off, nc),
                     GY ? load_cols(b.gy + off, nc) : z));
      }
      return;
    }
    const int64_t S = b.S;
    for (int64_t l = 0; l < nc; ++l) {
      const auto bc = [l](const float* q) {
        return q != nullptr ? T::set1(q[l]) : T::zero();
      };
      const MapParams p{bc(b.mean), bc(b.rstd), bc(b.weight),
                        bc(b.bias), bc(b.g_sq), bc(b.g_s1)};
      for (int64_t n = 0; n < b.N; ++n) {
        const int64_t base = (n * b.C + b.c0 + l) * S;
        const float* x = b.x + base;
        const float* g = GY ? b.gy + base : nullptr;
        float* o = b.out + base;
        int64_t s = 0;
        for (; s + kLanes <= S; s += kLanes)
          T::store(o + s, f(p, T::load(x + s), GY ? T::load(g + s) : z));
        if (s < S)
          T::maskstore(o + s, S - s,
                       f(p, T::maskload(x + s, S - s),
                         GY ? T::maskload(g + s, S - s) : z));
      }
    }
  }

  static void channel_map(ChanMap op, const ChannelBlock& b) {
    const V z = T::zero();
    // BatchNorm's g_c2 = 0 + (0 + (0 + gy) * w) * r.
    const auto g_c2 = [z](const MapParams& p, V g) {
      return T::add(z, T::mul(T::add(z, T::mul(T::add(z, g), p.w)), p.r));
    };
    switch (op) {
      case ChanMap::kBnY:
        map_block<false>(b, [](const MapParams& p, V x, V) {
          return T::add(T::mul(T::mul(T::sub(x, p.m), p.r), p.w), p.b);
        });
        break;
      case ChanMap::kBnGxEval:
        map_block<true>(b, [&](const MapParams& p, V, V g) {
          return g_c2(p, g);
        });
        break;
      case ChanMap::kBnGxTrain:
        map_block<true>(b, [&](const MapParams& p, V x, V g) {
          const V t = T::mul(p.gsq, T::sub(x, p.m));
          const V g_c1 = T::add(T::add(z, t), t);
          return T::add(T::add(T::add(z, g_c1), g_c2(p, g)),
                        T::add(z, p.gs1));
        });
        break;
    }
  }

  static constexpr float kInf = __builtin_huge_valf();

  /// A VecOps table of this instantiation's kernels.
  static VecOps table() {
    VecOps o{};
    o.gemm = &Kern::gemm;
    o.binary = &Kern::binary;
    o.unary = &Kern::unary;
    o.axpy = &Kern::axpy;
    o.fill = &Kern::fill;
    o.adam = &Kern::adam;
    o.sgd = &Kern::sgd;
    o.finite_scaled = &Kern::finite_scaled;
    o.row_max = &Kern::row_max;
    o.row_sumexp = &Kern::row_sumexp;
    o.col_sum = &Kern::col_sum;
    o.channel_reduce = &Kern::channel_reduce;
    o.channel_map = &Kern::channel_map;
    return o;
  }
};

}  // namespace hfta::vec::detail
