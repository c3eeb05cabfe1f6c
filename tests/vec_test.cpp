// SIMD-vs-forced-scalar equality for the vec kernel layer (DESIGN §11).
//
// Every kernel in src/core/vec.h promises *bit-identical* output between the
// AVX2 backend and the scalar virtual-lane emulation. These tests force each
// backend in turn via vec::set_simd_enabled and memcmp the raw bytes — no
// tolerances anywhere. When the host (or build) lacks AVX2+FMA+F16C the
// SIMD-vs-scalar comparisons are vacuous and GTEST_SKIP.
//
// The quantize tests additionally pin both backends' quantizing pack paths
// to the RNE reference converters in core/half.h: all 65536 half patterns
// exhaustively, plus property-tested rounding of hand-built halfway cases.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "core/half.h"
#include "core/vec.h"

namespace hfta {
namespace {

// Restores SIMD dispatch no matter how a test exits.
struct SimdGuard {
  ~SimdGuard() { vec::set_simd_enabled(true); }
};

// Deterministic value stream (self-contained; not hfta::Rng so the test's
// inputs can never drift with library changes). Mixes magnitudes and signs.
struct Lcg {
  uint64_t s = 0x243F6A8885A308D3ull;
  uint32_t next_u32() {
    s = s * 6364136223846793005ull + 1442695040888963407ull;
    return static_cast<uint32_t>(s >> 32);
  }
  float next() {
    // [-4, 4) with an occasional exact zero / negative zero.
    const uint32_t u = next_u32();
    if ((u & 0xff) == 0) return 0.f;
    if ((u & 0xff) == 1) return -0.f;
    return (static_cast<float>(u) / 4294967296.0f - 0.5f) * 8.f;
  }
  std::vector<float> vec(int64_t n) {
    std::vector<float> v(static_cast<size_t>(n));
    for (auto& x : v) x = next();
    return v;
  }
};

bool bits_equal(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

#define REQUIRE_SIMD()                                             \
  if (!vec::simd_available())                                      \
  GTEST_SKIP() << "no AVX2/FMA/F16C backend in this build/host"

// Runs `fn` once per backend and returns the two outputs for comparison.
template <typename Fn>
std::pair<std::vector<float>, std::vector<float>> both_backends(
    int64_t out_n, Fn&& fn) {
  SimdGuard guard;
  std::vector<float> simd(static_cast<size_t>(out_n));
  std::vector<float> scalar(static_cast<size_t>(out_n));
  vec::set_simd_enabled(true);
  fn(simd.data());
  vec::set_simd_enabled(false);
  fn(scalar.data());
  return {std::move(simd), std::move(scalar)};
}

// ---- GEMM -------------------------------------------------------------------

void check_gemm(int64_t m, int64_t n, int64_t k, bool ta, bool tb, float alpha,
                float beta) {
  Lcg rng;
  const auto a = rng.vec(m * k);
  const auto b = rng.vec(k * n);
  const auto c0 = rng.vec(m * n);  // pre-existing C for beta != 0
  auto [simd, scalar] = both_backends(m * n, [&](float* c) {
    std::memcpy(c, c0.data(), c0.size() * sizeof(float));
    vec::GemmArgs g;
    g.a = a.data();
    g.trans_a = ta;
    g.b = b.data();
    g.trans_b = tb;
    g.c = c;
    g.m = m;
    g.n = n;
    g.k = k;
    g.alpha = alpha;
    g.beta = beta;
    vec::gemm(g);
  });
  EXPECT_TRUE(bits_equal(simd, scalar))
      << "gemm m=" << m << " n=" << n << " k=" << k << " ta=" << ta
      << " tb=" << tb << " alpha=" << alpha << " beta=" << beta;
}

TEST(VecGemm, SimdMatchesScalarBitwiseAcrossOddShapes) {
  REQUIRE_SIMD();
  // Deliberately awkward sizes: non-multiples of the 8-lane width and of the
  // 6x16 microkernel, K=1, N narrower than one lane, M smaller than kMR,
  // and one shape crossing the kKC=256 k-blocking boundary.
  const int64_t shapes[][3] = {
      {1, 1, 1},  {1, 3, 1},   {5, 7, 3},   {6, 16, 8},  {7, 17, 9},
      {13, 5, 1}, {3, 31, 33}, {23, 19, 17}, {40, 48, 300},
  };
  for (const auto& s : shapes)
    for (bool ta : {false, true})
      for (bool tb : {false, true})
        check_gemm(s[0], s[1], s[2], ta, tb, 1.f, 0.f);
}

TEST(VecGemm, AlphaBetaVariantsMatchBitwise) {
  REQUIRE_SIMD();
  for (float alpha : {1.f, 0.5f, -1.25f})
    for (float beta : {0.f, 1.f, 0.75f}) {
      check_gemm(7, 17, 9, false, false, alpha, beta);
      check_gemm(13, 11, 5, true, true, alpha, beta);
    }
}

TEST(VecGemm, QuantizeOnPackEqualsPreRoundedPackBitwise) {
  REQUIRE_SIMD();
  // The kF16/kBF16 quantize policy's promise: rounding operands inside the
  // pack loop is bit-identical to packing copies rounded elementwise first
  // (autocast's definition; DESIGN S11/S12). A carries inf/NaN in two
  // different rows to pin the canonical-NaN blend; B stays finite, so no fma
  // chain meets two NaN operands (whose propagation order IEEE leaves open).
  const int64_t m = 11, n = 19, k = 23;
  Lcg rng;
  auto af = rng.vec(m * k);
  const auto bf = rng.vec(k * n);
  af[0] = std::numeric_limits<float>::infinity();
  af[2 * k + 3] = -std::numeric_limits<float>::quiet_NaN();
  const std::pair<DType, float (*)(float)> kinds[] = {
      {DType::kF16,
       [](float x) { return f16_bits_to_f32(f32_to_f16_bits(x)); }},
      {DType::kBF16,
       [](float x) { return bf16_bits_to_f32(f32_to_bf16_bits(x)); }},
  };
  for (const auto& [qt, round] : kinds) {
    std::vector<float> ar(af.size()), br(bf.size());
    for (size_t i = 0; i < af.size(); ++i) ar[i] = round(af[i]);
    for (size_t i = 0; i < bf.size(); ++i) br[i] = round(bf[i]);
    for (bool ta : {false, true})
      for (bool tb : {false, true}) {
        auto run = [&](const float* a, DType at, const float* b, DType bt,
                       float* c) {
          vec::GemmArgs g;
          g.a = a;
          g.a_type = at;
          g.trans_a = ta;
          g.b = b;
          g.b_type = bt;
          g.trans_b = tb;
          g.c = c;
          g.m = m;
          g.n = n;
          g.k = k;
          vec::gemm(g);
        };
        const DType f32 = DType::kF32;
        // Quantize-on-pack == pre-rounded pack, per backend; and the
        // quantized path itself is SIMD-vs-scalar bit-identical.
        auto [q_simd, q_scalar] = both_backends(m * n, [&](float* c) {
          run(af.data(), qt, bf.data(), qt, c);
        });
        auto [r_simd, r_scalar] = both_backends(m * n, [&](float* c) {
          run(ar.data(), f32, br.data(), f32, c);
        });
        EXPECT_TRUE(bits_equal(q_simd, r_simd))
            << "simd q-pack vs rounded pack=" << static_cast<int>(qt)
            << " ta=" << ta << " tb=" << tb;
        EXPECT_TRUE(bits_equal(q_scalar, r_scalar))
            << "scalar q-pack vs rounded pack=" << static_cast<int>(qt)
            << " ta=" << ta << " tb=" << tb;
        EXPECT_TRUE(bits_equal(q_simd, q_scalar))
            << "q-pack simd vs scalar pack=" << static_cast<int>(qt)
            << " ta=" << ta << " tb=" << tb;
        // Mixed policy: quantize one operand only.
        auto [x_simd, x_scalar] = both_backends(m * n, [&](float* c) {
          run(af.data(), f32, bf.data(), qt, c);
        });
        auto [y_simd, y_scalar] = both_backends(m * n, [&](float* c) {
          run(af.data(), f32, br.data(), f32, c);
        });
        EXPECT_TRUE(bits_equal(x_simd, y_simd) &&
                    bits_equal(x_scalar, y_scalar) &&
                    bits_equal(x_simd, x_scalar))
            << "mixed-policy pack=" << static_cast<int>(qt) << " ta=" << ta
            << " tb=" << tb;
      }
  }
}

TEST(VecGemm, LeadingDimensionsEqualDenseGemmOnPackedCopiesBitwise) {
  // lda/ldb/ldc only move where elements are read and written: a GEMM over
  // blocks of wider stored matrices equals the dense GEMM on packed copies
  // of those blocks, bit for bit, and never touches C's columns [n, ldc).
  // m and n are not multiples of kMR/kNR, and k > kKC spans two k-panels.
  // The padding holds NaN, so any element read from it would show in C.
  SimdGuard guard;
  const int64_t m = 13, n = 21, k = vec::kKC + 44, pad = 5;
  const float sentinel = std::nanf("0xdead");
  // Stores a rows x cols block into rows of `ld` floats, NaN-padded.
  const auto strided = [&](const std::vector<float>& dense, int64_t rows,
                           int64_t cols, int64_t ld) {
    std::vector<float> out(static_cast<size_t>(rows * ld), sentinel);
    for (int64_t r = 0; r < rows; ++r)
      std::memcpy(out.data() + r * ld, dense.data() + r * cols,
                  static_cast<size_t>(cols) * sizeof(float));
    return out;
  };
  Lcg rng;
  const auto c0 = rng.vec(m * n);  // pre-existing C for beta != 0
  const int64_t ldc = n + pad;
  for (bool simd : {true, false}) {
    if (simd && !vec::simd_available()) continue;
    vec::set_simd_enabled(simd);
    for (DType pt : {DType::kF32, DType::kF16, DType::kBF16})
      for (bool ta : {false, true})
        for (bool tb : {false, true})
          for (float beta : {0.f, 0.75f}) {
            const int64_t a_cols = ta ? m : k, a_rows = ta ? k : m;
            const int64_t b_cols = tb ? k : n, b_rows = tb ? n : k;
            const auto a = rng.vec(a_rows * a_cols);
            const auto b = rng.vec(b_rows * b_cols);
            const auto as = strided(a, a_rows, a_cols, a_cols + pad);
            const auto bs = strided(b, b_rows, b_cols, b_cols + pad);
            std::vector<float> c = c0;
            std::vector<float> cs = strided(c0, m, n, ldc);
            vec::GemmArgs g;
            g.a_type = pt;
            g.trans_a = ta;
            g.b_type = pt;
            g.trans_b = tb;
            g.m = m;
            g.n = n;
            g.k = k;
            g.alpha = -1.25f;
            g.beta = beta;
            g.a = a.data();
            g.b = b.data();
            g.c = c.data();
            vec::gemm(g);
            g.a = as.data();
            g.lda = a_cols + pad;
            g.b = bs.data();
            g.ldb = b_cols + pad;
            g.c = cs.data();
            g.ldc = ldc;
            vec::gemm(g);
            EXPECT_TRUE(bits_equal(strided(c, m, n, ldc), cs))
                << "backend=" << (simd ? "simd" : "scalar")
                << " policy=" << static_cast<int>(pt) << " ta=" << ta
                << " tb=" << tb << " beta=" << beta;
          }
    // The k = 0 path writes only C's first n columns of each row too.
    for (float beta : {0.f, 0.75f}) {
      std::vector<float> c = c0;
      std::vector<float> cs = strided(c0, m, n, ldc);
      vec::GemmArgs g;
      g.m = m;
      g.n = n;
      g.beta = beta;
      g.c = c.data();
      vec::gemm(g);
      g.c = cs.data();
      g.ldc = ldc;
      vec::gemm(g);
      EXPECT_TRUE(bits_equal(strided(c, m, n, ldc), cs))
          << "k=0 backend=" << (simd ? "simd" : "scalar") << " beta=" << beta;
    }
  }
}

// ---- elementwise ------------------------------------------------------------

TEST(VecElementwise, BinaryOpsMatchBitwise) {
  REQUIRE_SIMD();
  using vec::BinOp;
  for (int64_t n : {1, 7, 8, 9, 63, 64, 65, 1000}) {
    Lcg rng;
    auto a = rng.vec(n);
    auto b = rng.vec(n);
    if (n >= 8) {
      a[2] = std::nanf("");  // NaN propagation must agree lane-for-lane
      b[5] = std::nanf("");
    }
    for (BinOp op : {BinOp::kAdd, BinOp::kSub, BinOp::kMul, BinOp::kDiv,
                     BinOp::kReluBwd}) {
      auto [simd, scalar] = both_backends(n, [&](float* o) {
        vec::binary(op, a.data(), b.data(), o, n);
      });
      EXPECT_TRUE(bits_equal(simd, scalar))
          << "binary op=" << static_cast<int>(op) << " n=" << n;
    }
  }
}

TEST(VecElementwise, UnaryOpsAxpyFillMatchBitwise) {
  REQUIRE_SIMD();
  using vec::UnOp;
  for (int64_t n : {1, 5, 8, 17, 257}) {
    Lcg rng;
    const auto a = rng.vec(n);
    struct Case {
      UnOp op;
      float p0, p1;
    } cases[] = {
        {UnOp::kRelu, 0.f, 0.f},       {UnOp::kLeakyRelu, 0.01f, 0.f},
        {UnOp::kNeg, 0.f, 0.f},        {UnOp::kAddScalar, 1.5f, 0.f},
        {UnOp::kMulScalar, -0.75f, 0.f}, {UnOp::kClamp, -1.f, 2.f},
    };
    for (const auto& c : cases) {
      auto [simd, scalar] = both_backends(n, [&](float* o) {
        vec::unary(c.op, c.p0, c.p1, a.data(), o, n);
      });
      EXPECT_TRUE(bits_equal(simd, scalar))
          << "unary op=" << static_cast<int>(c.op) << " n=" << n;
    }
    const auto x = rng.vec(n);
    auto [s1, s2] = both_backends(n, [&](float* o) {
      std::memcpy(o, a.data(), a.size() * sizeof(float));
      vec::axpy(0.3f, x.data(), o, n);
    });
    EXPECT_TRUE(bits_equal(s1, s2)) << "axpy n=" << n;
    auto [f1, f2] =
        both_backends(n, [&](float* o) { vec::fill(3.25f, o, n); });
    EXPECT_TRUE(bits_equal(f1, f2)) << "fill n=" << n;
  }
}

// ---- optimizers -------------------------------------------------------------

TEST(VecOptim, AdamAndSgdMatchBitwise) {
  REQUIRE_SIMD();
  for (int64_t n : {1, 6, 8, 19, 130}) {
    Lcg rng;
    const auto p0 = rng.vec(n);
    const auto g = rng.vec(n);
    const auto m0 = rng.vec(n);
    const auto v0 = [&] {  // v must be non-negative (it is a running E[g^2])
      auto v = rng.vec(n);
      for (auto& x : v) x = std::fabs(x);
      return v;
    }();
    vec::AdamArgs aa;
    aa.weight_decay = 0.01f;
    aa.beta1 = 0.9f;
    aa.one_minus_beta1 = 1.f - 0.9f;
    aa.beta2 = 0.999f;
    aa.one_minus_beta2 = 1.f - 0.999f;
    aa.step_size = 1e-3f / 0.19f;
    aa.inv_bc2 = 1.f / 0.361f;
    aa.eps = 1e-8f;
    auto [a1, a2] = both_backends(3 * n, [&](float* out) {
      std::vector<float> p = p0, m = m0, v = v0;
      vec::adam(aa, p.data(), g.data(), m.data(), v.data(), n);
      std::memcpy(out, p.data(), p.size() * sizeof(float));
      std::memcpy(out + n, m.data(), m.size() * sizeof(float));
      std::memcpy(out + 2 * n, v.data(), v.size() * sizeof(float));
    });
    EXPECT_TRUE(bits_equal(a1, a2)) << "adam n=" << n;

    vec::SgdArgs sa;
    sa.lr = 0.1f;
    sa.weight_decay = 0.001f;
    sa.momentum = 0.9f;
    auto [s1, s2] = both_backends(2 * n, [&](float* out) {
      std::vector<float> p = p0, buf = m0;
      vec::sgd(sa, p.data(), g.data(), buf.data(), n);
      std::memcpy(out, p.data(), p.size() * sizeof(float));
      std::memcpy(out + n, buf.data(), buf.size() * sizeof(float));
    });
    EXPECT_TRUE(bits_equal(s1, s2)) << "sgd+momentum n=" << n;
    sa.momentum = 0.f;
    auto [t1, t2] = both_backends(n, [&](float* out) {
      std::vector<float> p = p0;
      vec::sgd(sa, p.data(), g.data(), nullptr, n);
      std::memcpy(out, p.data(), p.size() * sizeof(float));
    });
    EXPECT_TRUE(bits_equal(t1, t2)) << "plain sgd n=" << n;
  }
}

TEST(VecOptim, GradScaleFoldingEqualsPreUnscaledGradsBitwise) {
  REQUIRE_SIMD();
  // The AMP contract: stepping on grads scaled by S with grad_scale = 1/S
  // must be bit-identical to stepping on pre-unscaled grads with
  // grad_scale = 1 (S a power of two, so the unscale multiply is an exact
  // exponent shift). Checked per backend, and SIMD-vs-scalar.
  const float S = 4096.f;
  for (int64_t n : {1, 8, 19, 130}) {
    Lcg rng;
    const auto p0 = rng.vec(n);
    const auto g = rng.vec(n);  // the "true" (unscaled) gradient
    const auto m0 = rng.vec(n);
    const auto v0 = [&] {
      auto v = rng.vec(n);
      for (auto& x : v) x = std::fabs(x);
      return v;
    }();
    std::vector<float> gs = g;  // the scaled gradient, as backward leaves it
    for (auto& x : gs) x *= S;

    vec::AdamArgs aa;
    aa.weight_decay = 0.01f;
    aa.beta1 = 0.9f;
    aa.one_minus_beta1 = 1.f - 0.9f;
    aa.beta2 = 0.999f;
    aa.one_minus_beta2 = 1.f - 0.999f;
    aa.step_size = 1e-3f / 0.19f;
    aa.inv_bc2 = 1.f / 0.361f;
    aa.eps = 1e-8f;
    auto adam_run = [&](const float* grad, float scale, float* out) {
      std::vector<float> p = p0, m = m0, v = v0;
      vec::AdamArgs a = aa;
      a.grad_scale = scale;
      vec::adam(a, p.data(), grad, m.data(), v.data(), n);
      std::memcpy(out, p.data(), p.size() * sizeof(float));
      std::memcpy(out + n, m.data(), m.size() * sizeof(float));
      std::memcpy(out + 2 * n, v.data(), v.size() * sizeof(float));
    };
    auto [af1, af2] = both_backends(
        3 * n, [&](float* out) { adam_run(gs.data(), 1.f / S, out); });
    auto [au1, au2] =
        both_backends(3 * n, [&](float* out) { adam_run(g.data(), 1.f, out); });
    EXPECT_TRUE(bits_equal(af1, au1) && bits_equal(af2, au2) &&
                bits_equal(af1, af2))
        << "adam grad_scale n=" << n;

    vec::SgdArgs sa;
    sa.lr = 0.1f;
    sa.weight_decay = 0.001f;
    for (float mom : {0.9f, 0.f}) {
      sa.momentum = mom;
      auto sgd_run = [&](const float* grad, float scale, float* out) {
        std::vector<float> p = p0, buf = m0;
        vec::SgdArgs s = sa;
        s.grad_scale = scale;
        vec::sgd(s, p.data(), grad, mom != 0.f ? buf.data() : nullptr, n);
        std::memcpy(out, p.data(), p.size() * sizeof(float));
        std::memcpy(out + n, buf.data(), buf.size() * sizeof(float));
      };
      auto [sf1, sf2] = both_backends(
          2 * n, [&](float* out) { sgd_run(gs.data(), 1.f / S, out); });
      auto [su1, su2] = both_backends(
          2 * n, [&](float* out) { sgd_run(g.data(), 1.f, out); });
      EXPECT_TRUE(bits_equal(sf1, su1) && bits_equal(sf2, su2) &&
                  bits_equal(sf1, sf2))
          << "sgd grad_scale momentum=" << mom << " n=" << n;
    }
  }
}

TEST(VecFinite, FiniteScaledVerdictMatchesScalarAndReference) {
  REQUIRE_SIMD();
  SimdGuard guard;
  const auto verdict = [](const std::vector<float>& g, float inv) {
    vec::set_simd_enabled(true);
    const bool simd = vec::finite_scaled(g.data(), inv, g.size());
    vec::set_simd_enabled(false);
    const bool scalar = vec::finite_scaled(g.data(), inv, g.size());
    EXPECT_EQ(simd, scalar) << "backend disagreement n=" << g.size();
    return simd;
  };
  for (int64_t n : {1, 7, 8, 9, 64, 130}) {
    Lcg rng;
    auto g = rng.vec(n);
    EXPECT_TRUE(verdict(g, 1.f / 65536.f)) << "clean n=" << n;
    // Inject a non-finite at every position class: head, interior, and the
    // masked tail — the dead tail lanes must never flip a verdict, and a
    // live tail lane must.
    for (int64_t at : {int64_t{0}, n / 2, n - 1}) {
      auto bad = g;
      bad[static_cast<size_t>(at)] = std::numeric_limits<float>::infinity();
      EXPECT_FALSE(verdict(bad, 1.f / 65536.f)) << "inf at " << at;
      bad[static_cast<size_t>(at)] = std::numeric_limits<float>::quiet_NaN();
      EXPECT_FALSE(verdict(bad, 1.f / 65536.f)) << "nan at " << at;
    }
    // A finite-but-huge grad whose *scaled* value overflows must trip the
    // verdict too (1/S can be > 1 after backoff grows back past 1).
    auto huge = g;
    huge[0] = 3e38f;
    EXPECT_TRUE(verdict(huge, 1.f));
    EXPECT_FALSE(verdict(huge, 16.f)) << "scaled overflow missed";
  }
}

// ---- reductions -------------------------------------------------------------

TEST(VecReduce, RowMaxRowSumexpColSumMatchBitwise) {
  REQUIRE_SIMD();
  for (int64_t n : {1, 3, 7, 8, 9, 33, 100}) {
    Lcg rng;
    const auto x = rng.vec(n * 4);
    for (int64_t st : {int64_t{1}, int64_t{4}}) {
      auto [m1, m2] = both_backends(2, [&](float* out) {
        out[0] = vec::row_max(x.data(), st, n);
        std::vector<float> e(static_cast<size_t>((n - 1) * st + 1));
        out[1] = vec::row_sumexp(x.data(), st, n, out[0], e.data());
      });
      EXPECT_TRUE(bits_equal(m1, m2)) << "row max/sumexp n=" << n
                                      << " st=" << st;
      // exp lanes themselves must also agree bitwise (st==1 path).
      if (st == 1) {
        auto [e1, e2] = both_backends(n, [&](float* out) {
          const float mx = vec::row_max(x.data(), 1, n);
          vec::row_sumexp(x.data(), 1, n, mx, out);
        });
        EXPECT_TRUE(bits_equal(e1, e2)) << "sumexp lanes n=" << n;
      }
    }
  }
  for (int64_t rows : {1, 5, 32})
    for (int64_t cols : {1, 7, 8, 9, 40}) {
      Lcg rng;
      const auto src = rng.vec(rows * cols);
      const auto init = rng.vec(cols);
      for (bool acc : {false, true}) {
        auto [c1, c2] = both_backends(cols, [&](float* out) {
          std::memcpy(out, init.data(), init.size() * sizeof(float));
          vec::col_sum(src.data(), out, rows, cols, acc);
        });
        EXPECT_TRUE(bits_equal(c1, c2))
            << "col_sum rows=" << rows << " cols=" << cols << " acc=" << acc;
      }
    }
}

// ---- per-channel kernels ----------------------------------------------------

// The channel kernels on both backends, over every channel block of [N, C, S]
// views with partial blocks (C % 8 != 0) and partial position tiles
// (S % 8 != 0). Channel 0 is constant (its deviations are exact zeros),
// channel 1 holds only +0 and -0, and every third gy is zero, so signed
// zeros reach every "0 +" and every product. Reductions are compared on
// their live lanes; maps on the whole output, which starts as a NaN
// sentinel so a write outside the block shows too.
TEST(VecChannel, ChannelReduceAndMapMatchBitwiseAcrossTails) {
  REQUIRE_SIMD();
  using vec::ChanMap;
  using vec::ChanReduce;
  const float sentinel = std::numeric_limits<float>::quiet_NaN();
  for (int64_t N : {1, 3})
    for (int64_t C : {1, 7, 8, 9, 17})
      for (int64_t S : {1, 3, 8, 13, 16}) {
        Lcg rng;
        const int64_t numel = N * C * S;
        auto x = rng.vec(numel);
        auto gy = rng.vec(numel);
        for (int64_t n = 0; n < N; ++n)
          for (int64_t s = 0; s < S; ++s) {
            x[static_cast<size_t>(n * C * S + s)] = 0.75f;
            if (C > 1)
              x[static_cast<size_t>((n * C + 1) * S + s)] =
                  (n + s) % 2 == 0 ? 0.f : -0.f;
          }
        for (int64_t i = 0; i < numel; i += 3) gy[static_cast<size_t>(i)] = 0.f;
        const auto mean = rng.vec(C), rstd = rng.vec(C), weight = rng.vec(C),
                   bias = rng.vec(C), g_sq = rng.vec(C), g_s1 = rng.vec(C);
        for (int64_t c0 = 0; c0 < C; c0 += vec::kLanes) {
          const int64_t nc = std::min<int64_t>(vec::kLanes, C - c0);
          vec::ChannelBlock b;
          b.x = x.data();
          b.gy = gy.data();
          b.N = N;
          b.C = C;
          b.S = S;
          b.c0 = c0;
          b.mean = mean.data() + c0;
          b.rstd = rstd.data() + c0;
          b.weight = weight.data() + c0;
          b.bias = bias.data() + c0;
          b.g_sq = g_sq.data() + c0;
          b.g_s1 = g_s1.data() + c0;
          const std::string where = "N=" + std::to_string(N) +
                                    " C=" + std::to_string(C) +
                                    " S=" + std::to_string(S) +
                                    " c0=" + std::to_string(c0);
          for (ChanReduce op : {ChanReduce::kSum, ChanReduce::kSqDev,
                                ChanReduce::kBnGrads, ChanReduce::kBnGradM1}) {
            const int64_t k = op == ChanReduce::kBnGrads ? 4 : 1;
            auto [simd, scalar] = both_backends(k * nc, [&](float* o) {
              float sums[4 * vec::kLanes];
              vec::channel_reduce(op, b, sums);
              for (int64_t j = 0; j < k; ++j)
                std::memcpy(o + j * nc, sums + j * vec::kLanes,
                            static_cast<size_t>(nc) * sizeof(float));
            });
            EXPECT_TRUE(bits_equal(simd, scalar))
                << "channel_reduce op=" << static_cast<int>(op) << " "
                << where;
          }
          for (ChanMap op :
               {ChanMap::kBnY, ChanMap::kBnGxEval, ChanMap::kBnGxTrain}) {
            auto [simd, scalar] = both_backends(numel, [&](float* o) {
              std::fill(o, o + numel, sentinel);
              vec::ChannelBlock mb = b;
              mb.out = o;
              vec::channel_map(op, mb);
            });
            EXPECT_TRUE(bits_equal(simd, scalar))
                << "channel_map op=" << static_cast<int>(op) << " " << where;
            for (int64_t n = 0; n < N; ++n)
              for (int64_t c = 0; c < C; ++c) {
                const bool in_block = c >= c0 && c < c0 + nc;
                const float v = simd[static_cast<size_t>((n * C + c) * S)];
                EXPECT_EQ(std::isnan(v), !in_block)
                    << "channel_map op=" << static_cast<int>(op) << " "
                    << where << " n=" << n << " c=" << c;
              }
          }
        }
      }
}

// ---- quantize round trip ----------------------------------------------------

// Inputs that exercise every rounding regime: all 65536 half patterns
// widened (each must survive the round trip exactly), ties hand-built to
// land halfway between representable halves, overflow/underflow, NaN
// payloads.
std::vector<float> quantize_inputs(bool f16) {
  std::vector<float> in;
  in.reserve(70000);
  for (uint32_t i = 0; i < 65536; ++i) {
    const uint16_t h = static_cast<uint16_t>(i);
    in.push_back(f16 ? f16_bits_to_f32(h) : bf16_bits_to_f32(h));
  }
  Lcg rng;
  for (int i = 0; i < 2000; ++i) {
    // Raw random f32 bit patterns: denormals, huge values, NaN payloads.
    in.push_back(bits_f32(rng.next_u32()));
    in.push_back(rng.next() * 70000.f);  // overflow territory for f16
  }
  // Exact ties: midpoint between consecutive representable values must
  // round to even on every path.
  for (float base : {1.f, 3.f, 100.f, 0.0001f, -7.f}) {
    const uint16_t h = f16 ? f32_to_f16_bits(base) : f32_to_bf16_bits(base);
    const float lo = f16 ? f16_bits_to_f32(h) : bf16_bits_to_f32(h);
    const float hi = f16 ? f16_bits_to_f32(static_cast<uint16_t>(h + 1))
                         : bf16_bits_to_f32(static_cast<uint16_t>(h + 1));
    in.push_back(lo + (hi - lo) * 0.5f);
  }
  in.push_back(0.f);
  in.push_back(-0.f);
  in.push_back(std::numeric_limits<float>::infinity());
  in.push_back(-std::numeric_limits<float>::infinity());
  in.push_back(std::nanf(""));
  return in;
}

TEST(VecQuantize, PackMatchesScalarRoundTripOnEveryHalfPattern) {
  // Each input goes through every quantizing pack path — A or B, plain or
  // transposed — as a 1-wide GEMM operand against an exact 1.0, with C
  // seeded -0.0 and beta = 1: fma(q, 1, -0) == q for every q, signed zeros
  // and NaN payloads included, so C holds the packed values themselves.
  // Both backends must reproduce the core/half.h round trip bit for bit.
  // Runs even without AVX2 — then it pins the scalar backend.
  SimdGuard guard;
  const float one = 1.f;
  for (bool f16 : {true, false}) {
    const DType pt = f16 ? DType::kF16 : DType::kBF16;
    const auto in = quantize_inputs(f16);
    const int64_t n = static_cast<int64_t>(in.size());
    std::vector<float> ref(in.size());
    for (size_t i = 0; i < in.size(); ++i)
      ref[i] = f16 ? f16_bits_to_f32(f32_to_f16_bits(in[i]))
                   : bf16_bits_to_f32(f32_to_bf16_bits(in[i]));
    for (bool simd : {true, false}) {
      if (simd && !vec::simd_available()) continue;
      vec::set_simd_enabled(simd);
      for (bool on_a : {true, false})
        for (bool trans : {false, true}) {
          std::vector<float> c(in.size(), -0.f);
          vec::GemmArgs g;
          if (on_a) {
            g.a = in.data();
            g.a_type = pt;
            g.trans_a = trans;
            g.b = &one;
            g.m = n;
            g.n = 1;
          } else {
            g.a = &one;
            g.b = in.data();
            g.b_type = pt;
            g.trans_b = trans;
            g.m = 1;
            g.n = n;
          }
          g.k = 1;
          g.beta = 1.f;
          g.c = c.data();
          vec::gemm(g);
          EXPECT_EQ(std::memcmp(c.data(), ref.data(), c.size() * sizeof(float)),
                    0)
              << (f16 ? "f16" : "bf16") << " backend="
              << (simd ? "simd" : "scalar") << " operand=" << (on_a ? "a" : "b")
              << " trans=" << trans;
        }
    }
  }
}

TEST(VecQuantize, ScalarConverterRneProperties) {
  // Property checks on the half.h reference itself (both vec backends'
  // quantizing packs are pinned to it above, so these properties transfer
  // to the kernels).
  // 1) Round-trip: every finite f16 narrows back to its own bits.
  for (uint32_t i = 0; i < 65536; ++i) {
    const uint16_t h = static_cast<uint16_t>(i);
    const float f = f16_bits_to_f32(h);
    if (std::isnan(f)) continue;  // NaNs canonicalize; bits need not survive
    EXPECT_EQ(f32_to_f16_bits(f), h) << "f16 pattern " << i;
  }
  for (uint32_t i = 0; i < 65536; ++i) {
    const uint16_t h = static_cast<uint16_t>(i);
    const float f = bf16_bits_to_f32(h);
    if (std::isnan(f)) continue;
    EXPECT_EQ(f32_to_bf16_bits(f), h) << "bf16 pattern " << i;
  }
  // 2) Ties round to even mantissa.
  for (float base : {1.f, 2.f, 5.f, 1024.f}) {
    const uint16_t h = f32_to_f16_bits(base);
    const float lo = f16_bits_to_f32(h);
    const float hi = f16_bits_to_f32(static_cast<uint16_t>(h + 1));
    const uint16_t tie = f32_to_f16_bits(lo + (hi - lo) * 0.5f);
    EXPECT_EQ(tie & 1u, 0u) << "f16 tie near " << base << " not even";
  }
  // 3) Overflow saturates to infinity; NaN stays NaN.
  EXPECT_EQ(f32_to_f16_bits(1e6f), 0x7c00);
  EXPECT_EQ(f32_to_f16_bits(-1e6f), 0xfc00);
  EXPECT_TRUE(std::isnan(f16_bits_to_f32(f32_to_f16_bits(std::nanf("")))));
  EXPECT_TRUE(std::isnan(bf16_bits_to_f32(f32_to_bf16_bits(std::nanf("")))));
}

// ---- exp --------------------------------------------------------------------

TEST(VecExp, ExpApproxMatchesVectorizedExpBitwise) {
  REQUIRE_SIMD();
  // row_sumexp writes exp(x - mx) through the backend's vexp; with mx = 0 the
  // lanes are exactly vexp(x). The scalar backend runs vec::exp_approx's op
  // sequence per lane — outputs must agree bitwise across the full clamp
  // range and beyond it, down to the causal mask's -1e9 and -inf.
  std::vector<float> x;
  for (float v = -100.f; v <= 100.f; v += 0.0625f) x.push_back(v);
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float lo = vec::kExpUnderflow;
  for (float v : {0.f, -0.f, lo, std::nextafter(lo, 0.f),
                  std::nextafter(lo, -inf), -103.98f, -1e4f, -1e9f, -3.4e38f,
                  -inf, inf, nan, -nan})
    x.push_back(v);
  const int64_t n = static_cast<int64_t>(x.size());
  auto [e1, e2] = both_backends(n, [&](float* out) {
    vec::row_sumexp(x.data(), 1, n, 0.f, out);
  });
  EXPECT_TRUE(bits_equal(e1, e2));
  // And the free function agrees with the scalar backend's lanes.
  vec::set_simd_enabled(false);
  std::vector<float> lanes(static_cast<size_t>(n));
  vec::row_sumexp(x.data(), 1, n, 0.f, lanes.data());
  vec::set_simd_enabled(true);
  // NaN never compares below the underflow bound: it keeps the upper
  // clamp's result, as it did before the underflow rule.
  const uint32_t nan_bits = f32_bits(vec::exp_approx(88.3762626647949f));
  for (int64_t i = 0; i < n; ++i) {
    const size_t ui = static_cast<size_t>(i);
    const float xi = x[ui];
    EXPECT_EQ(f32_bits(lanes[ui]), f32_bits(vec::exp_approx(xi))) << "x=" << xi;
    if (std::isnan(xi)) {
      EXPECT_EQ(f32_bits(e1[ui]), nan_bits) << "x=" << xi;
    } else if (xi < lo) {
      // Underflow is exactly +0 on both backends, never FLT_MIN or a
      // subnormal.
      EXPECT_EQ(f32_bits(e1[ui]), 0u) << "x=" << xi;
      EXPECT_EQ(f32_bits(e2[ui]), 0u) << "x=" << xi;
    } else {
      EXPECT_EQ(std::fpclassify(e1[ui]), FP_NORMAL) << "x=" << xi;
    }
  }
}

}  // namespace
}  // namespace hfta
