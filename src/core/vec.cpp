// Backend dispatch for the vec layer, plus the strided-row reduction
// fallbacks and the scalar reference exp.
//
// Backend choice is made once (first use): the AVX2 table when it was
// compiled in, the CPU reports avx2+fma+f16c, and HFTA_SIMD is not "0";
// the scalar table otherwise. set_simd_enabled() overrides at runtime for
// in-process A/B equality tests. This TU is compiled with baseline flags, so
// the CPU check itself never executes a vector instruction.
#include "core/vec.h"

#include <atomic>
#include <cmath>
#include <cstdlib>

#include "core/half.h"
#include "core/storage_pool.h"

namespace hfta::vec {

namespace {

const VecOps* pick_backend() {
  const VecOps* avx2 = vec_avx2_ops_table();
  if (avx2 == nullptr) return vec_scalar_ops();
#if defined(__x86_64__) || defined(__i386__)
  if (!__builtin_cpu_supports("avx2") || !__builtin_cpu_supports("fma") ||
      !__builtin_cpu_supports("f16c"))
    return vec_scalar_ops();
#else
  return vec_scalar_ops();
#endif
  const char* env = std::getenv("HFTA_SIMD");
  if (env != nullptr && env[0] == '0') return vec_scalar_ops();
  return avx2;
}

const VecOps* detected() {
  static const VecOps* backend = pick_backend();  // thread-safe magic static
  return backend;
}

std::atomic<const VecOps*> g_override{nullptr};

inline const VecOps* active() {
  const VecOps* o = g_override.load(std::memory_order_relaxed);
  return o != nullptr ? o : detected();
}

}  // namespace

bool simd_available() {
  const VecOps* avx2 = vec_avx2_ops_table();
  if (avx2 == nullptr) return false;
#if defined(__x86_64__) || defined(__i386__)
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma") &&
         __builtin_cpu_supports("f16c");
#else
  return false;
#endif
}

bool simd_active() { return active() != vec_scalar_ops(); }

const char* simd_name() { return simd_active() ? "avx2" : "scalar"; }

bool set_simd_enabled(bool on) {
  if (!on) {
    g_override.store(vec_scalar_ops(), std::memory_order_relaxed);
  } else if (simd_available()) {
    g_override.store(vec_avx2_ops_table(), std::memory_order_relaxed);
  } else {
    g_override.store(vec_scalar_ops(), std::memory_order_relaxed);
  }
  return simd_active();
}

// -- gemm ---------------------------------------------------------------------

int64_t gemm_scratch_floats(int64_t m, int64_t n, int64_t k) {
  if (m <= 0 || n <= 0 || k <= 0) return 0;
  const int64_t mb = (m + kMR - 1) / kMR;
  const int64_t nb = (n + kNR - 1) / kNR;
  const int64_t kcp = k < kKC ? k : kKC;
  return mb * kMR * kcp + nb * kNR * kcp;
}

void gemm(const GemmArgs& args) {
  if (args.scratch != nullptr) {
    active()->gemm(args, args.scratch);
    return;
  }
  // Top-level call: acquire packing scratch here (the launching thread),
  // never inside a parallel body (DESIGN §10).
  PooledBuffer buf(gemm_scratch_floats(args.m, args.n, args.k));
  active()->gemm(args, buf.data());
}

// -- range kernels ------------------------------------------------------------

void binary(BinOp op, const float* a, const float* b, float* o, int64_t n) {
  active()->binary(op, a, b, o, n);
}
void unary(UnOp op, float p0, float p1, const float* a, float* o, int64_t n) {
  active()->unary(op, p0, p1, a, o, n);
}
void axpy(float alpha, const float* x, float* o, int64_t n) {
  active()->axpy(alpha, x, o, n);
}
void fill(float v, float* o, int64_t n) { active()->fill(v, o, n); }
void adam(const AdamArgs& s, float* p, const float* grad, float* m, float* v,
          int64_t n) {
  active()->adam(s, p, grad, m, v, n);
}
void sgd(const SgdArgs& s, float* p, const float* grad, float* buf,
         int64_t n) {
  active()->sgd(s, p, grad, buf, n);
}
bool finite_scaled(const float* g, float inv_scale, int64_t n) {
  return active()->finite_scaled(g, inv_scale, n);
}
void col_sum(const float* src, float* dst, int64_t rows, int64_t cols,
             bool accumulate) {
  active()->col_sum(src, dst, rows, cols, accumulate);
}
void channel_reduce(ChanReduce op, const ChannelBlock& b, float* sums) {
  active()->channel_reduce(op, b, sums);
}
void channel_map(ChanMap op, const ChannelBlock& b) {
  active()->channel_map(op, b);
}

// -- shared reference exp + strided-row fallbacks -----------------------------
// Strided rows (softmax over a non-innermost dim) use this single compiled
// copy on every backend: the same virtual-lane strip/tree algorithm, lane by
// lane. Correctly-rounded fma/floor and exact selection rules make it
// deterministic — and exp_approx is, by the same argument, bit-identical to
// the vectorized vexp in vec_impl.h (vec_test asserts this).

float exp_approx(float x) {
  if (x < kExpUnderflow) return 0.f;  // exact +0, as vexp
  x = x < 88.3762626647949f ? x : 88.3762626647949f;
  const float fx = std::floor(std::fma(x, 1.44269504088896341f, 0.5f));
  x = x - fx * 0.693359375f;
  x = x - fx * -2.12194440e-4f;
  const float z = x * x;
  float y = 1.9875691500e-4f;
  y = std::fma(y, x, 1.3981999507e-3f);
  y = std::fma(y, x, 8.3334519073e-3f);
  y = std::fma(y, x, 4.1665795894e-2f);
  y = std::fma(y, x, 1.6666665459e-1f);
  y = std::fma(y, x, 5.0000001201e-1f);
  y = std::fma(y, z, x);
  y = y + 1.f;
  const int32_t k = static_cast<int32_t>(fx);
  return y * bits_f32(static_cast<uint32_t>(k + 127) << 23);
}

namespace {

constexpr float kInf = __builtin_huge_valf();

float strided_row_max(const float* x, int64_t st, int64_t n) {
  float acc[kLanes];
  for (int l = 0; l < kLanes; ++l) acc[l] = -kInf;
  const auto mx = [](float a, float b) { return a > b ? a : b; };
  int64_t i = 0;
  for (; i + kLanes <= n; i += kLanes)
    for (int l = 0; l < kLanes; ++l) acc[l] = mx(acc[l], x[(i + l) * st]);
  if (i < n) {
    const int64_t rem = n - i;
    for (int l = 0; l < kLanes; ++l)
      acc[l] = mx(acc[l], l < rem ? x[(i + l) * st] : -kInf);
  }
  const float t0 = mx(acc[0], acc[4]), t1 = mx(acc[1], acc[5]);
  const float t2 = mx(acc[2], acc[6]), t3 = mx(acc[3], acc[7]);
  return mx(mx(t0, t2), mx(t1, t3));
}

float strided_row_sumexp(const float* x, int64_t st, int64_t n, float mxv,
                         float* eout) {
  float acc[kLanes] = {0.f, 0.f, 0.f, 0.f, 0.f, 0.f, 0.f, 0.f};
  int64_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    for (int l = 0; l < kLanes; ++l) {
      const float e = exp_approx(x[(i + l) * st] - mxv);
      if (eout != nullptr) eout[(i + l) * st] = e;
      acc[l] = acc[l] + e;
    }
  }
  if (i < n) {
    const int64_t rem = n - i;
    for (int l = 0; l < kLanes; ++l) {
      const float e =
          l < rem ? exp_approx(x[(i + l) * st] - mxv) : 0.f;
      if (eout != nullptr && l < rem) eout[(i + l) * st] = e;
      acc[l] = acc[l] + e;
    }
  }
  const float t0 = acc[0] + acc[4], t1 = acc[1] + acc[5];
  const float t2 = acc[2] + acc[6], t3 = acc[3] + acc[7];
  return (t0 + t2) + (t1 + t3);
}

}  // namespace

float row_max(const float* x, int64_t st, int64_t n) {
  if (n <= 0) return -kInf;
  if (st != 1) return strided_row_max(x, st, n);
  return active()->row_max(x, 1, n);
}

float row_sumexp(const float* x, int64_t st, int64_t n, float mx,
                 float* eout) {
  if (n <= 0) return 0.f;
  if (st != 1) return strided_row_sumexp(x, st, n, mx, eout);
  return active()->row_sumexp(x, 1, n, mx, eout);
}

}  // namespace hfta::vec
