// Portable SIMD kernel layer with fixed 8-wide virtual-lane semantics.
//
// Every kernel here is defined against a VIRTUAL vector machine: 8 f32 lanes,
// correctly-rounded fma/sqrt/div, fixed partial-sum tree shapes, and fixed
// cache-blocking constants. The AVX2/FMA/F16C backend implements that machine
// with one instruction per op; the scalar backend emulates it lane by lane
// with std::fma / std::sqrt (both correctly rounded, hence bit-identical to
// the hardware instructions). Because lane width, blocking factors, and
// reduction trees are SEMANTIC CONSTANTS — pure functions of the problem
// size, never of ISA availability or thread count — the two backends produce
// memcmp-identical results, which is what keeps the repo's fused-vs-serial /
// replay-vs-eager / any-thread-count 0.00e+00 audits meaningful on top of a
// vectorized build. `HFTA_SIMD=0` (env) or set_simd_enabled(false) forces the
// scalar backend for A/B equality tests.
//
// Dispatch is by function-pointer table chosen once at first use:
// AVX2+FMA+F16C when compiled in AND reported by the CPU AND not disabled,
// scalar otherwise. All entry points take plain pointers, so no vector types
// cross the TU boundary.
//
// Threading: vec::gemm runs each k panel's row blocks through one
// parallel_for, stating a block's work as kMR·kc·n / kLanes vector FMAs, so
// a GEMM whose blocks sum to less than Partition::kWorkFloor runs inline on
// the calling thread. It must NOT be called from inside a parallel body
// without passing `scratch` — see GemmArgs. All other kernels are
// range-based and single-threaded by design: callers keep their own
// Partition loops and call these on [lo, hi) slices.
#pragma once

#include <cstdint>

#include "core/half.h"

namespace hfta::vec {

// -- virtual-machine constants (semantic: changing any of these changes
//    results; see DESIGN.md §11) ----------------------------------------------

/// Virtual vector width in f32 lanes. Reduction strips and tails are defined
/// in terms of this width on every backend.
inline constexpr int kLanes = 8;
/// GEMM microkernel rows (register tile height).
inline constexpr int kMR = 6;
/// GEMM microkernel columns (register tile width: two 8-lane vectors).
inline constexpr int kNR = 16;
/// GEMM k-panel depth (cache blocking). Panels beyond the first reload the
/// fp32 partial C tile — an exact store/reload, so blocking is numerics-free.
inline constexpr int64_t kKC = 256;

// -- backend selection --------------------------------------------------------

/// True when the vectorized backend is active (compiled in + CPU support +
/// not disabled via HFTA_SIMD=0 / set_simd_enabled(false)).
bool simd_active();
/// "avx2" or "scalar" — for bench/JSON reporting.
const char* simd_name();
/// Force the backend at runtime (test hook for in-process A/B equality).
/// Enabling is a no-op when the vectorized backend is unavailable; returns
/// the backend that is actually active afterwards.
bool set_simd_enabled(bool on);
/// True when the AVX2 backend is compiled in and the CPU supports it
/// (regardless of whether it is currently active).
bool simd_available();

// -- packed cache-blocked GEMM ------------------------------------------------

/// C[m,n] = beta_term + alpha * A' @ B', where A' is a (logical, possibly
/// transposed) m x k operand and B' is k x n. Accumulation semantics — the
/// contract every backend implements identically: each C[i,j] is ONE
/// k-ascending chain `acc = fma(alpha*a[i,p], b[p,j], acc)` seeded with
/// beta_term (0 when beta == 0, C[i,j] when beta == 1, beta*C[i,j]
/// otherwise). alpha is folded into the packed A panel (a single rounding,
/// applied identically on every path). a_type/b_type are the operands'
/// quantize policies: kF32 packs verbatim; kF16/kBF16 round each element
/// RNE to the half format and widen it back IN the pack loop — the round
/// trip through the scalar converters in core/half.h is the definition both
/// backends match bit-for-bit — so autocast needs no cast tensors and no
/// separate rounding pass.
///
/// lda/ldb/ldc are the row strides of the stored operands, so a GEMM can
/// read a column block of a wider matrix (one head's q, k or v inside a
/// [S, 3E] projection) and write into one (a head's columns of [S, E]);
/// 0 means dense (the stored row length). Strides only move where each
/// element is read or written: packing reads the same values, so every C
/// element keeps its one chain and its bits. C's columns past n in a
/// strided row are never touched.
struct GemmArgs {
  const float* a = nullptr;  // row-major [m,k], or [k,m] when trans_a
  DType a_type = DType::kF32;
  bool trans_a = false;
  const float* b = nullptr;  // row-major [k,n], or [n,k] when trans_b
  DType b_type = DType::kF32;
  bool trans_b = false;
  float* c = nullptr;  // row-major [m,n]
  int64_t m = 0, n = 0, k = 0;
  int64_t lda = 0, ldb = 0, ldc = 0;
  float alpha = 1.f;
  float beta = 0.f;
  /// Packing scratch of >= gemm_scratch_floats(m,n,k) floats, or nullptr to
  /// acquire one internally from the StoragePool. Callers inside a
  /// parallel_for body MUST pass scratch hoisted on the launching thread
  /// (DESIGN §10): the internal acquisition is only safe at top level.
  float* scratch = nullptr;
};

/// Floats of packing scratch gemm() needs — a pure function of the problem
/// size (A micro-panels + B panels for one k-panel).
int64_t gemm_scratch_floats(int64_t m, int64_t n, int64_t k);

void gemm(const GemmArgs& args);

// -- range kernels (caller keeps its Partition loop) --------------------------

enum class BinOp : uint8_t {
  kAdd = 0,
  kSub,
  kMul,
  kDiv,
  kReluBwd,  // a * ((b > 0) ? 1 : 0) — gy masked by the relu input
};
void binary(BinOp op, const float* a, const float* b, float* o, int64_t n);

enum class UnOp : uint8_t {
  kRelu = 0,   // (x > 0) ? x : 0
  kLeakyRelu,  // (x > 0) ? x : p0*x
  kNeg,
  kAddScalar,  // x + p0
  kMulScalar,  // x * p0
  kClamp,      // min(max(x, p0), p1) with (a<b)?a:b / (a>b)?a:b semantics
};
void unary(UnOp op, float p0, float p1, const float* a, float* o, int64_t n);

/// o[i] += alpha * x[i] (separate mul + add, matching the scalar add_ loop).
void axpy(float alpha, const float* x, float* o, int64_t n);

/// o[i] = v.
void fill(float v, float* o, int64_t n);

/// Per-element Adam update, run by fused::FusedAdam on each model block (the
/// serial nn::Adam is its one-model case). All-float scalars and
/// mul/add/div/sqrt only — no fma — so the vector and scalar paths are
/// identical by IEEE exactness:
///   g  = grad_scale * grad[i] + weight_decay * p[i]
///   m' = beta1 * m[i] + (1 - beta1) * g
///   v' = beta2 * v[i] + (1 - beta2) * g * g
///   p[i] -= step_size * m' / (sqrt(v' * inv_bc2) + eps)
/// grad_scale is AMP's 1/S folded into the step: a single f32 multiply, so
/// the result is bit-identical to unscaling the gradient in memory first
/// (store/reload is the identity) — and when grad_scale == 1 the multiply is
/// skipped entirely, leaving the fp32 expression untouched.
struct AdamArgs {
  float weight_decay, beta1, one_minus_beta1, beta2, one_minus_beta2;
  float step_size, inv_bc2, eps;
  float grad_scale = 1.f;
};
void adam(const AdamArgs& s, float* p, const float* grad, float* m, float* v,
          int64_t n);

/// Per-element SGD(+momentum) update, run by fused::FusedSGD on each model
/// block (nn::SGD is its one-model case; grad_scale as in AdamArgs):
///   g = grad_scale * grad[i] + weight_decay * p[i]
///   if has_momentum: buf[i] = momentum * buf[i] + g; g = buf[i]
///   p[i] -= lr * g
struct SgdArgs {
  float lr, weight_decay, momentum;
  float grad_scale = 1.f;
};
void sgd(const SgdArgs& s, float* p, const float* grad, float* buf /*nullable*/,
         int64_t n);

/// True iff every g[i] * inv_scale is finite — the AMP overflow check as a
/// READ-ONLY scan (grads stay scaled in memory; the optimizer folds 1/S via
/// grad_scale, the same multiply). The verdict is a pure OR over elements:
/// order- and backend-independent.
bool finite_scaled(const float* g, float inv_scale, int64_t n);

// -- row reductions (fixed 8-lane strip + tree semantics) ---------------------
//
// A row of n elements at stride st is processed as ceil(n/8) strips: lane l
// of strip s holds element (s*8 + l). Lane accumulators combine strips
// element-wise; the final cross-lane reduce is the fixed tree
// (0,4)(1,5)(2,6)(3,7) -> (0,2)(1,3) -> (0,1). Dead lanes in the tail strip
// contribute the identity (-inf for max, 0 for sum). The same strip/tree
// shape runs on both backends (and for any st), so results are bit-equal.

/// Tree max of a row; empty rows return -inf.
float row_max(const float* x, int64_t st, int64_t n);

/// Tree sum of exp(x[i]-mx) over a row, using the shared polynomial exp
/// (exp_approx below). When eout != nullptr, also stores each exp(x[i]-mx)
/// to eout (same stride).
float row_sumexp(const float* x, int64_t st, int64_t n, float mx, float* eout);

/// The smallest float above ln(FLT_MIN) = -87.33654475..., so the smallest
/// x whose exp is a normal float; its neighbour below, -87.3365478515625f,
/// already has a subnormal exp.
inline constexpr float kExpUnderflow = -87.33654022216796875f;

/// The polynomial expf every backend uses inside row_sumexp (Cephes-style:
/// clamped range reduction + degree-5 Horner in fma + exponent rebuild).
/// Deterministic and identical across backends; differs from libm expf by a
/// few ulp. Returns exactly +0 for x < kExpUnderflow (-inf included), so it
/// never returns a subnormal; NaN takes the upper clamp's value.
/// Exposed for tests.
float exp_approx(float x);

/// dst[j] (+)= sum_r src[r*cols + j] for j in [0, cols): one ascending-r
/// chain per column (lane), bit-equal to the scalar per-output loop.
void col_sum(const float* src, float* dst, int64_t rows, int64_t cols,
             bool accumulate);

// -- per-channel kernels (one channel per lane) -------------------------------
//
// x (and gy, where an op reads it) is an [N, C, S] view: channel c is N runs
// of S contiguous floats, run n starting at (n * C + c) * S. One call covers
// the channel block [c0, c0 + nc), nc = min(kLanes, C - c0), lane l holding
// channel c0 + l. A lane's reduction is ONE chain from +0 over its channel's
// elements in ascending (n, s) order — the order of a scalar per-channel
// loop and of ops::sum's flat walk — so the lanes run independent chains
// and no sum is reassociated. With S == 1 a position's nc channels are one
// (masked) load; with S > 1 the block's nc rows are loaded eight positions
// at a time and transposed in registers, so vector j of a tile holds
// position s0 + j of every channel. Positions past S are never added;
// channels past C are dead lanes, never stored.

/// One channel block. Lane parameters point at nc floats (lane l reads
/// [l]); an op reads only the ones its comment names.
struct ChannelBlock {
  const float* x = nullptr;   // [N, C, S]
  const float* gy = nullptr;  // [N, C, S]
  float* out = nullptr;       // [N, C, S], written by channel_map
  int64_t N = 0, C = 0, S = 0;
  int64_t c0 = 0;
  const float* mean = nullptr;
  const float* rstd = nullptr;
  const float* weight = nullptr;
  const float* bias = nullptr;
  const float* g_sq = nullptr;  // BatchNorm backward's per-channel factors
  const float* g_s1 = nullptr;
};

/// Channel reductions. Each writes kLanes floats per sum to
/// sums[k * kLanes + l] (dead lanes hold unspecified values). With
/// d = x - mean and gxh = 0 + (0 + gy) * weight:
enum class ChanReduce : uint8_t {
  kSum = 0,   // sums[0] = Σ x
  kSqDev,     // sums[0] = Σ d * d
  kBnGrads,   // Σ gy, Σ (0 + gy) * (d * rstd), Σ gxh * d,
              // Σ -(0 + gxh * rstd)
  kBnGradM1,  // Σ -((0 + t) + t), t = g_sq * d
};
void channel_reduce(ChanReduce op, const ChannelBlock& b, float* sums);

/// Channel elementwise maps into b.out, one vector along s per run (S > 1,
/// lane parameters broadcast) or across the block's channels (S == 1):
enum class ChanMap : uint8_t {
  kBnY = 0,    // ((x - mean) * rstd) * weight + bias
  kBnGxEval,   // g_c2 = 0 + (0 + (0 + gy) * weight) * rstd
  kBnGxTrain,  // ((0 + g_c1) + g_c2) + (0 + g_s1), g_c1 = (0 + t) + t
};
void channel_map(ChanMap op, const ChannelBlock& b);

// -- backend table (internal: implemented by vec_scalar.cpp / vec_avx2.cpp) ---

struct VecOps {
  void (*gemm)(const GemmArgs&, float* scratch);
  void (*binary)(BinOp, const float*, const float*, float*, int64_t);
  void (*unary)(UnOp, float, float, const float*, float*, int64_t);
  void (*axpy)(float, const float*, float*, int64_t);
  void (*fill)(float, float*, int64_t);
  void (*adam)(const AdamArgs&, float*, const float*, float*, float*, int64_t);
  void (*sgd)(const SgdArgs&, float*, const float*, float*, int64_t);
  bool (*finite_scaled)(const float*, float, int64_t);
  float (*row_max)(const float*, int64_t, int64_t);
  float (*row_sumexp)(const float*, int64_t, int64_t, float, float*);
  void (*col_sum)(const float*, float*, int64_t, int64_t, bool);
  void (*channel_reduce)(ChanReduce, const ChannelBlock&, float*);
  void (*channel_map)(ChanMap, const ChannelBlock&);
};

/// Always available.
const VecOps* vec_scalar_ops();
/// Table of the AVX2 backend, or nullptr when it was not compiled in. The
/// caller (vec.cpp) is responsible for the runtime CPU check before use.
const VecOps* vec_avx2_ops_table();

}  // namespace hfta::vec
