#include "tensor/matmul.h"

#include <algorithm>
#include <cmath>

#include "core/parallel.h"
#include "core/storage_pool.h"
#include "core/vec.h"
#include "tensor/ops.h"

namespace hfta::ops {

// Every GEMM in the repo — matmul (plain, transposed or batched), the
// attention GEMMs, and the raw gemm the conv kernels drive — lowers onto
// the ONE packed cache-blocked kernel in core/vec: transposes are absorbed
// by the packing (no materialized transpose-copies anywhere), and each output
// element is a single k-ascending fma chain seeded with its beta term. The
// plain layers reduce through exactly the same kernel as their fused
// counterparts, which is what keeps fused training bit-equal to the B
// serial runs (integration_test) — previously that took two hand-matched
// scalar kernels (gemm_nn / gemm_nt); now it is true by construction.
//
// An operand with a quantize policy (qa/qb) is rounded RNE to the half
// format inside the pack loop: the AMP path runs with no cast tensors and
// no separate rounding pass at all, while still accumulating in f32.

void gemm(const float* a, const float* b, float* c, int64_t m, int64_t n,
          int64_t k, bool trans_a, bool trans_b, float alpha, float beta,
          float* scratch, DType qa, DType qb) {
  vec::GemmArgs g;
  g.a = a;
  g.a_type = qa;
  g.trans_a = trans_a;
  g.b = b;
  g.b_type = qb;
  g.trans_b = trans_b;
  g.c = c;
  g.m = m;
  g.n = n;
  g.k = k;
  g.alpha = alpha;
  g.beta = beta;
  g.scratch = scratch;
  vec::gemm(g);
}

int64_t gemm_scratch_floats(int64_t m, int64_t n, int64_t k) {
  return vec::gemm_scratch_floats(m, n, k);
}

Tensor matmul(const Tensor& a, const Tensor& b, bool ta, bool tb, DType qa,
              DType qb, const Tensor& out) {
  const bool batched = a.dim() == 3;
  HFTA_CHECK((a.dim() == 2 || batched) && b.dim() == a.dim() &&
                 (!batched || a.size(0) == b.size(0)),
             "matmul: ", shape_str(a.shape()), " @ ", shape_str(b.shape()));
  const int64_t B = batched ? a.size(0) : 1;
  const int64_t m = ta ? a.size(-1) : a.size(-2);
  const int64_t ka = ta ? a.size(-2) : a.size(-1);
  const int64_t kb = tb ? b.size(-1) : b.size(-2);
  const int64_t n = tb ? b.size(-2) : b.size(-1);
  HFTA_CHECK(ka == kb, "matmul: inner dim mismatch ", ka, " vs ", kb, " in ",
             shape_str(a.shape()), " @ ", shape_str(b.shape()));
  Tensor c = Tensor::empty_or(out, batched ? Shape{B, m, n} : Shape{m, n});
  // One packing-scratch slot per partition chunk, acquired HERE on the
  // launching thread (DESIGN §10): entries within a chunk run serially and
  // reuse their chunk's slot, so the slab size is a pure function of the
  // problem size and warm-pool state cannot depend on scheduling. The
  // packed-panel path absorbs both transposes.
  const Partition part = Partition::rows(B);
  const int64_t slot = vec::gemm_scratch_floats(m, n, ka);
  PooledBuffer scratch(part.num_chunks() * slot);
  float* ps = scratch.data();
  const float* pa = a.data();
  const float* pb = b.data();
  float* pc = c.data();
  vec::GemmArgs g;
  g.a_type = qa;
  g.trans_a = ta;
  g.b_type = qb;
  g.trans_b = tb;
  g.m = m;
  g.n = n;
  g.k = ka;
  // Parallel across batch entries; a chunk's GEMMs run inline when called
  // from the pool (no nested parallelism). One entry is one chunk, which
  // parallel_for runs inline without entering a parallel region, so a
  // rank-2 GEMM partitions its own row blocks.
  parallel_for(part, [&](int64_t lo, int64_t hi) {
    vec::GemmArgs gi = g;
    gi.scratch = ps + part.chunk_index(lo) * slot;
    for (int64_t i = lo; i < hi; ++i) {
      gi.a = pa + i * m * ka;
      gi.b = pb + i * ka * n;
      gi.c = pc + i * m * n;
      vec::gemm(gi);
    }
  });
  return c;
}

namespace {
// One GEMM of the attention kernels: C = A'·B' over [m, k] x [k, n] operands
// read, and a C written, through their leading dimensions.
void head_gemm(const float* a, int64_t lda, bool ta, DType qa, const float* b,
               int64_t ldb, bool tb, DType qb, float* c, int64_t ldc,
               int64_t m, int64_t n, int64_t k, float* scratch) {
  vec::GemmArgs g;
  g.a = a;
  g.lda = lda;
  g.trans_a = ta;
  g.a_type = qa;
  g.b = b;
  g.ldb = ldb;
  g.trans_b = tb;
  g.b_type = qb;
  g.c = c;
  g.ldc = ldc;
  g.m = m;
  g.n = n;
  g.k = k;
  g.scratch = scratch;
  vec::gemm(g);
}

// The shape of an attention problem: R sequences of S positions, E = H*Dh.
struct AttentionDims {
  int64_t R, S, E, H, Dh;

  AttentionDims(const Tensor& qkv, int64_t heads) {
    HFTA_CHECK(qkv.dim() >= 2 && heads > 0 && qkv.size(-1) % (3 * heads) == 0,
               "attention: qkv ", shape_str(qkv.shape()),
               " is not [..., S, 3E] with E divisible by ", heads, " heads");
    S = qkv.size(-2);
    E = qkv.size(-1) / 3;
    R = qkv.numel() / (S * 3 * E);
    H = heads;
    Dh = E / H;
  }
  // The context's shape: qkv's, with E columns instead of 3E.
  Shape ctx_shape(const Tensor& qkv) const {
    Shape s = qkv.shape();
    s.back() = E;
    return s;
  }
  // Per-chunk GEMM packing scratch: every attention GEMM is S x S x Dh or
  // S x Dh x S.
  int64_t gemm_slot() const {
    return std::max(vec::gemm_scratch_floats(S, S, Dh),
                    vec::gemm_scratch_floats(S, Dh, S));
  }
  float scale() const { return 1.f / std::sqrt(static_cast<float>(Dh)); }
};
}  // namespace

Tensor attention_forward(const Tensor& qkv, int64_t heads, const Tensor& mask,
                         Tensor& probs, DType q, const Tensor& out) {
  const AttentionDims d(qkv, heads);
  const int64_t S = d.S, E = d.E, H = d.H, Dh = d.Dh;
  HFTA_CHECK(probs.shape() == (Shape{d.R * H, S, S}), "attention: probs ",
             shape_str(probs.shape()), " for ", shape_str(qkv.shape()));
  HFTA_CHECK(!mask.defined() || mask.shape() == (Shape{S, S}),
             "attention mask must be [S, S], got ", shape_str(mask.shape()));
  Tensor ctx = Tensor::empty_or(out, d.ctx_shape(qkv));
  const float scale = d.scale();
  // GEMM scratch hoisted on the launching thread, one slot per chunk
  // (DESIGN §10), as in matmul.
  const Partition part = Partition::rows(d.R * H);
  const int64_t slot = d.gemm_slot();
  PooledBuffer scratch(part.num_chunks() * slot);
  float* ps = scratch.data();
  const float* px = qkv.data();
  const float* pm = mask.defined() ? mask.data() : nullptr;
  float* pp = probs.data();
  float* pc = ctx.data();
  parallel_for(part, [&](int64_t lo, int64_t hi) {
    float* ws = ps + part.chunk_index(lo) * slot;
    for (int64_t i = lo; i < hi; ++i) {
      const int64_t r = i / H, h = i % H;
      const float* qh = px + r * S * 3 * E + h * Dh;
      const float* kh = qh + E;
      const float* vh = qh + 2 * E;
      float* p = pp + i * S * S;
      head_gemm(qh, 3 * E, false, q, kh, 3 * E, true, q, p, S, S, S, Dh, ws);
      for (int64_t s = 0; s < S; ++s) {
        float* row = p + s * S;
        vec::unary(vec::UnOp::kMulScalar, scale, 0.f, row, row, S);
        if (pm != nullptr)
          vec::binary(vec::BinOp::kAdd, row, pm + s * S, row, S);
        softmax_row(row, row, S, 1);
      }
      head_gemm(p, S, false, q, vh, 3 * E, false, q, pc + r * S * E + h * Dh,
                E, S, Dh, S, ws);
    }
  });
  return ctx;
}

Tensor attention_backward(const Tensor& gctx, const Tensor& qkv,
                          const Tensor& probs, int64_t heads, DType q,
                          const Tensor& score_grad) {
  const AttentionDims d(qkv, heads);
  const int64_t S = d.S, E = d.E, H = d.H, Dh = d.Dh;
  const Shape probs_shape = {d.R * H, S, S};
  HFTA_CHECK(gctx.shape() == d.ctx_shape(qkv) &&
                 probs.shape() == probs_shape &&
                 (!score_grad.defined() || score_grad.shape() == probs_shape),
             "attention_backward: gctx ", shape_str(gctx.shape()), ", probs ",
             shape_str(probs.shape()), " for ", shape_str(qkv.shape()));
  // Every element is written by exactly one GEMM (dq, dk or dv of one
  // head), so there is no zero-fill and no scatter (DESIGN §2).
  Tensor gqkv = Tensor::empty(qkv.shape());
  const float scale = d.scale();
  // Per chunk: the score gradient of one head, then GEMM scratch.
  const Partition part = Partition::rows(d.R * H);
  const int64_t slot = S * S + d.gemm_slot();
  PooledBuffer scratch(part.num_chunks() * slot);
  float* ps = scratch.data();
  const float* px = qkv.data();
  const float* pp = probs.data();
  const float* pg = gctx.data();
  Tensor sg = score_grad;
  float* psg = sg.defined() ? sg.data() : nullptr;
  float* po = gqkv.data();
  const DType f32 = DType::kF32;
  parallel_for(part, [&](int64_t lo, int64_t hi) {
    float* own = ps + part.chunk_index(lo) * slot;
    float* ws = own + S * S;
    for (int64_t i = lo; i < hi; ++i) {
      const int64_t r = i / H, h = i % H;
      const int64_t off = r * S * 3 * E + h * Dh;
      const float* qh = px + off;
      const float* kh = qh + E;
      const float* vh = qh + 2 * E;
      const float* gc = pg + r * S * E + h * Dh;
      const float* p = pp + i * S * S;
      float* g = psg != nullptr ? psg + i * S * S : own;
      // dp = gctx·vᵀ and dv = pᵀ·gctx (the backward of p·v).
      head_gemm(gc, E, false, f32, vh, 3 * E, true, q, g, S, S, S, Dh, ws);
      head_gemm(p, S, true, q, gc, E, false, f32, po + off + 2 * E, 3 * E, S,
                Dh, S, ws);
      // ds = (softmax backward of dp)·(1/√Dh); the mask add passes it on.
      for (int64_t s = 0; s < S; ++s) {
        float* row = g + s * S;
        softmax_backward_row(row, p + s * S, row, S, 1);
        vec::unary(vec::UnOp::kMulScalar, scale, 0.f, row, row, S);
      }
      // dq = ds·k and dk = dsᵀ·q (the backward of q·kᵀ).
      head_gemm(g, S, false, f32, kh, 3 * E, false, q, po + off, 3 * E, S, Dh,
                S, ws);
      head_gemm(g, S, true, f32, qh, 3 * E, false, q, po + off + E, 3 * E, S,
                Dh, S, ws);
    }
  });
  return gqkv;
}

namespace {
// y[r, :] += bias[r / per_bias, :] for each of y's `rows` rows of `cols`:
// one contiguous vec pass per row. Output-row parallel, and each row's adds
// are independent of every other row's, so the decomposition cannot change
// any result bit.
void add_bias_rows(float* y, const float* bias, int64_t rows, int64_t cols,
                   int64_t per_bias) {
  parallel_for(Partition::work(rows, cols), [&](int64_t lo, int64_t hi) {
    for (int64_t r = lo; r < hi; ++r)
      vec::binary(vec::BinOp::kAdd, y + r * cols, bias + (r / per_bias) * cols,
                  y + r * cols, cols);
  });
}
}  // namespace

Tensor linear_forward(const Tensor& x, const Tensor& w, const Tensor& b,
                      int64_t groups, DType qx, DType qw, const Tensor& out) {
  HFTA_CHECK(w.dim() == 2 && groups >= 1 && w.size(0) % groups == 0,
             "linear: weight ", shape_str(w.shape()), " is not ", groups,
             " blocks of [out, in]");
  const int64_t in = w.size(1);
  const int64_t n_out = w.size(0) / groups;
  HFTA_CHECK(x.size(-1) == in, "linear: input feature ", x.size(-1),
             " != weight in ", in);
  const int64_t rows = x.numel() / in;
  HFTA_CHECK(rows % groups == 0, "linear: ", rows, " rows of ",
             shape_str(x.shape()), " do not split into ", groups, " groups");
  const int64_t run = rows / groups;
  Shape out_shape = x.shape();
  out_shape.back() = n_out;
  Tensor y = Tensor::empty_or(out, out_shape);
  matmul(x.reshape({groups, run, in}), w.reshape({groups, n_out, in}), false,
         true, qx, qw, y.reshape({groups, run, n_out}));
  if (b.defined()) {
    HFTA_CHECK(b.numel() == groups * n_out, "linear: bias size mismatch");
    add_bias_rows(y.data(), b.data(), rows, n_out, run);
  }
  return y;
}

}  // namespace hfta::ops
