// GEMM-family kernels: the raw gemm the conv kernels drive, matmul (one
// entry point for plain, transposed and batched products), attention, and
// linear (whose grouped form is the kernel the paper's fused Linear lowers
// to: B Linears are one batched matmul).
#pragma once

#include "tensor/dtype.h"
#include "tensor/tensor.h"

namespace hfta::ops {

/// C[M,N] (+)= alpha * A[M,K] @ B[K,N]; when beta == 0 C is overwritten,
/// when beta == 1 C is accumulated into. A/B may be logically transposed
/// (absorbed by the packed-panel kernel — no materialized transposes).
///
/// `scratch` is the packing workspace: callers inside a parallel body MUST
/// pass a hoisted region of gemm_scratch_floats(m, n, k) floats (DESIGN §10);
/// a nullptr means "top-level call" and the kernel acquires pool scratch on
/// the launching thread itself. qa/qb are quantize policies, as on matmul.
void gemm(const float* a, const float* b, float* c, int64_t m, int64_t n,
          int64_t k, bool trans_a, bool trans_b, float alpha = 1.f,
          float beta = 0.f, float* scratch = nullptr, DType qa = DType::kF32,
          DType qb = DType::kF32);

/// Packing-workspace size (in floats) a gemm of this shape needs.
int64_t gemm_scratch_floats(int64_t m, int64_t n, int64_t k);

/// The one GEMM entry point over tensors: c = op(a) @ op(b), where op
/// transposes an operand's last two dims when its flag is set. Rank 2:
/// a [M,K] (trans_a: [K,M]) and b [K,N] (trans_b: [N,K]) -> [M,N]. Rank 3:
/// the same per batch entry, [B,..] @ [B,..] -> [B,M,N], one parallel_for
/// over the entries. A rank-2 product is one batch entry: its single chunk
/// runs inline outside any parallel region, so the GEMM's own row-block
/// partition still spreads it over the lanes.
///
/// qa/qb are per-operand quantize policies: kF16/kBF16 asks the kernel to
/// round that operand RNE to the half format DURING packing and widen it
/// back — the value quantize_to(x, q) gives each element (autocast's
/// definition), with no materialized copy or extra memory pass. kF32 (the
/// default) packs verbatim. `out` is the optional destination (see
/// tensor/ops.h).
Tensor matmul(const Tensor& a, const Tensor& b, bool trans_a = false,
              bool trans_b = false, DType qa = DType::kF32,
              DType qb = DType::kF32, const Tensor& out = Tensor());

/// Multi-head scaled dot-product self-attention straight off the input
/// projection: qkv [..., S, 3E] holds q, k and v side by side (each
/// [..., S, E], head h in columns [h*Dh, (h+1)*Dh), Dh = E / heads) -> ctx
/// [..., S, E], heads merged the same way; the leading dims are R
/// sequences. Per (r, h) it computes p = softmax((q·kᵀ)·(1/√Dh) + mask)
/// and ctx = p·v, with the roundings of that composed chain (matmul with
/// trans_b, mul_scalar, a broadcast add of `mask`, softmax, matmul): the
/// GEMMs read each head's q, k and v in place through their leading
/// dimensions and write its context columns in place, so no head split or
/// merge is ever copied. `mask` is [S, S] or undefined. The probabilities
/// are written into `probs` [R*heads, S, S], which attention_backward
/// reads. Both GEMMs quantize both operands with `q`.
/// One parallel_for over the R*heads (r, h) pairs.
Tensor attention_forward(const Tensor& qkv, int64_t heads, const Tensor& mask,
                         Tensor& probs, DType q = DType::kF32,
                         const Tensor& out = Tensor());

/// Gradient of attention_forward with respect to qkv, given gctx [..., S, E]
/// and the probabilities that call left: dq, dk and dv are written straight
/// into the [..., S, 3E] result, with the roundings of the composed chain's
/// backward (the operand policies are gctx·vᵀ (f32, q), pᵀ·gctx (q, f32),
/// ds·k (f32, q) and dsᵀ·q (f32, q), ds the score gradient). When
/// `score_grad` [R*heads, S, S] is defined, ds is left there for
/// inspection; it is per-chunk scratch otherwise.
Tensor attention_backward(const Tensor& gctx, const Tensor& qkv,
                          const Tensor& probs, int64_t heads,
                          DType q = DType::kF32,
                          const Tensor& score_grad = Tensor());

/// PyTorch-convention linear, `groups` of them at once: x [.., in] is read
/// as `groups` equal runs of rows and w [groups*out, in] (+ b [groups*out],
/// which may be undefined) as `groups` [out, in] blocks; run g computes
/// x_g @ w_g^T + b_g -> [.., out]. It is one batched matmul with `groups`
/// entries (trans_b), so block g equals the groups = 1 result on run g
/// alone, bit for bit; groups > 1 is the fused-Linear kernel of the paper
/// (Appendix B, row Linear). qx/qw quantize x and w; the bias add stays
/// f32.
Tensor linear_forward(const Tensor& x, const Tensor& w, const Tensor& b,
                      int64_t groups = 1, DType qx = DType::kF32,
                      DType qw = DType::kF32, const Tensor& out = Tensor());

}  // namespace hfta::ops
