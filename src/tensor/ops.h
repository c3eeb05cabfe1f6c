// Non-differentiable tensor kernels: elementwise (with full numpy-style
// broadcasting), reductions, shape ops, softmax, batch and layer norm,
// embedding lookup.
// The autograd layer (src/autograd) wraps these with backward rules.
//
// Every kernel an autograd op runs forward takes an optional destination
// `out` as its last argument. When it is defined the result is written
// there (its shape must match; see Tensor::empty_or) and returned, instead
// of into a fresh buffer: a replayed step program passes each op its
// pinned output this way.
#pragma once

#include <utility>
#include <vector>

#include "core/function_ref.h"
#include "tensor/tensor.h"

namespace hfta::ops {

// ---- broadcasting ----------------------------------------------------------

/// Broadcast result shape of a and b; throws on incompatibility.
Shape broadcast_shapes(const Shape& a, const Shape& b);

/// Elementwise binary ops with broadcasting.
Tensor add(const Tensor& a, const Tensor& b, const Tensor& out = Tensor());
Tensor sub(const Tensor& a, const Tensor& b, const Tensor& out = Tensor());
Tensor mul(const Tensor& a, const Tensor& b, const Tensor& out = Tensor());
Tensor div(const Tensor& a, const Tensor& b, const Tensor& out = Tensor());

/// Sums `grad` down to `shape` (inverse of broadcasting) — used by the
/// backward of broadcasting binary ops.
Tensor reduce_to_shape(const Tensor& grad, const Shape& shape);

// ---- scalar / unary ---------------------------------------------------------

Tensor add_scalar(const Tensor& a, float s, const Tensor& out = Tensor());
Tensor mul_scalar(const Tensor& a, float s, const Tensor& out = Tensor());
/// Elementwise map.
Tensor unary(const Tensor& a, FunctionRef<float(float)> fn,
             const Tensor& out = Tensor());
Tensor neg(const Tensor& a, const Tensor& out = Tensor());
Tensor exp(const Tensor& a, const Tensor& out = Tensor());
Tensor log(const Tensor& a, const Tensor& out = Tensor());
Tensor sqrt(const Tensor& a, const Tensor& out = Tensor());
Tensor tanh(const Tensor& a, const Tensor& out = Tensor());
Tensor sigmoid(const Tensor& a, const Tensor& out = Tensor());
Tensor relu(const Tensor& a, const Tensor& out = Tensor());
/// gy * ((x > 0) ? 1 : 0) in one pass — the relu backward mask-and-multiply
/// without materializing the mask (bit-identical to the two-pass form).
Tensor relu_backward(const Tensor& gy, const Tensor& x);
Tensor clamp(const Tensor& a, float lo, float hi,
             const Tensor& out = Tensor());
Tensor leaky_relu(const Tensor& a, float slope, const Tensor& out = Tensor());
Tensor pow_scalar(const Tensor& a, float p, const Tensor& out = Tensor());

// ---- reductions -------------------------------------------------------------

/// Sum over `dims` (each in [-rank, rank), negative counting from the end;
/// naming a dim twice throws); keepdim keeps size-1 dims. Each output is
/// one chain from +0 over its inputs in ascending flat order. Every dim
/// but dim 1 of a rank >= 3 tensor (a conv's bias gradient) runs the vec
/// channel kernels, eight channels to a vector; a contiguous run of
/// reduced dims with a trailing kept dim runs vec::col_sum.
Tensor sum(const Tensor& a, std::vector<int64_t> dims, bool keepdim,
           const Tensor& out = Tensor());
/// Sum of everything -> scalar tensor (shape {}).
Tensor sum_all(const Tensor& a, const Tensor& out = Tensor());
/// sum(a, dims) times 1 / (product of the named dims' sizes).
Tensor mean(const Tensor& a, std::vector<int64_t> dims, bool keepdim);
Tensor mean_all(const Tensor& a);
/// Max over one dim; returns {values, indices} (indices stored as floats).
std::pair<Tensor, Tensor> max_dim(const Tensor& a, int64_t dim, bool keepdim);
/// Argmax over one dim (indices as floats).
Tensor argmax(const Tensor& a, int64_t dim);

// ---- shape ops ---------------------------------------------------------------

/// Concatenate along `dim`; all other dims must match.
Tensor concat(const std::vector<Tensor>& ts, int64_t dim,
              const Tensor& out = Tensor());
/// Split into pieces of the given sizes along `dim`.
std::vector<Tensor> split(const Tensor& t, const std::vector<int64_t>& sizes,
                          int64_t dim);
/// Split into `chunks` equal pieces along `dim` (must divide evenly).
std::vector<Tensor> chunk(const Tensor& t, int64_t chunks, int64_t dim);

// ---- softmax family -----------------------------------------------------------

Tensor softmax(const Tensor& a, int64_t dim, const Tensor& out = Tensor());
Tensor log_softmax(const Tensor& a, int64_t dim, const Tensor& out = Tensor());
/// Backward of log_softmax: gx = gy - softmax(x) * sum(gy, dim).
Tensor log_softmax_backward(const Tensor& gy, const Tensor& log_probs,
                            int64_t dim);
/// Backward of softmax: gx = y * (gy - sum(gy * y, dim)), one pass per row
/// with the roundings of that composition (an ascending dot from +0).
Tensor softmax_backward(const Tensor& gy, const Tensor& y, int64_t dim);
/// The row bodies of softmax and softmax_backward, shared with the
/// attention kernel (tensor/matmul.h) so each rounding sequence exists in
/// one place: one row of n elements at stride st. y may alias x, and gx
/// may alias gy.
void softmax_row(const float* x, float* y, int64_t n, int64_t st);
void softmax_backward_row(const float* gy, const float* y, float* gx,
                          int64_t n, int64_t st);

// ---- batch norm ------------------------------------------------------------------

/// BatchNorm over dim 1 of x [N, C, *]: per channel,
/// y = (x - mean) * (var + eps)^-0.5 * weight + bias. With `training` the
/// batch statistics (biased variance) are first written into `mean` and
/// `var` ([C]); otherwise `mean` and `var` are read (running statistics).
/// Parallel over blocks of eight channels, one channel per vec lane (the
/// vec channel kernels): each channel's sums are one ascending (n, spatial)
/// chain from +0, and y is one elementwise pass, so results are invariant
/// to the thread count and the vec backend.
Tensor batch_norm_forward(const Tensor& x, const Tensor& weight,
                          const Tensor& bias, Tensor& mean, Tensor& var,
                          bool training, float eps,
                          const Tensor& out = Tensor());

/// Gradients of a normalization op's three inputs.
struct NormGrads {
  Tensor x;
  Tensor weight;
  Tensor bias;
};
/// Gradients of batch_norm_forward (mean/var as that call left them). Each
/// element takes the roundings, and each sum the accumulation order, of the
/// composed autograd chain (sum, mul_scalar, sub, mul, ..., add), so the
/// result is bit-identical to differentiating that chain. Runs as
/// batch_norm_forward does: per block of eight channels, two reduction
/// passes (one in eval) and one elementwise pass for the x gradient.
NormGrads batch_norm_backward(const Tensor& gy, const Tensor& x,
                              const Tensor& weight, const Tensor& mean,
                              const Tensor& var, bool training, float eps);

// ---- layer norm ------------------------------------------------------------------

/// LayerNorm over the trailing E = weight.numel() / groups elements of x:
/// x is viewed as [rows, E], and row r, with m and v its mean and biased
/// variance, gives y = (x - m) * (v + eps)^-0.5 * w + b. The affine is
/// grouped: the rows split into `groups` equal runs and run g uses row g of
/// weight and bias viewed as [groups, E] (groups = 1 for one LayerNorm, B
/// for B LayerNorms fused on a model-major [B, ...] input). Each row's
/// statistics are written into `mean` and `var` ([rows]). Parallel over
/// rows; each row sum is one ascending chain from +0.
Tensor layer_norm_forward(const Tensor& x, const Tensor& weight,
                          const Tensor& bias, int64_t groups, Tensor& mean,
                          Tensor& var, float eps, const Tensor& out = Tensor());

/// Gradients of layer_norm_forward (mean/var as that call left them),
/// bit-identical to differentiating the composed chain it replaced
/// (mean, sub, mul, mean, add_scalar, pow_scalar, mul, mul, add); the
/// weight and bias sums run over each group's rows in ascending order.
NormGrads layer_norm_backward(const Tensor& gy, const Tensor& x,
                              const Tensor& weight, const Tensor& mean,
                              const Tensor& var, int64_t groups, float eps);

// ---- embedding -----------------------------------------------------------------

/// indices: any shape, values must be integral; weight: [V, E].
/// Returns [*indices.shape, E]. With groups > 1 the table stacks `groups`
/// per-model blocks of V / groups rows and the ids are read as `groups`
/// equal runs: run g's ids read rows g * (V / groups) + id. The offset is
/// applied here, so the ids tensor itself is never rewritten. Every row
/// read must lie in [0, V).
Tensor embedding(const Tensor& indices, const Tensor& weight,
                 int64_t groups = 1, const Tensor& out = Tensor());
/// Scatter-add of grad_out into grad_weight [V, E] (groups as above).
Tensor embedding_backward(const Tensor& grad_out, const Tensor& indices,
                          int64_t vocab, int64_t groups = 1);

// ---- comparisons / metrics -------------------------------------------------------

/// Fraction of positions where argmax(logits, -1) equals labels.
double accuracy(const Tensor& logits, const Tensor& labels);

/// Max |a - b| over all elements (shapes must match).
float max_abs_diff(const Tensor& a, const Tensor& b);

}  // namespace hfta::ops
