// Differentiable ops over Variables. Each function computes the forward
// with the tensor kernels and records a backward closure on the tape.
// Gradients of broadcasting ops are reduced back to the input shapes
// (ops::reduce_to_shape).
#pragma once

#include <vector>

#include "autograd/variable.h"
#include "core/rng.h"
#include "tensor/conv.h"
#include "tensor/pool.h"

namespace hfta::ag {

/// Constant (no-grad) wrapper.
Variable constant(Tensor value);

// ---- elementwise binary (broadcasting) -----------------------------------
Variable add(const Variable& a, const Variable& b);
Variable sub(const Variable& a, const Variable& b);
Variable mul(const Variable& a, const Variable& b);
Variable div(const Variable& a, const Variable& b);

// ---- scalar --------------------------------------------------------------
Variable add_scalar(const Variable& a, float s);
Variable mul_scalar(const Variable& a, float s);

// ---- unary ---------------------------------------------------------------
Variable neg(const Variable& a);
Variable exp(const Variable& a);
Variable log(const Variable& a);
Variable sqrt(const Variable& a);
Variable tanh(const Variable& a);
Variable sigmoid(const Variable& a);
Variable relu(const Variable& a);
Variable relu6(const Variable& a);
Variable leaky_relu(const Variable& a, float slope);
Variable pow_scalar(const Variable& a, float p);
/// x * sigmoid(x + 3)/... — hard-swish as used by MobileNetV3:
/// hswish(x) = x * relu6(x + 3) / 6.
Variable hardswish(const Variable& a);
/// hsigmoid(x) = relu6(x + 3) / 6.
Variable hardsigmoid(const Variable& a);
Variable gelu(const Variable& a);

// ---- matmul family ---------------------------------------------------------
/// a @ b, or a @ bᵀ with `trans_b` (b transposed on its last two dims), on
/// rank-2 or rank-3 (batched) operands (ops::matmul).
Variable matmul(const Variable& a, const Variable& b, bool trans_b = false);
/// x [.., in] @ w [out, in]^T + b [out] (b may be undefined), `groups` of
/// them at once (ops::linear_forward): x's rows split into `groups` equal
/// runs, w is [groups*out, in] and b [groups*out], and run g uses block g.
/// Per block the backward runs the groups = 1 GEMMs on that block alone.
Variable linear(const Variable& x, const Variable& w, const Variable& b,
                int64_t groups = 1);
/// Multi-head self-attention off the input projection as one op
/// (ops::attention_forward): qkv [..., S, 3E] -> merged context [..., S, E],
/// softmax((q·kᵀ)/√Dh + mask)·v per head, mask [S, S] or undefined. Values
/// and the qkv gradient are bit-identical to the composed chain (chunk,
/// head-split permutes, matmul with trans_b, mul_scalar, add, softmax,
/// matmul, merge permute); under autocast its GEMMs take those matmuls'
/// policies.
Variable attention(const Variable& qkv, int64_t heads, const Tensor& mask);

// ---- convolution -------------------------------------------------------------
/// Convolution of x [N, Cin, L] or [N, Cin, H, W] by w [Cout, Cin/g, k] or
/// [Cout, Cin/g, kh, kw], plus the optional b [Cout]. A 1-D conv runs the
/// 2-D kernels on [N, Cin, 1, L] with stride 1 and pad 0 on H, so only
/// args' W stride and pad apply to it.
Variable conv(const Variable& x, const Variable& w, const Variable& b,
              const ops::ConvArgs& args);
/// Transposed convolution of x [N, Cin, L] or [N, Cin, H, W] by w
/// [Cin, Cout/g, k] or [Cin, Cout/g, kh, kw], plus the optional b [Cout]:
/// the conv/conv-grad duality on the 2-D kernels, 1-D viewed as in conv.
/// Rejects out_pad >= stride.
Variable conv_transpose(const Variable& x, const Variable& w,
                        const Variable& b,
                        const ops::ConvTransposeArgs& args);

// ---- pooling ---------------------------------------------------------------
/// Max pooling of x [N, C, H, W] (ops::max_pool2d). The op allocates its
/// argmax indices once, and every run of it, replays included, rewrites
/// them for the backward's scatter.
Variable max_pool2d(const Variable& x, const ops::PoolArgs& args);
Variable adaptive_avg_pool2d(const Variable& x, int64_t oh, int64_t ow);
/// [N, C, L] -> [N, C] max over L (PointNet global feature); its indices
/// are kept as max_pool2d keeps them.
Variable global_max_pool1d(const Variable& x);

// ---- shape ----------------------------------------------------------------
Variable reshape(const Variable& x, Shape shape);
Variable transpose(const Variable& x, int64_t a, int64_t b);
Variable permute(const Variable& x, std::vector<int64_t> perm);
Variable concat(const std::vector<Variable>& xs, int64_t dim);
std::vector<Variable> chunk(const Variable& x, int64_t chunks, int64_t dim);
Variable slice(const Variable& x, int64_t dim, int64_t start, int64_t end);

// ---- reductions ---------------------------------------------------------------
Variable sum(const Variable& x, std::vector<int64_t> dims, bool keepdim);
Variable mean(const Variable& x, std::vector<int64_t> dims, bool keepdim);
Variable sum_all(const Variable& x);
Variable mean_all(const Variable& x);

// ---- normalization -----------------------------------------------------------
/// BatchNorm over dim 1 of x [N, C, *] as one op (ops::batch_norm_forward),
/// as torch.nn.functional.batch_norm: per channel, (x - mean) *
/// (var + eps)^-0.5 * weight + bias. With `training` the mean and biased
/// variance are the batch's, held in [C] tensors the op allocates once,
/// and after the kernel every run of the op, replays included, updates the
/// running buffers in place: r = r * (1 - momentum) + stat * momentum, the
/// variance's stat unbiased by count / (count - 1). Otherwise it reads
/// `running_mean` and `running_var`. Gradients flow to x, weight and bias,
/// bit-identical to the composed mean/sub/mul/pow chain when x has no other
/// consumer.
Variable batch_norm(const Variable& x, const Variable& weight,
                    const Variable& bias, Tensor running_mean,
                    Tensor running_var, bool training, float momentum,
                    float eps);

/// LayerNorm over the trailing weight.numel() / groups elements of x as one
/// op (ops::layer_norm_forward): per row, (x - mean) * (var + eps)^-0.5 *
/// w + b, with the rows split into `groups` equal runs that each use their
/// own row of weight and bias ([groups, E] flat). Gradients flow to x,
/// weight and bias, bit-identical to the composed mean/sub/mul/pow chain
/// when x has no other consumer.
Variable layer_norm(const Variable& x, const Variable& weight,
                    const Variable& bias, int64_t groups, float eps);

// ---- softmax / losses -----------------------------------------------------------
Variable softmax(const Variable& x, int64_t dim);
Variable log_softmax(const Variable& x, int64_t dim);

enum class Reduction { kMean, kSum, kNone };

/// Negative log-likelihood over log-probabilities [N, C] (or [N, C, d...])
/// with integer labels [N] (or [N, d...]).
Variable nll_loss(const Variable& log_probs, const Tensor& labels,
                  Reduction reduction);
/// log_softmax + nll.
Variable cross_entropy(const Variable& logits, const Tensor& labels,
                       Reduction reduction);
/// Numerically-stable binary cross-entropy on logits vs targets in [0,1].
Variable bce_with_logits(const Variable& logits, const Tensor& targets,
                         Reduction reduction);
Variable mse_loss(const Variable& x, const Tensor& target,
                  Reduction reduction);

// ---- embedding --------------------------------------------------------------------
/// indices: integer-valued tensor (no grad); weight: [V, E]. groups > 1
/// looks up a stacked table of per-model blocks (see ops::embedding). The
/// ids are read when the op runs, so a replayed step program sees whatever
/// was staged into `indices`.
Variable embedding(const Tensor& indices, const Variable& weight,
                   int64_t groups = 1);

/// Dropout: x times a mask of 0 and 1/(1 - p). Every run of the op,
/// replays included, draws the mask from `rng` (which must outlive any step
/// program that records the op): one Bernoulli(p) drop per `block`
/// consecutive elements, in ascending order, so block = 1 drops elements
/// and block = H*W drops whole [N, C] planes of [N, C, H, W].
Variable dropout(const Variable& x, float p, Rng& rng, int64_t block = 1);

}  // namespace hfta::ag
