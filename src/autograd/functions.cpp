#include "autograd/functions.h"

#include <cmath>
#include <memory>
#include <utility>

#include "autograd/autocast.h"
#include "autograd/step_program.h"
#include "core/parallel.h"
#include "core/vec.h"
#include "tensor/matmul.h"
#include "tensor/ops.h"

namespace hfta::ag {

namespace {

bool any_needs_tape(const std::vector<Variable>& ins) {
  for (const Variable& v : ins) {
    if (v.defined() && (v.requires_grad() || v.node())) return true;
  }
  return false;
}

// Creates the output variable; records the node only when some input is on
// the tape (constant folding keeps graphs small).
//
// `fwd` is the op's recompute thunk: a callable capturing the input
// *tensors* by value (shared storage — the step program's pinned buffers)
// that re-runs the forward kernel into the destination it is given. Eager
// execution evaluates it exactly once at the call site (`fwd({})`, no
// destination, produced `out`); when a StepProgram is recording, the thunk
// is additionally appended to the program with `out` as its destination —
// including for off-tape constant subgraphs, whose values may be
// data-dependent and must refresh on replay. A view (reshape) records
// nothing: `out` aliases an input, which replay refreshes in place. `fwd`
// stays a template parameter so the eager path never type-erases it (no
// std::function allocation per op).
template <typename Fwd>
Variable make_op(const char* name, Tensor out, const Fwd& fwd,
                 std::vector<Variable> inputs,
                 std::function<std::vector<Tensor>(const Tensor&)> backward) {
  if (StepProgram* rec = StepProgram::recording()) {
    bool view = false;
    for (const Variable& v : inputs)
      view = view || (v.defined() && out.shares_storage_with(v.value()));
    if (!view) rec->record_op(out, fwd);
  }
  if (!any_needs_tape(inputs)) return Variable(std::move(out));
  auto node = std::make_shared<Node>();
  node->name = name;
  node->inputs = std::move(inputs);
  node->backward = std::move(backward);
  return Variable::make_output(std::move(out), std::move(node));
}

}  // namespace

Variable constant(Tensor value) { return Variable(std::move(value)); }

// ---- binary ----------------------------------------------------------------

Variable add(const Variable& a, const Variable& b) {
  Shape sa = a.shape(), sb = b.shape();
  Tensor av = a.value(), bv = b.value();
  auto fwd = [av, bv](const Tensor& out) { return ops::add(av, bv, out); };
  return make_op("add", fwd({}), fwd, {a, b},
                 [sa, sb](const Tensor& gy) -> std::vector<Tensor> {
                   return {ops::reduce_to_shape(gy, sa),
                           ops::reduce_to_shape(gy, sb)};
                 });
}

Variable sub(const Variable& a, const Variable& b) {
  Shape sa = a.shape(), sb = b.shape();
  Tensor av = a.value(), bv = b.value();
  auto fwd = [av, bv](const Tensor& out) { return ops::sub(av, bv, out); };
  return make_op("sub", fwd({}), fwd, {a, b},
                 [sa, sb](const Tensor& gy) -> std::vector<Tensor> {
                   return {ops::reduce_to_shape(gy, sa),
                           ops::reduce_to_shape(ops::neg(gy), sb)};
                 });
}

Variable mul(const Variable& a, const Variable& b) {
  Shape sa = a.shape(), sb = b.shape();
  Tensor av = a.value(), bv = b.value();
  auto fwd = [av, bv](const Tensor& out) { return ops::mul(av, bv, out); };
  return make_op("mul", fwd({}), fwd, {a, b},
                 [sa, sb, av, bv](const Tensor& gy) -> std::vector<Tensor> {
                   return {ops::reduce_to_shape(ops::mul(gy, bv), sa),
                           ops::reduce_to_shape(ops::mul(gy, av), sb)};
                 });
}

Variable div(const Variable& a, const Variable& b) {
  Shape sa = a.shape(), sb = b.shape();
  Tensor av = a.value(), bv = b.value();
  auto fwd = [av, bv](const Tensor& out) { return ops::div(av, bv, out); };
  return make_op(
      "div", fwd({}), fwd, {a, b},
      [sa, sb, av, bv](const Tensor& gy) -> std::vector<Tensor> {
        Tensor ga = ops::reduce_to_shape(ops::div(gy, bv), sa);
        Tensor gb = ops::reduce_to_shape(
            ops::neg(ops::div(ops::mul(gy, av), ops::mul(bv, bv))), sb);
        return {ga, gb};
      });
}

// ---- scalar ----------------------------------------------------------------

Variable add_scalar(const Variable& a, float s) {
  Tensor av = a.value();
  auto fwd = [av, s](const Tensor& out) { return ops::add_scalar(av, s, out); };
  return make_op("add_scalar", fwd({}), fwd, {a},
                 [](const Tensor& gy) -> std::vector<Tensor> { return {gy}; });
}

Variable mul_scalar(const Variable& a, float s) {
  Tensor av = a.value();
  auto fwd = [av, s](const Tensor& out) { return ops::mul_scalar(av, s, out); };
  return make_op("mul_scalar", fwd({}), fwd, {a},
                 [s](const Tensor& gy) -> std::vector<Tensor> {
                   return {ops::mul_scalar(gy, s)};
                 });
}

// ---- unary -----------------------------------------------------------------

Variable neg(const Variable& a) {
  Tensor av = a.value();
  auto fwd = [av](const Tensor& out) { return ops::neg(av, out); };
  return make_op("neg", fwd({}), fwd, {a},
                 [](const Tensor& gy) -> std::vector<Tensor> {
                   return {ops::neg(gy)};
                 });
}

Variable exp(const Variable& a) {
  Tensor av = a.value();
  auto fwd = [av](const Tensor& out) { return ops::exp(av, out); };
  Tensor y = fwd({});
  return make_op("exp", y, fwd, {a},
                 [y](const Tensor& gy) -> std::vector<Tensor> {
                   return {ops::mul(gy, y)};
                 });
}

Variable log(const Variable& a) {
  Tensor x = a.value();
  auto fwd = [x](const Tensor& out) { return ops::log(x, out); };
  return make_op("log", fwd({}), fwd, {a},
                 [x](const Tensor& gy) -> std::vector<Tensor> {
                   return {ops::div(gy, x)};
                 });
}

Variable sqrt(const Variable& a) {
  Tensor av = a.value();
  auto fwd = [av](const Tensor& out) { return ops::sqrt(av, out); };
  Tensor y = fwd({});
  return make_op("sqrt", y, fwd, {a},
                 [y](const Tensor& gy) -> std::vector<Tensor> {
                   return {ops::div(ops::mul_scalar(gy, 0.5f), y)};
                 });
}

Variable tanh(const Variable& a) {
  Tensor av = a.value();
  auto fwd = [av](const Tensor& out) { return ops::tanh(av, out); };
  Tensor y = fwd({});
  return make_op("tanh", y, fwd, {a},
                 [y](const Tensor& gy) -> std::vector<Tensor> {
                   Tensor one_minus = ops::unary(
                       y, [](float v) { return 1.f - v * v; });
                   return {ops::mul(gy, one_minus)};
                 });
}

Variable sigmoid(const Variable& a) {
  Tensor av = a.value();
  auto fwd = [av](const Tensor& out) { return ops::sigmoid(av, out); };
  Tensor y = fwd({});
  return make_op("sigmoid", y, fwd, {a},
                 [y](const Tensor& gy) -> std::vector<Tensor> {
                   Tensor d =
                       ops::unary(y, [](float v) { return v * (1.f - v); });
                   return {ops::mul(gy, d)};
                 });
}

Variable relu(const Variable& a) {
  Tensor x = a.value();
  auto fwd = [x](const Tensor& out) { return ops::relu(x, out); };
  return make_op("relu", fwd({}), fwd, {a},
                 [x](const Tensor& gy) -> std::vector<Tensor> {
                   // One-pass masked multiply (no materialized mask tensor);
                   // bit-identical to mask-then-mul.
                   return {ops::relu_backward(gy, x)};
                 });
}

Variable relu6(const Variable& a) {
  Tensor x = a.value();
  auto fwd = [x](const Tensor& out) { return ops::clamp(x, 0.f, 6.f, out); };
  return make_op("relu6", fwd({}), fwd, {a},
                 [x](const Tensor& gy) -> std::vector<Tensor> {
                   Tensor m = ops::unary(x, [](float v) {
                     return (v > 0.f && v < 6.f) ? 1.f : 0.f;
                   });
                   return {ops::mul(gy, m)};
                 });
}

Variable leaky_relu(const Variable& a, float slope) {
  Tensor x = a.value();
  auto fwd = [x, slope](const Tensor& out) {
    return ops::leaky_relu(x, slope, out);
  };
  return make_op("leaky_relu", fwd({}), fwd, {a},
                 [x, slope](const Tensor& gy) -> std::vector<Tensor> {
                   Tensor m = ops::unary(x, [slope](float v) {
                     return v > 0.f ? 1.f : slope;
                   });
                   return {ops::mul(gy, m)};
                 });
}

Variable pow_scalar(const Variable& a, float p) {
  Tensor x = a.value();
  auto fwd = [x, p](const Tensor& out) { return ops::pow_scalar(x, p, out); };
  return make_op("pow_scalar", fwd({}), fwd, {a},
                 [x, p](const Tensor& gy) -> std::vector<Tensor> {
                   Tensor d = ops::mul_scalar(ops::pow_scalar(x, p - 1.f), p);
                   return {ops::mul(gy, d)};
                 });
}

Variable hardsigmoid(const Variable& a) {
  Tensor x = a.value();
  auto fwd = [x](const Tensor& out) {
    return ops::unary(
        x, [](float v) { return std::min(6.f, std::max(0.f, v + 3.f)) / 6.f; },
        out);
  };
  return make_op("hardsigmoid", fwd({}), fwd, {a},
                 [x](const Tensor& gy) -> std::vector<Tensor> {
                   Tensor m = ops::unary(x, [](float v) {
                     return (v > -3.f && v < 3.f) ? (1.f / 6.f) : 0.f;
                   });
                   return {ops::mul(gy, m)};
                 });
}

Variable hardswish(const Variable& a) {
  Tensor x = a.value();
  auto fwd = [x](const Tensor& out) {
    return ops::unary(
        x,
        [](float v) { return v * std::min(6.f, std::max(0.f, v + 3.f)) / 6.f; },
        out);
  };
  return make_op("hardswish", fwd({}), fwd, {a},
                 [x](const Tensor& gy) -> std::vector<Tensor> {
                   Tensor m = ops::unary(x, [](float v) {
                     if (v <= -3.f) return 0.f;
                     if (v >= 3.f) return 1.f;
                     return (2.f * v + 3.f) / 6.f;
                   });
                   return {ops::mul(gy, m)};
                 });
}

Variable gelu(const Variable& a) {
  // tanh approximation of GELU (as used in BERT).
  Tensor x = a.value();
  constexpr float kC = 0.7978845608028654f;  // sqrt(2/pi)
  auto fwd = [x](const Tensor& out) {
    return ops::unary(
        x,
        [](float v) {
          const float inner = kC * (v + 0.044715f * v * v * v);
          return 0.5f * v * (1.f + std::tanh(inner));
        },
        out);
  };
  return make_op("gelu", fwd({}), fwd, {a},
                 [x](const Tensor& gy) -> std::vector<Tensor> {
                   Tensor d = ops::unary(x, [](float v) {
                     const float v3 = v * v * v;
                     const float inner = kC * (v + 0.044715f * v3);
                     const float t = std::tanh(inner);
                     const float sech2 = 1.f - t * t;
                     return 0.5f * (1.f + t) +
                            0.5f * v * sech2 * kC * (1.f + 3.f * 0.044715f * v * v);
                   });
                   return {ops::mul(gy, d)};
                 });
}

// ---- matmul family -----------------------------------------------------------

// The GEMM and conv families apply the autocast policy with no cast nodes:
// the active dtype is captured by value as a per-operand quantize policy and
// the packed GEMM (directly, or behind conv's im2col) rounds those operands
// RNE during packing — no cast tensors, no extra memory passes. Biases stay
// f32, gradients stay f32, and the backward quantizes only the SAVED operand
// of each product; the incoming gradient is never quantized. The policy
// rides inside the fwd/backward closures, so a captured step program
// replays it with no autocast state involved.

namespace {
// The quantize policy for GEMM operands under the ambient autocast scope:
// the autocast dtype when active, kF32 (pack verbatim) otherwise.
DType gemm_quantize_dtype() {
  return autocast_enabled() ? autocast_dtype() : DType::kF32;
}
}  // namespace

Variable matmul(const Variable& a, const Variable& b, bool trans_b) {
  const DType q = gemm_quantize_dtype();
  Tensor av = a.value(), bv = b.value();
  auto fwd = [av, bv, trans_b, q](const Tensor& out) {
    return ops::matmul(av, bv, false, trans_b, q, q, out);
  };
  return make_op(
      "matmul", fwd({}), fwd, {a, b},
      [av, bv, trans_b, q](const Tensor& gy) -> std::vector<Tensor> {
        const DType f32 = DType::kF32;
        // y = a·b: ga = gy·bᵀ, gb = aᵀ·gy. y = a·bᵀ: ga = gy·b, gb = gyᵀ·a.
        Tensor ga = ops::matmul(gy, bv, false, !trans_b, f32, q);
        Tensor gb = trans_b ? ops::matmul(gy, av, true, false, f32, q)
                            : ops::matmul(av, gy, true, false, q, f32);
        return {ga, gb};
      });
}

Variable linear(const Variable& x, const Variable& w, const Variable& b,
                int64_t groups) {
  const DType q = gemm_quantize_dtype();
  Tensor xv = x.value(), wv = w.value();
  Tensor bv = b.defined() ? b.value() : Tensor();
  auto fwd = [xv, wv, bv, groups, q](const Tensor& out) {
    return ops::linear_forward(xv, wv, bv, groups, q, q, out);
  };
  Tensor y = fwd({});
  std::vector<Variable> inputs = {x, w};
  if (b.defined()) inputs.push_back(b);
  const bool has_bias = b.defined();
  const int64_t in = wv.size(1);
  const int64_t out = wv.size(0) / groups;
  const int64_t run = xv.numel() / in / groups;
  return make_op(
      "linear", y, fwd, std::move(inputs),
      [xv, wv, groups, in, out, run, has_bias,
       q](const Tensor& gy) -> std::vector<Tensor> {
        // Per block, the plain linear's GEMMs: gx = gy·w, gw = gyᵀ·x.
        const DType f32 = DType::kF32;
        Tensor gy3 = gy.reshape({groups, run, out});
        std::vector<Tensor> grads = {
            ops::matmul(gy3, wv.reshape({groups, out, in}), false, false, f32,
                        q)
                .reshape(xv.shape()),
            ops::matmul(gy3, xv.reshape({groups, run, in}), true, false, f32,
                        q)
                .reshape(wv.shape())};
        if (has_bias)
          grads.push_back(ops::sum(gy3, {1}, false).reshape({groups * out}));
        return grads;
      });
}

Variable attention(const Variable& qkv, int64_t heads, const Tensor& mask) {
  const DType q = gemm_quantize_dtype();
  Tensor xv = qkv.value();
  HFTA_CHECK(xv.dim() >= 2, "attention: qkv must be [..., S, 3E], got ",
             shape_str(xv.shape()));
  // The probabilities, written by every run of the thunk (see layer_norm)
  // and read by the backward.
  const int64_t S = xv.size(-2);
  Tensor probs = Tensor::empty({xv.numel() / (S * xv.size(-1)) * heads, S, S});
  auto fwd = [xv, heads, mask, probs, q](const Tensor& out) mutable {
    return ops::attention_forward(xv, heads, mask, probs, q, out);
  };
  return make_op("attention", fwd({}), fwd, {qkv},
                 [xv, probs, heads, q](const Tensor& gy) -> std::vector<Tensor> {
                   return {ops::attention_backward(gy, xv, probs, heads, q)};
                 });
}

// ---- convolution ----------------------------------------------------------------

// Operand policies: forward (x:q, w:q); grad_input (gy:f32, w:q);
// grad_weight (gy:f32, x:q). The transposed conv keeps the same roles.

namespace {
// A conv operand in the 2-D kernels' terms: rank 4 passes through, and a
// rank-3 [N, C, L] operand (an activation, or a [Co, Ci/g, k] weight) is
// viewed as [N, C, 1, L]. An undefined tensor stays undefined.
Tensor as_2d(const Tensor& t) {
  if (!t.defined() || t.dim() != 3) return t;
  return t.reshape({t.size(0), t.size(1), 1, t.size(2)});
}

// A 2-D kernel's result viewed at the op's rank: [N, C, 1, L] -> [N, C, L]
// for rank 3.
Tensor from_2d(const Tensor& y, int64_t rank) {
  if (rank == 4) return y;
  return y.reshape({y.size(0), y.size(1), y.size(3)});
}

// Checks that x and w are both rank 3 or both rank 4, and returns the 2-D
// kernels' args: a 1-D conv has stride 1 and pad 0 on H.
ops::ConvArgs args_2d(const Tensor& x, const Tensor& w, ops::ConvArgs a,
                      const char* who) {
  HFTA_CHECK((x.dim() == 3 || x.dim() == 4) && w.dim() == x.dim(), who,
             ": x ", shape_str(x.shape()), " and w ", shape_str(w.shape()),
             " must both be [N,C,L]-style or both [N,C,H,W]-style");
  if (x.dim() == 3) {
    a.stride_h = 1;
    a.pad_h = 0;
  }
  return a;
}

// The bias gradient of every conv: gy summed over all dims but dim 1.
Tensor channel_sum(const Tensor& gy) {
  std::vector<int64_t> dims = {0};
  for (int64_t d = 2; d < gy.dim(); ++d) dims.push_back(d);
  return ops::sum(gy, dims, false);
}

// Records the conv op `name` with forward thunk `fwd`; `grads_xw` returns
// the x and w gradients for gy viewed as 2-D, and the bias gradient (when
// b is defined) is channel_sum(gy).
template <typename Fwd, typename GradXW>
Variable make_conv_op(const char* name, const Fwd& fwd, const Variable& x,
                      const Variable& w, const Variable& b,
                      GradXW grads_xw) {
  std::vector<Variable> inputs = {x, w};
  if (b.defined()) inputs.push_back(b);
  const bool has_bias = b.defined();
  const Shape xs = x.shape(), ws = w.shape();
  return make_op(name, fwd({}), fwd, std::move(inputs),
                 [grads_xw, has_bias, xs, ws](const Tensor& gy) {
                   std::pair<Tensor, Tensor> g = grads_xw(as_2d(gy));
                   std::vector<Tensor> grads = {g.first.reshape(xs),
                                                g.second.reshape(ws)};
                   if (has_bias) grads.push_back(channel_sum(gy));
                   return grads;
                 });
}
}  // namespace

Variable conv(const Variable& x, const Variable& w, const Variable& b,
              const ops::ConvArgs& args) {
  const DType q = gemm_quantize_dtype();
  const ops::ConvArgs a = args_2d(x.value(), w.value(), args, "conv");
  const int64_t rank = x.dim();
  Tensor xv = as_2d(x.value()), wv = as_2d(w.value());
  Tensor bv = b.defined() ? b.value() : Tensor();
  auto fwd = [xv, wv, bv, a, q, rank](const Tensor& out) {
    return from_2d(ops::conv2d(xv, wv, bv, a, q, q, as_2d(out)), rank);
  };
  return make_conv_op("conv", fwd, x, w, b, [xv, wv, a, q](const Tensor& gy) {
    const DType f32 = DType::kF32;
    return std::make_pair(
        ops::conv2d_grad_input(gy, wv, Tensor(), xv.shape(), a, f32, q),
        ops::conv2d_grad_weight(gy, xv, wv.shape(), a, f32, q));
  });
}

Variable conv_transpose(const Variable& x, const Variable& w,
                        const Variable& b,
                        const ops::ConvTransposeArgs& t) {
  HFTA_CHECK(t.out_pad < t.stride, "conv_transpose: out_pad ", t.out_pad,
             " must be < stride ", t.stride);
  const DType q = gemm_quantize_dtype();
  const ops::ConvArgs a =
      args_2d(x.value(), w.value(),
              {t.stride, t.stride, t.pad, t.pad, t.groups}, "conv_transpose");
  const int64_t rank = x.dim();
  Tensor xv = as_2d(x.value()), wv = as_2d(w.value());
  Tensor bv = b.defined() ? b.value() : Tensor();
  // convT(x, w) is conv2d_grad_input with x as the gradient of the conv
  // that maps y [N, Cout, Ho, Wo] to x's shape; a 1-D y has Ho = 1.
  const Shape ys = {
      xv.size(0), wv.size(1) * t.groups,
      ops::conv_transpose_out_size(xv.size(2), wv.size(2), a.stride_h, a.pad_h,
                                   rank == 3 ? 0 : t.out_pad),
      ops::conv_transpose_out_size(xv.size(3), wv.size(3), a.stride_w, a.pad_w,
                                   t.out_pad)};
  auto fwd = [xv, wv, bv, ys, a, q, rank](const Tensor& out) {
    return from_2d(
        ops::conv2d_grad_input(xv, wv, bv, ys, a, q, q, as_2d(out)), rank);
  };
  return make_conv_op(
      "conv_transpose", fwd, x, w, b, [xv, wv, a, q](const Tensor& gy) {
        // The adjoint of conv2d_grad_input is conv2d; for the weight, x
        // plays the conv's output gradient and gy the conv's input.
        const DType f32 = DType::kF32;
        return std::make_pair(
            ops::conv2d(gy, wv, Tensor(), a, f32, q),
            ops::conv2d_grad_weight(xv, gy, wv.shape(), a, q, f32));
      });
}

// ---- pooling ----------------------------------------------------------------------

Variable max_pool2d(const Variable& x, const ops::PoolArgs& args) {
  Tensor xv = x.value();
  // The argmax indices are forward state the backward needs: the op keeps
  // the ones its eager run produced and every replay rewrites them in
  // place (see layer_norm).
  auto [y, idx] = ops::max_pool2d(xv, args);
  auto fwd = [xv, args, idx](const Tensor& out) {
    return ops::max_pool2d(xv, args, out, idx).first;
  };
  const Shape x_shape = x.shape();
  return make_op("max_pool2d", y, fwd, {x},
                 [idx, x_shape](const Tensor& gy) -> std::vector<Tensor> {
                   return {ops::max_pool2d_backward(gy, idx, x_shape)};
                 });
}

Variable adaptive_avg_pool2d(const Variable& x, int64_t oh, int64_t ow) {
  Tensor xv = x.value();
  auto fwd = [xv, oh, ow](const Tensor& out) {
    return ops::adaptive_avg_pool2d(xv, oh, ow, out);
  };
  const Shape x_shape = x.shape();
  return make_op("adaptive_avg_pool2d", fwd({}), fwd, {x},
                 [x_shape](const Tensor& gy) -> std::vector<Tensor> {
                   return {ops::adaptive_avg_pool2d_backward(gy, x_shape)};
                 });
}

Variable global_max_pool1d(const Variable& x) {
  Tensor xv = x.value();
  auto [y, idx] = ops::max_pool1d_global(xv);  // indices as in max_pool2d
  auto fwd = [xv, idx](const Tensor& out) {
    return ops::max_pool1d_global(xv, out, idx).first;
  };
  const Shape x_shape = x.shape();
  return make_op("global_max_pool1d", y, fwd, {x},
                 [idx, x_shape](const Tensor& gy) -> std::vector<Tensor> {
                   return {ops::max_pool1d_global_backward(gy, idx, x_shape)};
                 });
}

// ---- shape --------------------------------------------------------------------------

Variable reshape(const Variable& x, Shape shape) {
  const Shape x_shape = x.shape();
  Tensor xv = x.value();
  auto fwd = [xv, shape](const Tensor&) { return xv.reshape(shape); };
  return make_op("reshape", fwd({}), fwd, {x},
                 [x_shape](const Tensor& gy) -> std::vector<Tensor> {
                   return {gy.reshape(x_shape)};
                 });
}

Variable transpose(const Variable& x, int64_t a, int64_t b) {
  Tensor xv = x.value();
  auto fwd = [xv, a, b](const Tensor& out) { return xv.transpose(a, b, out); };
  return make_op("transpose", fwd({}), fwd, {x},
                 [a, b](const Tensor& gy) -> std::vector<Tensor> {
                   return {gy.transpose(a, b)};
                 });
}

Variable permute(const Variable& x, std::vector<int64_t> perm) {
  std::vector<int64_t> inv(perm.size());
  for (size_t i = 0; i < perm.size(); ++i)
    inv[static_cast<size_t>(perm[i])] = static_cast<int64_t>(i);
  Tensor xv = x.value();
  auto fwd = [xv, perm](const Tensor& out) { return xv.permute(perm, out); };
  return make_op("permute", fwd({}), fwd, {x},
                 [inv](const Tensor& gy) -> std::vector<Tensor> {
                   return {gy.permute(inv)};
                 });
}

Variable concat(const std::vector<Variable>& xs, int64_t dim) {
  std::vector<Tensor> vals;
  std::vector<int64_t> sizes;
  vals.reserve(xs.size());
  for (const Variable& v : xs) {
    vals.push_back(v.value());
  }
  auto fwd = [vals, dim](const Tensor& out) {
    return ops::concat(vals, dim, out);
  };
  Tensor y = fwd({});
  int64_t d = dim < 0 ? dim + static_cast<int64_t>(y.dim()) : dim;
  for (const Variable& v : xs) sizes.push_back(v.size(d));
  return make_op("concat", y, fwd, xs,
                 [sizes, d](const Tensor& gy) -> std::vector<Tensor> {
                   return ops::split(gy, sizes, d);
                 });
}

Variable slice(const Variable& x, int64_t dim, int64_t start, int64_t end) {
  const Shape x_shape = x.shape();
  int64_t d = dim < 0 ? dim + x.dim() : dim;
  Tensor xv = x.value();
  auto fwd = [xv, d, start, end](const Tensor& out) {
    return xv.slice(d, start, end, out);
  };
  return make_op("slice", fwd({}), fwd, {x},
                 [x_shape, d, start](const Tensor& gy) -> std::vector<Tensor> {
                   Tensor gx = Tensor::empty(x_shape);
                   int64_t outer = 1, inner = 1;
                   const int64_t n = x_shape[static_cast<size_t>(d)];
                   for (int64_t i = 0; i < d; ++i)
                     outer *= x_shape[static_cast<size_t>(i)];
                   for (size_t i = static_cast<size_t>(d) + 1;
                        i < x_shape.size(); ++i)
                     inner *= x_shape[i];
                   const int64_t len = gy.size(d);
                   const float* src = gy.data();
                   float* dst = gx.data();
                   // Per outer row of n * inner: zero it, then copy gy's
                   // len * inner run into the slice range along d. Rows
                   // never alias across chunks.
                   parallel_for(
                       Partition::work(outer, n * inner),
                       [&](int64_t lo, int64_t hi) {
                         vec::fill(0.f, dst + lo * n * inner,
                                   (hi - lo) * n * inner);
                         for (int64_t o = lo; o < hi; ++o)
                           std::copy(src + o * len * inner,
                                     src + (o + 1) * len * inner,
                                     dst + (o * n + start) * inner);
                       });
                   return {gx};
                 });
}

std::vector<Variable> chunk(const Variable& x, int64_t chunks, int64_t dim) {
  int64_t d = dim < 0 ? dim + x.dim() : dim;
  const int64_t n = x.size(d);
  HFTA_CHECK(n % chunks == 0, "chunk: dim not divisible");
  const int64_t step = n / chunks;
  std::vector<Variable> out;
  for (int64_t c = 0; c < chunks; ++c)
    out.push_back(slice(x, d, c * step, (c + 1) * step));
  return out;
}

// ---- reductions -------------------------------------------------------------------------

Variable sum(const Variable& x, std::vector<int64_t> dims, bool keepdim) {
  const Shape x_shape = x.shape();
  // Normalize dims and remember the keepdim-style shape for the backward.
  std::vector<int64_t> nd;
  for (int64_t d : dims) nd.push_back(d < 0 ? d + x.dim() : d);
  Tensor xv = x.value();
  auto fwd = [xv, nd, keepdim](const Tensor& out) {
    return ops::sum(xv, nd, keepdim, out);
  };
  Tensor y = fwd({});  // rejects a dim out of range or named twice
  Shape keep_shape = x_shape;
  for (int64_t d : nd) keep_shape[static_cast<size_t>(d)] = 1;
  return make_op("sum", std::move(y), fwd, {x},
                 [x_shape, keep_shape](const Tensor& gy) -> std::vector<Tensor> {
                   Tensor g = gy.reshape(keep_shape);
                   // broadcast up to the input shape
                   return {ops::add(Tensor::zeros(x_shape), g)};
                 });
}

Variable mean(const Variable& x, std::vector<int64_t> dims, bool keepdim) {
  int64_t count = 1;
  for (int64_t d : dims) count *= x.size(d);
  return mul_scalar(sum(x, std::move(dims), keepdim),
                    1.f / static_cast<float>(count));
}

Variable sum_all(const Variable& x) {
  const Shape x_shape = x.shape();
  Tensor xv = x.value();
  auto fwd = [xv](const Tensor& out) { return ops::sum_all(xv, out); };
  return make_op("sum_all", fwd({}), fwd, {x},
                 [x_shape](const Tensor& gy) -> std::vector<Tensor> {
                   return {Tensor::full(x_shape, gy.item())};
                 });
}

Variable mean_all(const Variable& x) {
  return mul_scalar(sum_all(x), 1.f / static_cast<float>(x.numel()));
}

// ---- normalization -----------------------------------------------------------------

Variable batch_norm(const Variable& x, const Variable& weight,
                    const Variable& bias, Tensor running_mean,
                    Tensor running_var, bool training, float momentum,
                    float eps) {
  Tensor xv = x.value(), wv = weight.value(), bv = bias.value();
  // In training the statistics are the batch's: forward state the backward
  // and the running-stat update read, allocated once and written by every
  // run of the thunk (see layer_norm). Eval reads the running stats.
  const int64_t C = xv.size(1);
  Tensor mean = training ? Tensor::empty({C}) : running_mean;
  Tensor var = training ? Tensor::empty({C}) : running_var;
  Tensor scratch = training ? Tensor(Shape{C}) : Tensor();
  // PyTorch's running variance takes the unbiased batch variance.
  const int64_t count = xv.numel() / C;
  const float unbias =
      count > 1 ? static_cast<float>(count) / static_cast<float>(count - 1)
                : 1.f;
  auto fwd = [xv, wv, bv, mean, var, training, eps, rm = running_mean,
              rv = running_var, scratch, momentum,
              unbias](const Tensor& out) mutable {
    Tensor y =
        ops::batch_norm_forward(xv, wv, bv, mean, var, training, eps, out);
    if (training) {
      rm.mul_(1.f - momentum);
      rm.add_(mean, momentum);
      rv.mul_(1.f - momentum);
      scratch.copy_(var);
      scratch.mul_(unbias);
      rv.add_(scratch, momentum);
    }
    return y;
  };
  return make_op("batch_norm", fwd({}), fwd, {x, weight, bias},
                 [xv, wv, mean, var, training,
                  eps](const Tensor& gy) -> std::vector<Tensor> {
                   ops::NormGrads g = ops::batch_norm_backward(
                       gy, xv, wv, mean, var, training, eps);
                   return {g.x, g.weight, g.bias};
                 });
}

Variable layer_norm(const Variable& x, const Variable& weight,
                    const Variable& bias, int64_t groups, float eps) {
  Tensor xv = x.value(), wv = weight.value(), bv = bias.value();
  HFTA_CHECK(groups > 0 && wv.numel() >= groups, "layer_norm: ", groups,
             " groups for a weight of ", wv.numel(), " elements");
  const int64_t rows = xv.numel() / (wv.numel() / groups);
  // The row statistics: forward state the backward needs, allocated once
  // and written by every run of the thunk, replays included.
  Tensor mean = Tensor::empty({rows}), var = Tensor::empty({rows});
  auto fwd = [xv, wv, bv, groups, mean, var, eps](const Tensor& out) mutable {
    return ops::layer_norm_forward(xv, wv, bv, groups, mean, var, eps, out);
  };
  return make_op("layer_norm", fwd({}), fwd, {x, weight, bias},
                 [xv, wv, mean, var, groups,
                  eps](const Tensor& gy) -> std::vector<Tensor> {
                   ops::NormGrads g = ops::layer_norm_backward(
                       gy, xv, wv, mean, var, groups, eps);
                   return {g.x, g.weight, g.bias};
                 });
}

// ---- softmax / losses ---------------------------------------------------------------------

Variable softmax(const Variable& x, int64_t dim) {
  int64_t d = dim < 0 ? dim + x.dim() : dim;
  Tensor xv = x.value();
  auto fwd = [xv, d](const Tensor& out) { return ops::softmax(xv, d, out); };
  Tensor y = fwd({});
  return make_op("softmax", y, fwd, {x},
                 [y, d](const Tensor& gy) -> std::vector<Tensor> {
                   return {ops::softmax_backward(gy, y, d)};
                 });
}

Variable log_softmax(const Variable& x, int64_t dim) {
  int64_t d = dim < 0 ? dim + x.dim() : dim;
  Tensor xv = x.value();
  auto fwd = [xv, d](const Tensor& out) {
    return ops::log_softmax(xv, d, out);
  };
  Tensor y = fwd({});
  return make_op("log_softmax", y, fwd, {x},
                 [y, d](const Tensor& gy) -> std::vector<Tensor> {
                   return {ops::log_softmax_backward(gy, y, d)};
                 });
}

namespace {
// Gathers log_probs at the label class: supports [N, C] labels [N] and
// [N, C, d1...] labels [N, d1...] (PyTorch NLL layout).
void nll_dims(const Tensor& log_probs, const Tensor& labels, int64_t* n_out,
              int64_t* c_out, int64_t* inner_out) {
  const int64_t N = log_probs.size(0);
  const int64_t C = log_probs.size(1);
  const int64_t inner = log_probs.numel() / (N * C);
  HFTA_CHECK(labels.numel() == N * inner, "nll_loss: labels numel ",
             labels.numel(), " != ", N * inner);
  *n_out = N;
  *c_out = C;
  *inner_out = inner;
}
}  // namespace

Variable nll_loss(const Variable& log_probs, const Tensor& labels,
                  Reduction reduction) {
  int64_t N, C, inner;
  nll_dims(log_probs.value(), labels, &N, &C, &inner);
  const Tensor lp = log_probs.value();
  auto fwd = [lp, labels, N, C, inner, reduction](const Tensor& dst) {
    const float* p = lp.data();
    const float* pl = labels.data();
    const int64_t total = N * inner;
    Tensor out = Tensor::empty_or(
        dst, reduction == Reduction::kNone ? labels.shape() : Shape{});
    double acc = 0.0;
    for (int64_t i = 0; i < total; ++i) {
      const int64_t n = i / inner;
      const int64_t in = i % inner;
      const int64_t cls = static_cast<int64_t>(pl[i]);
      HFTA_CHECK(cls >= 0 && cls < C, "nll_loss: label ", cls,
                 " out of range");
      const float v = -p[(n * C + cls) * inner + in];
      if (reduction == Reduction::kNone) {
        out.data()[i] = v;
      } else {
        acc += v;
      }
    }
    if (reduction == Reduction::kMean)
      out.data()[0] = static_cast<float>(acc / static_cast<double>(total));
    if (reduction == Reduction::kSum) out.data()[0] = static_cast<float>(acc);
    return out;
  };
  Tensor out = fwd({});

  const Shape lp_shape = lp.shape();
  return make_op(
      "nll_loss", out, fwd, {log_probs},
      [labels, lp_shape, N, C, inner,
       reduction](const Tensor& gy) -> std::vector<Tensor> {
        Tensor gx = Tensor::zeros(lp_shape);
        const float* pl = labels.data();
        float* pg = gx.data();
        const int64_t total = N * inner;
        const float scale = (reduction == Reduction::kMean)
                                ? 1.f / static_cast<float>(total)
                                : 1.f;
        for (int64_t i = 0; i < total; ++i) {
          const int64_t n = i / inner;
          const int64_t in = i % inner;
          const int64_t cls = static_cast<int64_t>(pl[i]);
          const float g =
              (reduction == Reduction::kNone) ? gy.data()[i] : gy.item();
          pg[(n * C + cls) * inner + in] -= g * scale;
        }
        return {gx};
      });
}

Variable cross_entropy(const Variable& logits, const Tensor& labels,
                       Reduction reduction) {
  return nll_loss(log_softmax(logits, 1), labels, reduction);
}

Variable bce_with_logits(const Variable& logits, const Tensor& targets,
                         Reduction reduction) {
  const Tensor x = logits.value();
  HFTA_CHECK(x.numel() == targets.numel(), "bce: shape mismatch");
  const int64_t n = x.numel();
  auto fwd = [x, targets, reduction, n](const Tensor& dst) {
    const float* px = x.data();
    const float* pt = targets.data();
    Tensor out = Tensor::empty_or(
        dst, reduction == Reduction::kNone ? x.shape() : Shape{});
    double acc = 0.0;
    for (int64_t i = 0; i < n; ++i) {
      // max(x,0) - x*t + log(1 + exp(-|x|)) — numerically stable.
      const float v = std::max(px[i], 0.f) - px[i] * pt[i] +
                      std::log1p(std::exp(-std::fabs(px[i])));
      if (reduction == Reduction::kNone) {
        out.data()[i] = v;
      } else {
        acc += v;
      }
    }
    if (reduction == Reduction::kMean)
      out.data()[0] = static_cast<float>(acc / static_cast<double>(n));
    if (reduction == Reduction::kSum) out.data()[0] = static_cast<float>(acc);
    return out;
  };
  Tensor out = fwd({});
  return make_op("bce_with_logits", out, fwd, {logits},
                 [x, targets, reduction, n](const Tensor& gy) {
                   Tensor gx(x.shape());
                   const float* px = x.data();
                   const float* pt = targets.data();
                   float* pg = gx.data();
                   const float scale = (reduction == Reduction::kMean)
                                           ? 1.f / static_cast<float>(n)
                                           : 1.f;
                   for (int64_t i = 0; i < n; ++i) {
                     const float s = 1.f / (1.f + std::exp(-px[i]));
                     const float g = (reduction == Reduction::kNone)
                                         ? gy.data()[i]
                                         : gy.item();
                     pg[i] = (s - pt[i]) * scale * g;
                   }
                   return std::vector<Tensor>{gx};
                 });
}

Variable mse_loss(const Variable& x, const Tensor& target,
                  Reduction reduction) {
  Variable diff = sub(x, constant(target));
  Variable sq = mul(diff, diff);
  switch (reduction) {
    case Reduction::kMean:
      return mean_all(sq);
    case Reduction::kSum:
      return sum_all(sq);
    case Reduction::kNone:
      return sq;
  }
  HFTA_CHECK(false, "unreachable");
  return Variable();
}

Variable embedding(const Tensor& indices, const Variable& weight,
                   int64_t groups) {
  Tensor wv = weight.value();
  auto fwd = [indices, wv, groups](const Tensor& out) {
    return ops::embedding(indices, wv, groups, out);
  };
  const int64_t vocab = weight.size(0);
  return make_op("embedding", fwd({}), fwd, {weight},
                 [indices, vocab,
                  groups](const Tensor& gy) -> std::vector<Tensor> {
                   return {ops::embedding_backward(gy, indices, vocab,
                                                   groups)};
                 });
}

Variable dropout(const Variable& x, float p, Rng& rng, int64_t block) {
  Tensor xv = x.value();
  HFTA_CHECK(block > 0 && xv.numel() % block == 0, "dropout: block ", block,
             " does not divide ", xv.numel(), " elements");
  // The mask is forward state the backward needs (see layer_norm). The
  // draw advances `rng`, so a replay draws at the stream position the
  // eager step would have.
  Tensor mask(xv.shape());
  const float scale = 1.f / (1.f - p);
  auto fwd = [xv, mask, p, scale, block,
              rng = &rng](const Tensor& out) mutable {
    float* m = mask.data();
    for (int64_t i = 0; i < mask.numel(); i += block) {
      const float v = rng->bernoulli(p) ? 0.f : scale;
      for (int64_t j = 0; j < block; ++j) m[i + j] = v;
    }
    return ops::mul(xv, mask, out);
  };
  return make_op("dropout", fwd({}), fwd, {x},
                 [mask](const Tensor& gy) -> std::vector<Tensor> {
                   return {ops::mul(gy, mask)};
                 });
}

}  // namespace hfta::ag
