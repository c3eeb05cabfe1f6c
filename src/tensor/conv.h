// Grouped convolution kernels.
//
// These are the substrate for the paper's central fusion rule: B Conv2d
// operators with G groups fuse into one grouped Conv2d with B*G groups
// (Appendix B). There are three 2-D kernels: the forward runs im2col + GEMM
// per (sample, group), and the two backward kernels are its exact
// adjoints. Every conv kind runs on them (ag::conv, ag::conv_transpose): a
// 1-D operand [N, C, L] is the 2-D one [N, C, 1, L] with stride 1 and pad 0
// on H, and a transposed conv is the conv/conv-grad duality — its forward
// is conv2d_grad_input, its input gradient conv2d, and its weight gradient
// conv2d_grad_weight with x and gy in swapped roles.
//
// Weight layouts (PyTorch convention):
//   conv            w: [Cout, Cin/groups, kh, kw]
//   conv transpose  w: [Cin, Cout/groups, kh, kw]
//
// The kernels take per-operand quantize policies — the first tensor
// argument's, then the second's — with the same meaning as ops::matmul's
// qa/qb: kF16/kBF16 rounds that operand RNE to the half format inside the
// im2col GEMM's pack loop, kF32 (the default) packs it verbatim. im2col
// only copies values and writes zeros (q(0) == 0), so quantizing the
// columns is bit-identical to im2col of a pre-rounded x. Biases are never
// quantized.
//
// The two kernels that run as a forward (conv2d, and conv2d_grad_input as
// the transposed conv's) take an optional bias, added per (sample, group)
// by one shared epilogue, and an optional destination `out` as their last
// argument (see tensor/ops.h). Bias gradients are ops::sum over every dim
// but the channel dim.
#pragma once

#include "tensor/dtype.h"
#include "tensor/tensor.h"

namespace hfta::ops {

struct ConvArgs {
  int64_t stride_h = 1;
  int64_t stride_w = 1;
  int64_t pad_h = 0;
  int64_t pad_w = 0;
  int64_t groups = 1;

  static ConvArgs make(int64_t stride, int64_t pad, int64_t groups = 1) {
    return ConvArgs{stride, stride, pad, pad, groups};
  }
};

struct ConvTransposeArgs {
  int64_t stride = 1;
  int64_t pad = 0;
  int64_t out_pad = 0;
  int64_t groups = 1;
};

/// Output spatial size of a convolution.
int64_t conv_out_size(int64_t in, int64_t kernel, int64_t stride, int64_t pad);
/// Output spatial size of a transposed convolution.
int64_t conv_transpose_out_size(int64_t in, int64_t kernel, int64_t stride,
                                int64_t pad, int64_t out_pad);

/// x: [N, Cin, H, W], w: [Cout, Cin/g, kh, kw], optional b: [Cout].
Tensor conv2d(const Tensor& x, const Tensor& w, const Tensor& b,
              const ConvArgs& args, DType qx = DType::kF32,
              DType qw = DType::kF32, const Tensor& out = Tensor());
/// Gradient w.r.t. x given gy: [N, Cout, Ho, Wo]; x_shape: [N, Cin, H, W].
/// The optional b [Cin] is added to the result — the transposed conv's
/// bias, when this kernel runs as that conv's forward.
Tensor conv2d_grad_input(const Tensor& gy, const Tensor& w, const Tensor& b,
                         const Shape& x_shape, const ConvArgs& args,
                         DType qgy = DType::kF32, DType qw = DType::kF32,
                         const Tensor& out = Tensor());
/// Gradient w.r.t. w; w_shape: [Cout, Cin/g, kh, kw].
Tensor conv2d_grad_weight(const Tensor& gy, const Tensor& x,
                          const Shape& w_shape, const ConvArgs& args,
                          DType qgy = DType::kF32, DType qx = DType::kF32);

}  // namespace hfta::ops
