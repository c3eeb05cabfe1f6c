// Grouped (de)convolution kernels.
//
// These are the substrate for the paper's central fusion rule: B Conv2d
// operators with G groups fuse into one grouped Conv2d with B*G groups
// (Appendix B). Forward runs im2col + GEMM per (sample, group); the two
// backward kernels are the exact adjoints. ConvTranspose2d is implemented
// through the conv/conv-grad duality.
//
// Weight layouts (PyTorch convention):
//   conv2d            w: [Cout, Cin/groups, kh, kw]
//   conv_transpose2d  w: [Cin, Cout/groups, kh, kw]
//
// The three 2-D kernels take per-operand quantize policies — the first
// tensor argument's, then the second's — with the same meaning as
// ops::matmul's qa/qb: kF16/kBF16 rounds that operand RNE to the half format
// inside the im2col GEMM's pack loop, kF32 (the default) packs it verbatim.
// im2col only copies values and writes zeros (q(0) == 0), so quantizing the
// columns is bit-identical to im2col of a pre-rounded x. The 1-D and
// transposed wrappers take one policy `q`: their forwards quantize x and w,
// their grad kernels quantize only the saved operand (w for grad_input, x
// for grad_weight) and never the incoming f32 gradient. Biases are never
// quantized.
//
// The forward kernels (conv2d, conv1d and the transposed pair, and
// conv2d_grad_input, which conv_transpose2d lowers to) take an optional
// destination `out` as their last argument (see tensor/ops.h).
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
Tensor conv2d_grad_input(const Tensor& gy, const Tensor& w,
                         const Shape& x_shape, const ConvArgs& args,
                         DType qgy = DType::kF32, DType qw = DType::kF32,
                         const Tensor& out = Tensor());
/// Gradient w.r.t. w; w_shape: [Cout, Cin/g, kh, kw].
Tensor conv2d_grad_weight(const Tensor& gy, const Tensor& x,
                          const Shape& w_shape, const ConvArgs& args,
                          DType qgy = DType::kF32, DType qx = DType::kF32);
/// Gradient w.r.t. bias: sum of gy over batch and spatial dims -> [Cout].
Tensor conv2d_grad_bias(const Tensor& gy);

/// x: [N, Cin, L], w: [Cout, Cin/g, k] — lowered to 2-D with H = 1.
Tensor conv1d(const Tensor& x, const Tensor& w, const Tensor& b,
              int64_t stride, int64_t pad, int64_t groups,
              DType q = DType::kF32, const Tensor& out = Tensor());
Tensor conv1d_grad_input(const Tensor& gy, const Tensor& w,
                         const Shape& x_shape, int64_t stride, int64_t pad,
                         int64_t groups, DType q = DType::kF32);
Tensor conv1d_grad_weight(const Tensor& gy, const Tensor& x,
                          const Shape& w_shape, int64_t stride, int64_t pad,
                          int64_t groups, DType q = DType::kF32);

struct ConvTransposeArgs {
  int64_t stride = 1;
  int64_t pad = 0;
  int64_t out_pad = 0;
  int64_t groups = 1;
};

/// x: [N, Cin, H, W], w: [Cin, Cout/g, kh, kw], optional b: [Cout].
Tensor conv_transpose2d(const Tensor& x, const Tensor& w, const Tensor& b,
                        const ConvTransposeArgs& args, DType q = DType::kF32,
                        const Tensor& out = Tensor());
Tensor conv_transpose2d_grad_input(const Tensor& gy, const Tensor& w,
                                   const ConvTransposeArgs& args,
                                   DType q = DType::kF32);
Tensor conv_transpose2d_grad_weight(const Tensor& gy, const Tensor& x,
                                    const Shape& w_shape,
                                    const ConvTransposeArgs& args,
                                    DType q = DType::kF32);

/// x: [N, Cin, L], w: [Cin, Cout/g, k] — lowered to 2-D with H = 1 (the
/// paper's ConvTranspose1d fusion-rule example, Section 3).
Tensor conv_transpose1d(const Tensor& x, const Tensor& w, const Tensor& b,
                        const ConvTransposeArgs& args, DType q = DType::kF32,
                        const Tensor& out = Tensor());
Tensor conv_transpose1d_grad_input(const Tensor& gy, const Tensor& w,
                                   const ConvTransposeArgs& args,
                                   DType q = DType::kF32);
Tensor conv_transpose1d_grad_weight(const Tensor& gy, const Tensor& x,
                                    const Shape& w_shape,
                                    const ConvTransposeArgs& args,
                                    DType q = DType::kF32);

}  // namespace hfta::ops
