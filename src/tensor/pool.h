// Pooling kernels: MaxPool2d (with saved argmax indices for the backward)
// and AdaptiveAvgPool2d, matching PyTorch semantics. The forward kernels
// take an optional destination `out` for their values (see tensor/ops.h);
// the max pools also take an optional `indices` destination for their
// argmax, so a replayed op rewrites the indices its backward reads.
#pragma once

#include <utility>

#include "tensor/tensor.h"

namespace hfta::ops {

struct PoolArgs {
  int64_t kernel = 2;
  int64_t stride = 2;  // 0 means "same as kernel"
  int64_t pad = 0;

  int64_t effective_stride() const { return stride == 0 ? kernel : stride; }
};

/// x: [N, C, H, W] -> {values [N,C,Ho,Wo], flat argmax indices into H*W}.
std::pair<Tensor, Tensor> max_pool2d(const Tensor& x, const PoolArgs& args,
                                     const Tensor& out = Tensor(),
                                     const Tensor& indices = Tensor());
/// Scatters gy back through the saved indices.
Tensor max_pool2d_backward(const Tensor& gy, const Tensor& indices,
                           const Shape& x_shape);

/// x: [N, C, H, W] -> [N, C, out_h, out_w]; PyTorch adaptive bin edges.
Tensor adaptive_avg_pool2d(const Tensor& x, int64_t out_h, int64_t out_w,
                           const Tensor& out = Tensor());
Tensor adaptive_avg_pool2d_backward(const Tensor& gy, const Shape& x_shape);

/// Max over the last dim of [N, C, L] -> {values [N,C], indices [N,C]}.
/// (PointNet's global feature max.)
std::pair<Tensor, Tensor> max_pool1d_global(const Tensor& x,
                                            const Tensor& out = Tensor(),
                                            const Tensor& indices = Tensor());
Tensor max_pool1d_global_backward(const Tensor& gy, const Tensor& indices,
                                  const Shape& x_shape);

}  // namespace hfta::ops
