#include "tensor/pool.h"

#include <algorithm>
#include <limits>

#include "core/parallel.h"
#include "core/vec.h"

namespace hfta::ops {

std::pair<Tensor, Tensor> max_pool2d(const Tensor& x, const PoolArgs& a,
                                     const Tensor& out, const Tensor& indices) {
  HFTA_CHECK(x.dim() == 4, "max_pool2d: x must be [N,C,H,W]");
  const int64_t N = x.size(0), C = x.size(1), H = x.size(2), W = x.size(3);
  const int64_t s = a.effective_stride();
  const int64_t Ho = (H + 2 * a.pad - a.kernel) / s + 1;
  const int64_t Wo = (W + 2 * a.pad - a.kernel) / s + 1;
  HFTA_CHECK(Ho > 0 && Wo > 0, "max_pool2d: empty output");
  Tensor y = Tensor::empty_or(out, {N, C, Ho, Wo});
  Tensor idx = Tensor::empty_or(indices, {N, C, Ho, Wo});
  const float* px = x.data();
  float* py = y.data();
  float* pi = idx.data();
  parallel_for(Partition::rows(N * C), [&](int64_t lo, int64_t hi) {
    for (int64_t nc = lo; nc < hi; ++nc) {
      const float* plane = px + nc * H * W;
      float* yp = py + nc * Ho * Wo;
      float* ip = pi + nc * Ho * Wo;
      for (int64_t oh = 0; oh < Ho; ++oh) {
        for (int64_t ow = 0; ow < Wo; ++ow) {
          float best = -std::numeric_limits<float>::infinity();
          int64_t best_idx = 0;
          for (int64_t i = 0; i < a.kernel; ++i) {
            const int64_t ih = oh * s - a.pad + i;
            if (ih < 0 || ih >= H) continue;
            for (int64_t j = 0; j < a.kernel; ++j) {
              const int64_t iw = ow * s - a.pad + j;
              if (iw < 0 || iw >= W) continue;
              const float v = plane[ih * W + iw];
              if (v > best) {
                best = v;
                best_idx = ih * W + iw;
              }
            }
          }
          yp[oh * Wo + ow] = best;
          ip[oh * Wo + ow] = static_cast<float>(best_idx);
        }
      }
    }
  });
  return {y, idx};
}

Tensor max_pool2d_backward(const Tensor& gy, const Tensor& indices,
                           const Shape& x_shape) {
  Tensor gx = Tensor::empty(x_shape);
  const int64_t N = x_shape[0], C = x_shape[1], H = x_shape[2], W = x_shape[3];
  const int64_t spatial_out = gy.numel() / (N * C);
  const float* pg = gy.data();
  const float* pi = indices.data();
  float* px = gx.data();
  // Plane-parallel scatter: every index points inside its own [H, W] plane,
  // so chunks never write the same element and the per-plane add order is
  // the serial one. Each chunk zeroes its own planes first.
  parallel_for(Partition::rows(N * C), [&](int64_t lo, int64_t hi) {
    vec::fill(0.f, px + lo * H * W, (hi - lo) * H * W);
    for (int64_t nc = lo; nc < hi; ++nc) {
      float* plane = px + nc * H * W;
      const float* g = pg + nc * spatial_out;
      const float* id = pi + nc * spatial_out;
      for (int64_t o = 0; o < spatial_out; ++o)
        plane[static_cast<int64_t>(id[o])] += g[o];
    }
  });
  return gx;
}

namespace {
inline int64_t ada_start(int64_t o, int64_t in, int64_t out) {
  return (o * in) / out;
}
inline int64_t ada_end(int64_t o, int64_t in, int64_t out) {
  return ((o + 1) * in + out - 1) / out;
}
}  // namespace

Tensor adaptive_avg_pool2d(const Tensor& x, int64_t out_h, int64_t out_w,
                           const Tensor& out) {
  HFTA_CHECK(x.dim() == 4, "adaptive_avg_pool2d: x must be [N,C,H,W]");
  const int64_t N = x.size(0), C = x.size(1), H = x.size(2), W = x.size(3);
  Tensor y = Tensor::empty_or(out, {N, C, out_h, out_w});
  const float* px = x.data();
  float* py = y.data();
  parallel_for(Partition::rows(N * C), [&](int64_t lo, int64_t hi) {
    for (int64_t nc = lo; nc < hi; ++nc) {
      const float* plane = px + nc * H * W;
      float* yp = py + nc * out_h * out_w;
      for (int64_t oh = 0; oh < out_h; ++oh) {
        const int64_t h0 = ada_start(oh, H, out_h), h1 = ada_end(oh, H, out_h);
        for (int64_t ow = 0; ow < out_w; ++ow) {
          const int64_t w0 = ada_start(ow, W, out_w), w1 = ada_end(ow, W, out_w);
          float acc = 0.f;
          for (int64_t ih = h0; ih < h1; ++ih)
            for (int64_t iw = w0; iw < w1; ++iw) acc += plane[ih * W + iw];
          yp[oh * out_w + ow] =
              acc / static_cast<float>((h1 - h0) * (w1 - w0));
        }
      }
    }
  });
  return y;
}

Tensor adaptive_avg_pool2d_backward(const Tensor& gy, const Shape& x_shape) {
  const int64_t N = x_shape[0], C = x_shape[1], H = x_shape[2], W = x_shape[3];
  const int64_t out_h = gy.size(2), out_w = gy.size(3);
  Tensor gx = Tensor::empty(x_shape);
  const float* pg = gy.data();
  float* px = gx.data();
  // Plane-parallel: all writes stay inside the chunk's own planes (zeroed
  // here first) and the per-plane accumulation order matches the serial
  // loop exactly.
  parallel_for(Partition::rows(N * C), [&](int64_t lo, int64_t hi) {
    vec::fill(0.f, px + lo * H * W, (hi - lo) * H * W);
    for (int64_t nc = lo; nc < hi; ++nc) {
      float* plane = px + nc * H * W;
      const float* g = pg + nc * out_h * out_w;
      for (int64_t oh = 0; oh < out_h; ++oh) {
        const int64_t h0 = ada_start(oh, H, out_h), h1 = ada_end(oh, H, out_h);
        for (int64_t ow = 0; ow < out_w; ++ow) {
          const int64_t w0 = ada_start(ow, W, out_w),
                        w1 = ada_end(ow, W, out_w);
          const float gv =
              g[oh * out_w + ow] / static_cast<float>((h1 - h0) * (w1 - w0));
          for (int64_t ih = h0; ih < h1; ++ih)
            for (int64_t iw = w0; iw < w1; ++iw) plane[ih * W + iw] += gv;
        }
      }
    }
  });
  return gx;
}

std::pair<Tensor, Tensor> max_pool1d_global(const Tensor& x,
                                            const Tensor& out,
                                            const Tensor& indices) {
  HFTA_CHECK(x.dim() == 3, "max_pool1d_global: x must be [N,C,L]");
  const int64_t N = x.size(0), C = x.size(1), L = x.size(2);
  Tensor y = Tensor::empty_or(out, {N, C});
  Tensor idx = Tensor::empty_or(indices, {N, C});
  const float* px = x.data();
  float* py = y.data();
  float* pi = idx.data();
  parallel_for(Partition::work(N * C, L), [&](int64_t lo, int64_t hi) {
    for (int64_t nc = lo; nc < hi; ++nc) {
      const float* row = px + nc * L;
      float best = row[0];
      int64_t bi = 0;
      for (int64_t l = 1; l < L; ++l)
        if (row[l] > best) {
          best = row[l];
          bi = l;
        }
      py[nc] = best;
      pi[nc] = static_cast<float>(bi);
    }
  });
  return {y, idx};
}

Tensor max_pool1d_global_backward(const Tensor& gy, const Tensor& indices,
                                  const Shape& x_shape) {
  Tensor gx = Tensor::empty(x_shape);
  const int64_t L = x_shape[2];
  const int64_t NC = x_shape[0] * x_shape[1];
  const float* pg = gy.data();
  const float* pi = indices.data();
  float* px = gx.data();
  // Per [nc] row: zero its L elements, then one scatter write (0 + g, the
  // rounding of adding into zeros). Rows never alias across chunks.
  parallel_for(Partition::work(NC, L), [&](int64_t lo, int64_t hi) {
    vec::fill(0.f, px + lo * L, (hi - lo) * L);
    for (int64_t nc = lo; nc < hi; ++nc)
      px[nc * L + static_cast<int64_t>(pi[nc])] += pg[nc];
  });
  return gx;
}

}  // namespace hfta::ops
