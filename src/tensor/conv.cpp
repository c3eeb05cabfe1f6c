#include "tensor/conv.h"

#include <cstring>
#include <vector>

#include "core/parallel.h"
#include "core/storage_pool.h"
#include "core/vec.h"
#include "tensor/matmul.h"

namespace hfta::ops {

int64_t conv_out_size(int64_t in, int64_t kernel, int64_t stride, int64_t pad) {
  return (in + 2 * pad - kernel) / stride + 1;
}

int64_t conv_transpose_out_size(int64_t in, int64_t kernel, int64_t stride,
                                int64_t pad, int64_t out_pad) {
  return (in - 1) * stride - 2 * pad + kernel + out_pad;
}

namespace {

// Unfolds the [C, H, W] block at `x` into cols [C*kh*kw, Ho*Wo].
void im2col(const float* x, int64_t C, int64_t H, int64_t W, int64_t kh,
            int64_t kw, int64_t sh, int64_t sw, int64_t ph, int64_t pw,
            int64_t Ho, int64_t Wo, float* cols) {
  for (int64_t c = 0; c < C; ++c) {
    for (int64_t i = 0; i < kh; ++i) {
      for (int64_t j = 0; j < kw; ++j) {
        float* row = cols + ((c * kh + i) * kw + j) * Ho * Wo;
        for (int64_t oh = 0; oh < Ho; ++oh) {
          const int64_t ih = oh * sh - ph + i;
          if (ih < 0 || ih >= H) {
            std::memset(row + oh * Wo, 0, sizeof(float) * static_cast<size_t>(Wo));
            continue;
          }
          const float* src = x + (c * H + ih) * W;
          for (int64_t ow = 0; ow < Wo; ++ow) {
            const int64_t iw = ow * sw - pw + j;
            row[oh * Wo + ow] = (iw >= 0 && iw < W) ? src[iw] : 0.f;
          }
        }
      }
    }
  }
}

// Adjoint of im2col: accumulates cols [C*kh*kw, Ho*Wo] back into the
// [C, H, W] block at `x`.
void col2im(const float* cols, int64_t C, int64_t H, int64_t W, int64_t kh,
            int64_t kw, int64_t sh, int64_t sw, int64_t ph, int64_t pw,
            int64_t Ho, int64_t Wo, float* x) {
  for (int64_t c = 0; c < C; ++c) {
    for (int64_t i = 0; i < kh; ++i) {
      for (int64_t j = 0; j < kw; ++j) {
        const float* row = cols + ((c * kh + i) * kw + j) * Ho * Wo;
        for (int64_t oh = 0; oh < Ho; ++oh) {
          const int64_t ih = oh * sh - ph + i;
          if (ih < 0 || ih >= H) continue;
          float* dst = x + (c * H + ih) * W;
          for (int64_t ow = 0; ow < Wo; ++ow) {
            const int64_t iw = ow * sw - pw + j;
            if (iw >= 0 && iw < W) dst[iw] += row[oh * Wo + ow];
          }
        }
      }
    }
  }
}

struct ConvDims {
  int64_t N, Cin, H, W, Cout, Cing, Coutg, kh, kw, Ho, Wo;
};

ConvDims check_conv(const Shape& x_shape, const Shape& w_shape,
                    const ConvArgs& a) {
  HFTA_CHECK(x_shape.size() == 4, "conv2d: x must be 4-D, got ",
             shape_str(x_shape));
  HFTA_CHECK(w_shape.size() == 4, "conv2d: w must be 4-D, got ",
             shape_str(w_shape));
  ConvDims d;
  d.N = x_shape[0];
  d.Cin = x_shape[1];
  d.H = x_shape[2];
  d.W = x_shape[3];
  d.Cout = w_shape[0];
  d.kh = w_shape[2];
  d.kw = w_shape[3];
  HFTA_CHECK(a.groups >= 1 && d.Cin % a.groups == 0 && d.Cout % a.groups == 0,
             "conv2d: Cin ", d.Cin, " / Cout ", d.Cout,
             " not divisible by groups ", a.groups);
  d.Cing = d.Cin / a.groups;
  d.Coutg = d.Cout / a.groups;
  HFTA_CHECK(w_shape[1] == d.Cing, "conv2d: w Cin/g ", w_shape[1], " != ",
             d.Cing);
  d.Ho = conv_out_size(d.H, d.kh, a.stride_h, a.pad_h);
  d.Wo = conv_out_size(d.W, d.kw, a.stride_w, a.pad_w);
  HFTA_CHECK(d.Ho > 0 && d.Wo > 0, "conv2d: empty output ", d.Ho, "x", d.Wo);
  return d;
}

// The bias epilogue of both forward kernels, run on one (sample, group)
// block once its last write is done: adds b[c0 + c] to each of the
// `spatial` elements of the block's channel c (one rounding per element).
// A null b is no bias.
void add_bias(float* y, const float* b, int64_t c0, int64_t C,
              int64_t spatial) {
  if (b == nullptr) return;
  for (int64_t c = 0; c < C; ++c)
    vec::unary(vec::UnOp::kAddScalar, b[c0 + c], 0.f, y + c * spatial,
               y + c * spatial, spatial);
}

}  // namespace

// The three kernels below hand their quantize policies to the im2col GEMMs,
// which round those operands during packing and accumulate in f32 (the AMP
// compute policy).
Tensor conv2d(const Tensor& x, const Tensor& w, const Tensor& b,
              const ConvArgs& a, DType qx, DType qw, const Tensor& out) {
  const ConvDims d = check_conv(x.shape(), w.shape(), a);
  if (b.defined())
    HFTA_CHECK(b.numel() == d.Cout, "conv2d: bias numel ", b.numel(), " != ",
               d.Cout);
  Tensor y = Tensor::empty_or(out, {d.N, d.Cout, d.Ho, d.Wo});
  const int64_t col_rows = d.Cing * d.kh * d.kw;
  const int64_t spatial = d.Ho * d.Wo;
  const float* px = x.data();
  const float* pw = w.data();
  const float* pb = b.defined() ? b.data() : nullptr;
  float* py = y.data();

  // One im2col + gemm-packing slab for the whole launch, acquired on the
  // launching thread (a chunk's scratch lives at its chunk index); pool
  // traffic from inside the body would make warm-pool state depend on
  // chunk->lane scheduling.
  const Partition part = Partition::rows(d.N);
  const int64_t gemm_fl = gemm_scratch_floats(d.Coutg, spatial, col_rows);
  const int64_t scratch = col_rows * spatial + gemm_fl;
  PooledBuffer cols_all(part.num_chunks() * scratch);
  float* pcols = cols_all.data();
  parallel_for(part, [&](int64_t lo, int64_t hi) {
    float* cols = pcols + part.chunk_index(lo) * scratch;
    float* gs = cols + col_rows * spatial;
    for (int64_t n = lo; n < hi; ++n) {
      for (int64_t g = 0; g < a.groups; ++g) {
        const float* xg = px + (n * d.Cin + g * d.Cing) * d.H * d.W;
        im2col(xg, d.Cing, d.H, d.W, d.kh, d.kw, a.stride_h, a.stride_w,
               a.pad_h, a.pad_w, d.Ho, d.Wo, cols);
        float* yg = py + (n * d.Cout + g * d.Coutg) * spatial;
        // [Coutg, col_rows] @ [col_rows, spatial]
        gemm(pw + g * d.Coutg * col_rows, cols, yg, d.Coutg, spatial,
             col_rows, false, false, 1.f, 0.f, gs, qw, qx);
        add_bias(yg, pb, g * d.Coutg, d.Coutg, spatial);
      }
    }
  });
  return y;
}

Tensor conv2d_grad_input(const Tensor& gy, const Tensor& w, const Tensor& b,
                         const Shape& x_shape, const ConvArgs& a, DType qgy,
                         DType qw, const Tensor& out) {
  const ConvDims d = check_conv(x_shape, w.shape(), a);
  HFTA_CHECK(gy.shape() == (Shape{d.N, d.Cout, d.Ho, d.Wo}),
             "conv2d_grad_input: gy shape ", shape_str(gy.shape()));
  if (b.defined())
    HFTA_CHECK(b.numel() == d.Cin, "conv2d_grad_input: bias numel ",
               b.numel(), " != ", d.Cin);
  // col2im accumulates, so each chunk zeroes the samples it then writes.
  Tensor gx = Tensor::empty_or(out, x_shape);
  const int64_t col_rows = d.Cing * d.kh * d.kw;
  const int64_t spatial = d.Ho * d.Wo;
  const float* pgy = gy.data();
  const float* pw = w.data();
  const float* pb = b.defined() ? b.data() : nullptr;
  float* pgx = gx.data();

  // All scratch is acquired here, on the launching thread: per-chunk slots
  // holding the im2col slab plus the gemm packing area. The weight transpose
  // is absorbed by the packed kernel's TN path (pack_a transposes while
  // packing) — the old materialized W^T slab is gone.
  const Partition part = Partition::rows(d.N);
  const int64_t gemm_fl = gemm_scratch_floats(col_rows, spatial, d.Coutg);
  const int64_t scratch = col_rows * spatial + gemm_fl;
  PooledBuffer cols_all(part.num_chunks() * scratch);
  float* pcols = cols_all.data();
  parallel_for(part, [&](int64_t lo, int64_t hi) {
    float* cols = pcols + part.chunk_index(lo) * scratch;
    float* gs = cols + col_rows * spatial;
    vec::fill(0.f, pgx + lo * d.Cin * d.H * d.W, (hi - lo) * d.Cin * d.H * d.W);
    for (int64_t n = lo; n < hi; ++n) {
      for (int64_t g = 0; g < a.groups; ++g) {
        const float* gyg = pgy + (n * d.Cout + g * d.Coutg) * spatial;
        // cols = Wg^T [col_rows, Coutg] @ gy [Coutg, spatial]
        gemm(pw + g * d.Coutg * col_rows, gyg, cols, col_rows, spatial,
             d.Coutg, true, false, 1.f, 0.f, gs, qw, qgy);
        float* xg = pgx + (n * d.Cin + g * d.Cing) * d.H * d.W;
        col2im(cols, d.Cing, d.H, d.W, d.kh, d.kw, a.stride_h,
               a.stride_w, a.pad_h, a.pad_w, d.Ho, d.Wo, xg);
        add_bias(xg, pb, g * d.Cing, d.Cing, d.H * d.W);
      }
    }
  });
  return gx;
}

Tensor conv2d_grad_weight(const Tensor& gy, const Tensor& x,
                          const Shape& w_shape, const ConvArgs& a, DType qgy,
                          DType qx) {
  const ConvDims d = check_conv(x.shape(), w_shape, a);
  Tensor gw(w_shape);
  const int64_t col_rows = d.Cing * d.kh * d.kw;
  const int64_t spatial = d.Ho * d.Wo;
  const float* px = x.data();
  const float* pgy = gy.data();
  float* pgw = gw.data();

  // Parallel over groups (race-free: each group owns a weight slice); fused
  // workloads have many groups. For groups == 1 the inner GEMM itself is the
  // dominant cost and still benefits from vectorization.
  // Per-chunk slots (im2col slab + gemm packing area) acquired up front on
  // the launching thread — no pool traffic inside the body.
  const Partition part = Partition::rows(a.groups);
  const int64_t gemm_fl = gemm_scratch_floats(d.Coutg, col_rows, spatial);
  const int64_t scratch = col_rows * spatial + gemm_fl;
  PooledBuffer cols_all(part.num_chunks() * scratch);
  float* pcols = cols_all.data();
  parallel_for(part, [&](int64_t glo, int64_t ghi) {
    float* cols = pcols + part.chunk_index(glo) * scratch;
    float* gs = cols + col_rows * spatial;
    for (int64_t g = glo; g < ghi; ++g) {
      float* gwg = pgw + g * d.Coutg * col_rows;
      for (int64_t n = 0; n < d.N; ++n) {
        const float* xg = px + (n * d.Cin + g * d.Cing) * d.H * d.W;
        im2col(xg, d.Cing, d.H, d.W, d.kh, d.kw, a.stride_h, a.stride_w,
               a.pad_h, a.pad_w, d.Ho, d.Wo, cols);
        const float* gyg = pgy + (n * d.Cout + g * d.Coutg) * spatial;
        // gW += gy [Coutg, spatial] @ cols^T [spatial, col_rows]
        gemm(gyg, cols, gwg, d.Coutg, col_rows, spatial, false, true,
             1.f, 1.f, gs, qgy, qx);
      }
    }
  });
  return gw;
}

}  // namespace hfta::ops
