// Unit tests for the tensor substrate: Tensor mechanics, broadcasting
// elementwise ops, reductions, GEMM family, grouped conv (the kernel the
// paper's fusion rules lower to), pooling, softmax, embedding.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "autograd/functions.h"
#include "tensor/conv.h"
#include "tensor/matmul.h"
#include "tensor/ops.h"
#include "tensor/pool.h"
#include "tensor/tensor.h"
#include "same_bits.h"

namespace hfta {
namespace {

using tests::expect_same_bits;

TEST(Tensor, ConstructionAndMetadata) {
  Tensor t({2, 3, 4});
  EXPECT_TRUE(t.defined());
  EXPECT_EQ(t.dim(), 3);
  EXPECT_EQ(t.numel(), 24);
  EXPECT_EQ(t.size(0), 2);
  EXPECT_EQ(t.size(-1), 4);
  for (int64_t i = 0; i < t.numel(); ++i) EXPECT_EQ(t.data()[i], 0.f);
}

TEST(Tensor, UndefinedTensor) {
  Tensor t;
  EXPECT_FALSE(t.defined());
}

TEST(Tensor, AtAccessorRowMajor) {
  Tensor t = Tensor::arange(6).reshape({2, 3});
  EXPECT_EQ(t.at({0, 0}), 0.f);
  EXPECT_EQ(t.at({0, 2}), 2.f);
  EXPECT_EQ(t.at({1, 0}), 3.f);
  EXPECT_EQ(t.at({1, 2}), 5.f);
  EXPECT_THROW(t.at({2, 0}), Error);
}

TEST(Tensor, ShallowCopySharesStorage) {
  Tensor a = Tensor::ones({4});
  Tensor b = a;
  b.data()[0] = 7.f;
  EXPECT_EQ(a.data()[0], 7.f);
  EXPECT_TRUE(a.shares_storage_with(b));
  Tensor c = a.clone();
  c.data()[1] = 9.f;
  EXPECT_EQ(a.data()[1], 1.f);
  EXPECT_FALSE(a.shares_storage_with(c));
}

TEST(Tensor, ReshapeInfersDim) {
  Tensor t = Tensor::arange(12);
  Tensor r = t.reshape({3, -1});
  EXPECT_EQ(r.size(1), 4);
  EXPECT_TRUE(t.shares_storage_with(r));
  EXPECT_THROW(t.reshape({5, -1}), Error);
}

TEST(Tensor, TransposeMaterializes) {
  Tensor t = Tensor::arange(6).reshape({2, 3});
  Tensor tt = t.transpose(0, 1);
  EXPECT_EQ(tt.size(0), 3);
  EXPECT_EQ(tt.size(1), 2);
  EXPECT_EQ(tt.at({0, 1}), 3.f);
  EXPECT_EQ(tt.at({2, 0}), 2.f);
}

TEST(Tensor, PermuteMatchesManual) {
  Tensor t = Tensor::arange(24).reshape({2, 3, 4});
  Tensor p = t.permute({2, 0, 1});  // [4, 2, 3]
  for (int64_t i = 0; i < 2; ++i)
    for (int64_t j = 0; j < 3; ++j)
      for (int64_t k = 0; k < 4; ++k)
        EXPECT_EQ(p.at({k, i, j}), t.at({i, j, k}));
}

TEST(Tensor, SliceCopiesRange) {
  Tensor t = Tensor::arange(24).reshape({2, 3, 4});
  Tensor s = t.slice(1, 1, 3);
  EXPECT_EQ(s.shape(), (Shape{2, 2, 4}));
  EXPECT_EQ(s.at({0, 0, 0}), t.at({0, 1, 0}));
  EXPECT_EQ(s.at({1, 1, 3}), t.at({1, 2, 3}));
}

TEST(Ops, BroadcastShapes) {
  EXPECT_EQ(ops::broadcast_shapes({2, 3}, {3}), (Shape{2, 3}));
  EXPECT_EQ(ops::broadcast_shapes({4, 1, 3}, {2, 1}), (Shape{4, 2, 3}));
  EXPECT_THROW(ops::broadcast_shapes({2, 3}, {4}), Error);
}

TEST(Ops, AddBroadcastBias) {
  Tensor x = Tensor::arange(6).reshape({2, 3});
  Tensor b = Tensor::from_data({3}, {10.f, 20.f, 30.f});
  Tensor y = ops::add(x, b);
  EXPECT_EQ(y.at({0, 0}), 10.f);
  EXPECT_EQ(y.at({1, 2}), 35.f);
}

TEST(Ops, MulBroadcastLeading) {
  // [B,1,F] * [B,N,F] — the fused-scheduler / fused-LayerNorm pattern.
  Tensor a = Tensor::from_data({2, 1, 2}, {1.f, 2.f, 3.f, 4.f});
  Tensor x = Tensor::ones({2, 3, 2});
  Tensor y = ops::mul(x, a);
  EXPECT_EQ(y.at({0, 2, 0}), 1.f);
  EXPECT_EQ(y.at({0, 2, 1}), 2.f);
  EXPECT_EQ(y.at({1, 0, 0}), 3.f);
  EXPECT_EQ(y.at({1, 2, 1}), 4.f);
}

TEST(Ops, ReduceToShapeInvertsBroadcast) {
  Tensor g = Tensor::ones({4, 2, 3});
  Tensor r = ops::reduce_to_shape(g, {2, 1});
  EXPECT_EQ(r.shape(), (Shape{2, 1}));
  EXPECT_EQ(r.at({0, 0}), 12.f);
}

TEST(Ops, SumOverDims) {
  Tensor t = Tensor::arange(24).reshape({2, 3, 4});
  Tensor s = ops::sum(t, {0, 2}, false);
  EXPECT_EQ(s.shape(), (Shape{3}));
  // sum over n,k of t[n,j,k]: j=0 -> (0+1+2+3)+(12+13+14+15) = 60
  EXPECT_EQ(s.at({0}), 60.f);
  Tensor sk = ops::sum(t, {0, 2}, true);
  EXPECT_EQ(sk.shape(), (Shape{1, 3, 1}));
}

TEST(Ops, SumRejectsADimNamedTwiceSoMeanCountsEachDimOnce) {
  const Tensor t = Tensor::ones({2, 4});
  try {
    ops::sum(t, {1, -1}, false);
    FAIL() << "sum over {1, -1} of a rank-2 tensor must throw";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("dim 1 is named twice (as -1)"),
              std::string::npos)
        << e.what();
  }
  // A repeated dim must not reach mean's count: reduced once but counted
  // twice, the mean of ones would read 0.25.
  EXPECT_THROW(ops::mean(t, {1, -1}, false), Error);
  EXPECT_THROW(ag::mean(ag::Variable(t.clone(), true), {0, -2}, true),
               Error);
  for (const std::vector<int64_t>& dims :
       {std::vector<int64_t>{1}, {-1}, {0, 1}, {-1, 0}}) {
    const Tensor m = ops::mean(t, dims, false);
    for (int64_t i = 0; i < m.numel(); ++i) EXPECT_EQ(m.data()[i], 1.f);
    const Tensor am = ag::mean(ag::Variable(t.clone(), true), dims, false)
                          .value();
    for (int64_t i = 0; i < am.numel(); ++i) EXPECT_EQ(am.data()[i], 1.f);
  }
}

TEST(Ops, MeanAll) {
  Tensor t = Tensor::arange(5);
  EXPECT_FLOAT_EQ(ops::mean_all(t).item(), 2.f);
}

TEST(Ops, MaxDimValuesAndIndices) {
  Tensor t = Tensor::from_data({2, 3}, {1.f, 5.f, 3.f, 9.f, 2.f, 4.f});
  auto [v, i] = ops::max_dim(t, 1, false);
  EXPECT_EQ(v.at({0}), 5.f);
  EXPECT_EQ(i.at({0}), 1.f);
  EXPECT_EQ(v.at({1}), 9.f);
  EXPECT_EQ(i.at({1}), 0.f);
}

TEST(Ops, ConcatSplitRoundTrip) {
  Rng rng(1);
  Tensor a = Tensor::randn({2, 3, 4}, rng);
  Tensor b = Tensor::randn({2, 5, 4}, rng);
  Tensor c = ops::concat({a, b}, 1);
  EXPECT_EQ(c.shape(), (Shape{2, 8, 4}));
  auto parts = ops::split(c, {3, 5}, 1);
  EXPECT_EQ(ops::max_abs_diff(parts[0], a), 0.f);
  EXPECT_EQ(ops::max_abs_diff(parts[1], b), 0.f);
}

TEST(Ops, SoftmaxRowsSumToOne) {
  Rng rng(2);
  Tensor x = Tensor::randn({4, 7}, rng);
  Tensor y = ops::softmax(x, 1);
  Tensor s = ops::sum(y, {1}, false);
  for (int64_t i = 0; i < 4; ++i) EXPECT_NEAR(s.at({i}), 1.f, 1e-5f);
}

TEST(Ops, LogSoftmaxMatchesLogOfSoftmax) {
  Rng rng(3);
  Tensor x = Tensor::randn({3, 5}, rng);
  Tensor a = ops::log_softmax(x, 1);
  Tensor b = ops::log(ops::softmax(x, 1));
  EXPECT_LT(ops::max_abs_diff(a, b), 1e-5f);
}

TEST(Ops, SoftmaxBackwardOnePassMatchesComposedBitwise) {
  // The one-pass row kernel against the composition it replaced, along every
  // dim (strided rows included), with masked logits (exact-zero
  // probabilities) and zero upstream gradients for signed-zero products.
  Rng rng(4);
  const std::vector<Shape> shapes = {
      {1, 1}, {4, 7}, {3, 5, 6}, {2, 3, 4, 9}, {5, 40}};
  for (const Shape& shape : shapes) {
    Tensor x = Tensor::randn(shape, rng);
    Tensor gy = Tensor::randn(shape, rng);
    for (int64_t i = 0; i < x.numel(); i += 4) x.data()[i] = -1e9f;
    for (int64_t i = 0; i < gy.numel(); i += 3) gy.data()[i] = 0.f;
    for (int64_t dim = 0; dim < x.dim(); ++dim) {
      const Tensor y = ops::softmax(x, dim);
      const Tensor want =
          ops::mul(y, ops::sub(gy, ops::sum(ops::mul(gy, y), {dim}, true)));
      const Tensor got = ops::softmax_backward(gy, y, dim);
      ASSERT_EQ(got.shape(), want.shape());
      EXPECT_EQ(std::memcmp(want.data(), got.data(),
                            sizeof(float) * static_cast<size_t>(want.numel())),
                0)
          << shape_str(shape) << " dim " << dim;
    }
  }
}

TEST(Ops, EmbeddingLookupAndBackward) {
  Tensor w = Tensor::arange(8).reshape({4, 2});  // V=4, E=2
  Tensor idx = Tensor::from_data({3}, {2.f, 0.f, 2.f});
  Tensor out = ops::embedding(idx, w);
  EXPECT_EQ(out.shape(), (Shape{3, 2}));
  EXPECT_EQ(out.at({0, 0}), 4.f);
  EXPECT_EQ(out.at({1, 1}), 1.f);
  Tensor gy = Tensor::ones({3, 2});
  Tensor gw = ops::embedding_backward(gy, idx, 4);
  EXPECT_EQ(gw.at({2, 0}), 2.f);  // index 2 hit twice
  EXPECT_EQ(gw.at({0, 0}), 1.f);
  EXPECT_EQ(gw.at({1, 0}), 0.f);
}

// ---- GEMM family -------------------------------------------------------------

TEST(Matmul, SmallKnownValues) {
  Tensor a = Tensor::from_data({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor b = Tensor::from_data({3, 2}, {7, 8, 9, 10, 11, 12});
  Tensor c = ops::matmul(a, b);
  EXPECT_EQ(c.at({0, 0}), 58.f);
  EXPECT_EQ(c.at({0, 1}), 64.f);
  EXPECT_EQ(c.at({1, 0}), 139.f);
  EXPECT_EQ(c.at({1, 1}), 154.f);
}

TEST(Matmul, TransposedVariantsAgree) {
  Rng rng(4);
  Tensor a = Tensor::randn({5, 3}, rng);
  Tensor b = Tensor::randn({3, 4}, rng);
  Tensor ref = ops::matmul(a, b);
  Tensor tn = ops::matmul(a.transpose(0, 1), b, true, false);
  Tensor nt = ops::matmul(a, b.transpose(0, 1), false, true);
  Tensor tt = ops::matmul(a.transpose(0, 1), b.transpose(0, 1), true, true);
  EXPECT_LT(ops::max_abs_diff(ref, tn), 1e-5f);
  EXPECT_LT(ops::max_abs_diff(ref, nt), 1e-5f);
  EXPECT_LT(ops::max_abs_diff(ref, tt), 1e-5f);
}

TEST(Matmul, BatchedMatchesPerBatchMatmul) {
  Rng rng(5);
  Tensor a = Tensor::randn({3, 4, 5}, rng);
  Tensor b = Tensor::randn({3, 5, 2}, rng);
  Tensor c = ops::matmul(a, b);
  for (int64_t i = 0; i < 3; ++i) {
    Tensor ci = ops::matmul(a.slice(0, i, i + 1).reshape({4, 5}),
                            b.slice(0, i, i + 1).reshape({5, 2}));
    EXPECT_LT(ops::max_abs_diff(c.slice(0, i, i + 1).reshape({4, 2}), ci),
              1e-5f);
  }
}

TEST(Matmul, GroupedLinearIsPerBlockLinear) {
  // The paper's Linear fusion: linear_forward(x [G,N,in], w [G*out,in],
  // b [G*out], groups = G). Block g runs the groups = 1 GEMM on run g alone,
  // so it matches that per-model linear bit for bit, with f32 operands and
  // with f16/bf16-quantized ones.
  Rng rng(6);
  const int64_t N = 4, in = 5, out = 2;
  for (int64_t G : {1, 3}) {
    Tensor bias = Tensor::randn({G * out}, rng);
    Tensor x = Tensor::randn({G, N, in}, rng);
    Tensor w = Tensor::randn({G * out, in}, rng);
    for (DType q : {DType::kF32, DType::kF16, DType::kBF16}) {
      Tensor y = ops::linear_forward(x, w, bias, G, q, q);
      Tensor y_nobias = ops::linear_forward(x, w, Tensor(), G, q, q);
      EXPECT_EQ(y.shape(), (Shape{G, N, out}));
      for (int64_t g = 0; g < G; ++g) {
        Tensor xg = x.slice(0, g, g + 1).reshape({N, in});
        Tensor wg = w.slice(0, g * out, (g + 1) * out);
        Tensor yg = ops::linear_forward(
            xg, wg, bias.slice(0, g * out, (g + 1) * out), 1, q, q);
        Tensor yg_nobias = ops::linear_forward(xg, wg, Tensor(), 1, q, q);
        EXPECT_EQ(0, std::memcmp(y.data() + g * N * out, yg.data(),
                                 sizeof(float) * N * out))
            << "groups " << G << " block " << g;
        EXPECT_EQ(0, std::memcmp(y_nobias.data() + g * N * out,
                                 yg_nobias.data(), sizeof(float) * N * out))
            << "groups " << G << " block " << g;
      }
    }
  }
}

TEST(Matmul, LinearForwardMatchesManual) {
  Rng rng(7);
  Tensor x = Tensor::randn({4, 3}, rng);
  Tensor w = Tensor::randn({2, 3}, rng);  // [out, in]
  Tensor b = Tensor::randn({2}, rng);
  Tensor y = ops::linear_forward(x, w, b);
  for (int64_t n = 0; n < 4; ++n)
    for (int64_t o = 0; o < 2; ++o) {
      float acc = b.at({o});
      for (int64_t i = 0; i < 3; ++i) acc += x.at({n, i}) * w.at({o, i});
      EXPECT_NEAR(y.at({n, o}), acc, 1e-5f);
    }
}

// ---- convolution ---------------------------------------------------------------

// Naive direct conv2d for cross-checking the im2col implementation.
Tensor conv2d_naive(const Tensor& x, const Tensor& w, const Tensor& b,
                    const ops::ConvArgs& a) {
  const int64_t N = x.size(0), Cin = x.size(1), H = x.size(2), W = x.size(3);
  const int64_t Cout = w.size(0), kh = w.size(2), kw = w.size(3);
  const int64_t Cing = Cin / a.groups, Coutg = Cout / a.groups;
  const int64_t Ho = ops::conv_out_size(H, kh, a.stride_h, a.pad_h);
  const int64_t Wo = ops::conv_out_size(W, kw, a.stride_w, a.pad_w);
  Tensor y({N, Cout, Ho, Wo});
  for (int64_t n = 0; n < N; ++n)
    for (int64_t co = 0; co < Cout; ++co) {
      const int64_t g = co / Coutg;
      for (int64_t oh = 0; oh < Ho; ++oh)
        for (int64_t ow = 0; ow < Wo; ++ow) {
          float acc = b.defined() ? b.at({co}) : 0.f;
          for (int64_t ci = 0; ci < Cing; ++ci)
            for (int64_t i = 0; i < kh; ++i)
              for (int64_t j = 0; j < kw; ++j) {
                const int64_t ih = oh * a.stride_h - a.pad_h + i;
                const int64_t iw = ow * a.stride_w - a.pad_w + j;
                if (ih < 0 || ih >= H || iw < 0 || iw >= W) continue;
                acc += x.at({n, g * Cing + ci, ih, iw}) * w.at({co, ci, i, j});
              }
          y.at({n, co, oh, ow}) = acc;
        }
    }
  return y;
}

struct ConvCase {
  int64_t N, Cin, H, W, Cout, k, stride, pad, groups;
};

class ConvParamTest : public ::testing::TestWithParam<ConvCase> {};

TEST_P(ConvParamTest, ForwardMatchesNaive) {
  const ConvCase c = GetParam();
  Rng rng(11);
  Tensor x = Tensor::randn({c.N, c.Cin, c.H, c.W}, rng);
  Tensor w = Tensor::randn({c.Cout, c.Cin / c.groups, c.k, c.k}, rng);
  Tensor b = Tensor::randn({c.Cout}, rng);
  const auto args = ops::ConvArgs::make(c.stride, c.pad, c.groups);
  Tensor y = ops::conv2d(x, w, b, args);
  Tensor ref = conv2d_naive(x, w, b, args);
  EXPECT_LT(ops::max_abs_diff(y, ref), 1e-4f);
}

TEST_P(ConvParamTest, GradInputMatchesNumerical) {
  const ConvCase c = GetParam();
  Rng rng(12);
  Tensor x = Tensor::randn({c.N, c.Cin, c.H, c.W}, rng);
  Tensor w = Tensor::randn({c.Cout, c.Cin / c.groups, c.k, c.k}, rng);
  const auto args = ops::ConvArgs::make(c.stride, c.pad, c.groups);
  Tensor y = ops::conv2d(x, w, Tensor(), args);
  Tensor gy = Tensor::randn(y.shape(), rng);
  Tensor gx = ops::conv2d_grad_input(gy, w, Tensor(), x.shape(), args);
  // Check a handful of coordinates by central differences on sum(y * gy).
  const float eps = 1e-2f;
  for (int64_t probe = 0; probe < 5; ++probe) {
    const int64_t i = rng.uniform_int(x.numel());
    const float orig = x.data()[i];
    x.data()[i] = orig + eps;
    const float up =
        ops::sum_all(ops::mul(ops::conv2d(x, w, Tensor(), args), gy)).item();
    x.data()[i] = orig - eps;
    const float dn =
        ops::sum_all(ops::mul(ops::conv2d(x, w, Tensor(), args), gy)).item();
    x.data()[i] = orig;
    EXPECT_NEAR(gx.data()[i], (up - dn) / (2 * eps), 2e-2f);
  }
}

TEST_P(ConvParamTest, GradWeightMatchesNumerical) {
  const ConvCase c = GetParam();
  Rng rng(13);
  Tensor x = Tensor::randn({c.N, c.Cin, c.H, c.W}, rng);
  Tensor w = Tensor::randn({c.Cout, c.Cin / c.groups, c.k, c.k}, rng);
  const auto args = ops::ConvArgs::make(c.stride, c.pad, c.groups);
  Tensor y = ops::conv2d(x, w, Tensor(), args);
  Tensor gy = Tensor::randn(y.shape(), rng);
  Tensor gw = ops::conv2d_grad_weight(gy, x, w.shape(), args);
  const float eps = 1e-2f;
  for (int64_t probe = 0; probe < 5; ++probe) {
    const int64_t i = rng.uniform_int(w.numel());
    const float orig = w.data()[i];
    w.data()[i] = orig + eps;
    const float up =
        ops::sum_all(ops::mul(ops::conv2d(x, w, Tensor(), args), gy)).item();
    w.data()[i] = orig - eps;
    const float dn =
        ops::sum_all(ops::mul(ops::conv2d(x, w, Tensor(), args), gy)).item();
    w.data()[i] = orig;
    EXPECT_NEAR(gw.data()[i], (up - dn) / (2 * eps), 2e-2f);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ConvParamTest,
    ::testing::Values(ConvCase{2, 3, 8, 8, 4, 3, 1, 1, 1},
                      ConvCase{1, 4, 7, 7, 6, 3, 2, 1, 2},
                      ConvCase{2, 6, 5, 5, 6, 1, 1, 0, 3},
                      ConvCase{1, 8, 6, 6, 8, 3, 1, 0, 8},   // depthwise
                      ConvCase{2, 6, 9, 9, 9, 5, 2, 2, 3}));

TEST(Conv, GroupedConvEqualsPerGroupConvs) {
  // The fusion identity itself at the kernel level: one grouped conv over
  // concatenated channels == independent convs per group.
  Rng rng(14);
  const int64_t B = 3, N = 2, C = 4, Cout = 5, H = 6, W = 6, k = 3;
  std::vector<Tensor> xs, ws, bs, ys;
  for (int64_t i = 0; i < B; ++i) {
    xs.push_back(Tensor::randn({N, C, H, W}, rng));
    ws.push_back(Tensor::randn({Cout, C, k, k}, rng));
    bs.push_back(Tensor::randn({Cout}, rng));
    ys.push_back(ops::conv2d(xs[i], ws[i], bs[i], ops::ConvArgs::make(1, 1)));
  }
  Tensor xf = ops::concat(xs, 1);                     // [N, B*C, H, W]
  Tensor wf = ops::concat(ws, 0);                     // [B*Cout, C, k, k]
  Tensor bf = ops::concat(bs, 0);                     // [B*Cout]
  Tensor yf = ops::conv2d(xf, wf, bf, ops::ConvArgs::make(1, 1, B));
  Tensor yref = ops::concat(ys, 1);
  EXPECT_LT(ops::max_abs_diff(yf, yref), 1e-4f);
}

TEST(Conv, Conv1dMatchesManual) {
  Rng rng(15);
  Tensor x = Tensor::randn({2, 3, 10}, rng);
  Tensor w = Tensor::randn({4, 3, 3}, rng);
  Tensor b = Tensor::randn({4}, rng);
  Tensor y = ag::conv(ag::constant(x), ag::constant(w), ag::constant(b),
                      ops::ConvArgs::make(1, 1))
                 .value();
  EXPECT_EQ(y.shape(), (Shape{2, 4, 10}));
  // Spot check one output.
  float acc = b.at({1});
  for (int64_t c = 0; c < 3; ++c)
    for (int64_t j = 0; j < 3; ++j) {
      const int64_t l = 4 - 1 + j;
      acc += x.at({0, c, l}) * w.at({1, c, j});
    }
  EXPECT_NEAR(y.at({0, 1, 4}), acc, 1e-4f);
}

// The transposed conv on the ag op: its forward and its x and w gradients
// (one backward through sum(convT(x) * gy), whose output gradient is gy).
struct ConvTransposeRun {
  Tensor y, gx, gw;
};
ConvTransposeRun conv_transpose_run(const Tensor& x, const Tensor& w,
                                    const Tensor& b, const Tensor& gy,
                                    const ops::ConvTransposeArgs& t) {
  ag::Variable xv(x, true), wv(w, true);
  ag::Variable y =
      ag::conv_transpose(xv, wv, b.defined() ? ag::constant(b) : ag::Variable(),
                         t);
  if (gy.defined()) ag::sum_all(ag::mul(y, ag::constant(gy))).backward();
  return {y.value(), xv.grad(), wv.grad()};
}

TEST(Conv, ConvTransposeShapeAndAdjoint) {
  // DCGAN generator shape: stride-2 upsampling.
  Rng rng(16);
  const int64_t N = 2, Cin = 6, Cout = 4, H = 5, k = 4;
  Tensor x = Tensor::randn({N, Cin, H, H}, rng);
  Tensor w = Tensor::randn({Cin, Cout, k, k}, rng);
  Tensor b = Tensor::randn({Cout}, rng);
  ops::ConvTransposeArgs t{2, 1, 0, 1};
  Tensor y = conv_transpose_run(x, w, b, Tensor(), t).y;
  EXPECT_EQ(y.size(2), ops::conv_transpose_out_size(H, k, 2, 1, 0));
  // Adjoint identity: <convT(x), gy> == <x, conv(gy)> (bias excluded).
  Tensor gy = Tensor::randn(y.shape(), rng);
  ConvTransposeRun nob = conv_transpose_run(x, w, Tensor(), gy, t);
  const float lhs = ops::sum_all(ops::mul(nob.y, gy)).item();
  const float rhs = ops::sum_all(ops::mul(x, nob.gx)).item();
  EXPECT_NEAR(lhs, rhs, std::fabs(lhs) * 1e-3f + 1e-2f);
  // Duality: the x gradient is the plain conv of gy by the same weight.
  expect_same_bits(ops::conv2d(gy, w, Tensor(), ops::ConvArgs::make(2, 1)),
                   nob.gx, "convT x.grad == conv2d(gy)");
}

TEST(Conv, ConvTransposeGradWeightNumerical) {
  Rng rng(17);
  const int64_t N = 1, Cin = 4, Cout = 2, H = 4, k = 3;
  Tensor x = Tensor::randn({N, Cin, H, H}, rng);
  Tensor w = Tensor::randn({Cin, Cout / 1, k, k}, rng);
  ops::ConvTransposeArgs t{2, 1, 1, 1};
  Tensor y = conv_transpose_run(x, w, Tensor(), Tensor(), t).y;
  Tensor gy = Tensor::randn(y.shape(), rng);
  Tensor gw = conv_transpose_run(x, w, Tensor(), gy, t).gw;
  const float eps = 1e-2f;
  for (int64_t probe = 0; probe < 5; ++probe) {
    const int64_t i = rng.uniform_int(w.numel());
    const float orig = w.data()[i];
    w.data()[i] = orig + eps;
    const float up =
        ops::sum_all(ops::mul(conv_transpose_run(x, w, Tensor(), Tensor(), t).y,
                              gy))
            .item();
    w.data()[i] = orig - eps;
    const float dn =
        ops::sum_all(ops::mul(conv_transpose_run(x, w, Tensor(), Tensor(), t).y,
                              gy))
            .item();
    w.data()[i] = orig;
    EXPECT_NEAR(gw.data()[i], (up - dn) / (2 * eps), 2e-2f);
  }
}

// ---- pooling --------------------------------------------------------------------

TEST(Pool, MaxPoolKnownValues) {
  Tensor x = Tensor::arange(16).reshape({1, 1, 4, 4});
  auto [y, idx] = ops::max_pool2d(x, ops::PoolArgs{2, 2, 0});
  EXPECT_EQ(y.shape(), (Shape{1, 1, 2, 2}));
  EXPECT_EQ(y.at({0, 0, 0, 0}), 5.f);
  EXPECT_EQ(y.at({0, 0, 1, 1}), 15.f);
  Tensor gy = Tensor::ones(y.shape());
  Tensor gx = ops::max_pool2d_backward(gy, idx, x.shape());
  EXPECT_EQ(gx.at({0, 0, 1, 1}), 1.f);
  EXPECT_EQ(gx.at({0, 0, 0, 0}), 0.f);
}

TEST(Pool, AdaptiveAvgPoolToOne) {
  Tensor x = Tensor::arange(8).reshape({1, 2, 2, 2});
  Tensor y = ops::adaptive_avg_pool2d(x, 1, 1);
  EXPECT_FLOAT_EQ(y.at({0, 0, 0, 0}), 1.5f);
  EXPECT_FLOAT_EQ(y.at({0, 1, 0, 0}), 5.5f);
  Tensor gy = Tensor::ones(y.shape());
  Tensor gx = ops::adaptive_avg_pool2d_backward(gy, x.shape());
  EXPECT_FLOAT_EQ(gx.at({0, 0, 0, 0}), 0.25f);
}

TEST(Pool, GlobalMax1d) {
  Tensor x = Tensor::from_data({1, 2, 3}, {1, 9, 2, 8, 3, 4});
  auto [y, idx] = ops::max_pool1d_global(x);
  EXPECT_EQ(y.at({0, 0}), 9.f);
  EXPECT_EQ(idx.at({0, 0}), 1.f);
  EXPECT_EQ(y.at({0, 1}), 8.f);
  Tensor gy = Tensor::ones({1, 2});
  Tensor gx = ops::max_pool1d_global_backward(gy, idx, x.shape());
  EXPECT_EQ(gx.at({0, 0, 1}), 1.f);
  EXPECT_EQ(gx.at({0, 1, 0}), 1.f);
  EXPECT_EQ(gx.at({0, 0, 0}), 0.f);
}

TEST(Ops, AccuracyMetric) {
  Tensor logits =
      Tensor::from_data({2, 3}, {0.1f, 0.9f, 0.f, 0.8f, 0.1f, 0.1f});
  Tensor labels = Tensor::from_data({2}, {1.f, 2.f});
  EXPECT_DOUBLE_EQ(ops::accuracy(logits, labels), 0.5);
}

}  // namespace
}  // namespace hfta
