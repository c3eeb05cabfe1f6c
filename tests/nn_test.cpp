// nn module library tests: layers, normalization, dropout, optimizers,
// schedulers, and a small end-to-end training sanity check.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "core/parallel.h"
#include "core/vec.h"

#include "hfta/fused_optim.h"
#include "hfta/fused_sched.h"
#include "hfta/train.h"
#include "models/transformer.h"
#include "nn/layers.h"
#include "nn/norm.h"
#include "nn/optim.h"
#include "tensor/ops.h"
#include "same_bits.h"

namespace hfta::nn {
namespace {

TEST(Module, ParameterRegistrationAndNames) {
  Rng rng(1);
  Sequential seq;
  seq.push_back(std::make_shared<Linear>(4, 8, true, rng));
  seq.push_back(std::make_shared<ReLU>());
  seq.push_back(std::make_shared<Linear>(8, 2, true, rng));
  auto named = seq.named_parameters();
  ASSERT_EQ(named.size(), 4u);
  EXPECT_EQ(named[0].first, "0.weight");
  EXPECT_EQ(named[1].first, "0.bias");
  EXPECT_EQ(named[2].first, "2.weight");
  EXPECT_EQ(seq.num_parameters(), 4 * 8 + 8 + 8 * 2 + 2);
}

TEST(Module, ZeroGradClearsGrads) {
  Rng rng(2);
  Linear lin(3, 2, true, rng);
  ag::Variable x(Tensor::randn({4, 3}, rng));
  ag::sum_all(lin.forward(x)).backward();
  EXPECT_GT(ops::max_abs_diff(lin.weight.grad(),
                              Tensor::zeros(lin.weight.shape())),
            0.f);
  lin.zero_grad();
  EXPECT_EQ(ops::max_abs_diff(lin.weight.grad(),
                              Tensor::zeros(lin.weight.shape())),
            0.f);
}

TEST(Module, TrainEvalPropagates) {
  Rng rng(3);
  auto drop = std::make_shared<Dropout>(0.5f);
  Sequential seq;
  seq.push_back(drop);
  seq.eval();
  EXPECT_FALSE(drop->is_training());
  seq.train();
  EXPECT_TRUE(drop->is_training());
}

TEST(Layers, LinearShapes) {
  Rng rng(4);
  Linear lin(6, 3, true, rng);
  ag::Variable x(Tensor::randn({5, 6}, rng));
  EXPECT_EQ(lin.forward(x).shape(), (Shape{5, 3}));
}

TEST(Layers, Conv2dOutputShape) {
  Rng rng(5);
  Conv2d conv(3, 8, 3, 2, 1, 1, true, rng);
  ag::Variable x(Tensor::randn({2, 3, 16, 16}, rng));
  EXPECT_EQ(conv.forward(x).shape(), (Shape{2, 8, 8, 8}));
}

TEST(Layers, ConvTranspose2dUpsamples) {
  Rng rng(6);
  ConvTranspose2d conv(8, 4, 4, 2, 1, 0, 1, false, rng);
  ag::Variable x(Tensor::randn({2, 8, 5, 5}, rng));
  EXPECT_EQ(conv.forward(x).shape(), (Shape{2, 4, 10, 10}));
}

TEST(Layers, DropoutEvalIsIdentityAndTrainScales) {
  Rng rng(7);
  Dropout drop(0.5f, 99);
  ag::Variable x(Tensor::ones({1000}));
  drop.eval();
  EXPECT_EQ(ops::max_abs_diff(drop.forward(x).value(), x.value()), 0.f);
  drop.train();
  Tensor y = drop.forward(x).value();
  // Entries are 0 or 2; mean stays ~1.
  int64_t zeros = 0;
  for (int64_t i = 0; i < y.numel(); ++i) {
    EXPECT_TRUE(y.data()[i] == 0.f || y.data()[i] == 2.f);
    zeros += y.data()[i] == 0.f;
  }
  EXPECT_NEAR(static_cast<double>(zeros) / 1000.0, 0.5, 0.08);
}

TEST(Layers, Dropout2dDropsWholeChannels) {
  Rng rng(8);
  Dropout2d drop(0.5f, 123);
  ag::Variable x(Tensor::ones({2, 16, 3, 3}));
  Tensor y = drop.forward(x).value();
  for (int64_t n = 0; n < 2; ++n)
    for (int64_t c = 0; c < 16; ++c) {
      const float first = y.at({n, c, 0, 0});
      for (int64_t h = 0; h < 3; ++h)
        for (int64_t w = 0; w < 3; ++w)
          EXPECT_EQ(y.at({n, c, h, w}), first);
    }
}

// ag::dropout at block = H*W is Dropout2d's channel dropout, written out
// here as the per-plane loop: one Bernoulli draw per [n, c] plane,
// broadcast over the plane, then x * mask; the gradient is gy * mask,
// written into the fresh leaf gradient as (gy * mask) + 0 (Engine).
TEST(Layers, DropoutAtPlaneBlocksMatchesThePerPlaneLoop) {
  Rng data(81);
  const int64_t N = 2, C = 5, HW = 3 * 4;
  const float p = 0.3f;
  Tensor x = Tensor::randn({N, C, 3, 4}, data);
  Tensor gy = Tensor::randn({N, C, 3, 4}, data);

  Rng ref_rng(0x5eed2d);
  Tensor mask(x.shape());
  const float scale = 1.f / (1.f - p);
  for (int64_t nc = 0; nc < N * C; ++nc) {
    const float v = ref_rng.bernoulli(p) ? 0.f : scale;
    for (int64_t s = 0; s < HW; ++s) mask.data()[nc * HW + s] = v;
  }
  const Tensor want_y = ops::mul(x, mask);
  const Tensor want_gx = ops::add_scalar(ops::mul(gy, mask), 0.f);

  Rng op_rng(0x5eed2d);
  ag::Variable xv(x.clone(), true);
  ag::Variable y = ag::dropout(xv, p, op_rng, HW);
  y.backward(gy);
  tests::expect_same_bits(want_y, y.value(), "ag::dropout y");
  tests::expect_same_bits(want_gx, xv.grad(), "ag::dropout gx");
  EXPECT_EQ(op_rng.next_u64(), ref_rng.next_u64()) << "stream position";

  Dropout2d drop(p);  // seeded 0x5eed2d, the reference's stream
  tests::expect_same_bits(want_y, drop.forward(ag::Variable(x)).value(),
                          "Dropout2d y");
}

TEST(Norm, BatchNorm2dNormalizesBatch) {
  Rng rng(9);
  BatchNorm2d bn(4);
  ag::Variable x(Tensor::randn({8, 4, 5, 5}, rng));
  Tensor y = bn.forward(x).value();
  // Per-channel mean ~0, var ~1.
  Tensor m = ops::mean(y, {0, 2, 3}, false);
  for (int64_t c = 0; c < 4; ++c) EXPECT_NEAR(m.at({c}), 0.f, 1e-4f);
  Tensor v = ops::mean(ops::mul(y, y), {0, 2, 3}, false);
  for (int64_t c = 0; c < 4; ++c) EXPECT_NEAR(v.at({c}), 1.f, 1e-2f);
}

TEST(Norm, BatchNormRunningStatsConvergeAndEvalUsesThem) {
  Rng rng(10);
  BatchNorm1d bn(3);
  // Feed batches with mean 2, std 1 -> running_mean -> 2.
  for (int i = 0; i < 200; ++i) {
    Tensor x = Tensor::randn({64, 3}, rng);
    x.add_(Tensor::full({64, 3}, 2.f));
    bn.forward(ag::Variable(x));
  }
  EXPECT_NEAR(bn.running_mean.at({0}), 2.f, 0.15f);
  EXPECT_NEAR(bn.running_var.at({0}), 1.f, 0.25f);
  bn.eval();
  Tensor x = Tensor::full({4, 3}, 2.f);
  Tensor y = bn.forward(ag::Variable(x)).value();
  for (int64_t i = 0; i < y.numel(); ++i) EXPECT_NEAR(y.data()[i], 0.f, 0.3f);
}

TEST(Norm, LayerNormPerRow) {
  Rng rng(11);
  LayerNorm ln({6}, 1e-5f, rng);
  ag::Variable x(Tensor::randn({4, 6}, rng));
  Tensor y = ln.forward(x).value();
  for (int64_t n = 0; n < 4; ++n) {
    float mean = 0.f, var = 0.f;
    for (int64_t e = 0; e < 6; ++e) mean += y.at({n, e});
    mean /= 6.f;
    for (int64_t e = 0; e < 6; ++e) {
      const float d = y.at({n, e}) - mean;
      var += d * d;
    }
    EXPECT_NEAR(mean, 0.f, 1e-4f);
    EXPECT_NEAR(var / 6.f, 1.f, 1e-2f);
  }
}

// ---- BatchNorm as one op: bit-identity with the composed chain ---------------

// One BatchNorm call's inputs: x [N, C, *], affine, running stats and the
// upstream gradient.
struct BnCase {
  Tensor x, w, b, rm, rv, gy;
};

// Everything one BatchNorm step produces.
struct BnOut {
  Tensor y, mean, var, rm, rv, gx, gw, gb;
};

constexpr float kBnEps = 1e-5f;
constexpr float kBnMomentum = 0.1f;

// The composed autograd chain BatchNorm ran before ag::batch_norm (sum,
// mul_scalar, sub, mul, sum, mul_scalar, add_scalar, pow_scalar, sub, mul,
// reshape, mul, reshape, add), with its running-stat update: the reference
// the one-op kernel must match bit for bit.
BnOut composed_batch_norm(const BnCase& c, bool training, bool x_grad) {
  const int64_t C = c.x.size(1);
  std::vector<int64_t> dims{0};
  for (int64_t d = 2; d < c.x.dim(); ++d) dims.push_back(d);
  Shape bshape(static_cast<size_t>(c.x.dim()), 1);
  bshape[1] = C;
  ag::Variable x(c.x.clone(), x_grad);
  ag::Variable w(c.w.clone(), true), b(c.b.clone(), true);
  BnOut out;
  out.rm = c.rm.clone();
  out.rv = c.rv.clone();
  ag::Variable mean_v, var_v;
  if (training) {
    mean_v = ag::mean(x, dims, /*keepdim=*/true);
    ag::Variable centered = ag::sub(x, mean_v);
    var_v = ag::mean(ag::mul(centered, centered), dims, true);
    out.mean = mean_v.value().reshape({C});
    out.var = var_v.value().reshape({C});
    const int64_t count = c.x.numel() / C;
    const float unbias = count > 1 ? static_cast<float>(count) /
                                         static_cast<float>(count - 1)
                                   : 1.f;
    out.rm.mul_(1.f - kBnMomentum);
    out.rm.add_(out.mean, kBnMomentum);
    out.rv.mul_(1.f - kBnMomentum);
    Tensor unbiased = out.var.clone();
    unbiased.mul_(unbias);
    out.rv.add_(unbiased, kBnMomentum);
  } else {
    mean_v = ag::constant(out.rm.reshape(bshape));
    var_v = ag::constant(out.rv.reshape(bshape));
  }
  ag::Variable inv_std =
      ag::pow_scalar(ag::add_scalar(var_v, kBnEps), -0.5f);
  ag::Variable xhat = ag::mul(ag::sub(x, mean_v), inv_std);
  ag::Variable y = ag::add(ag::mul(xhat, ag::reshape(w, bshape)),
                           ag::reshape(b, bshape));
  y.backward(c.gy);
  out.y = y.value();
  if (x_grad) out.gx = x.grad();
  out.gw = w.grad();
  out.gb = b.grad();
  return out;
}

// The same step through the module (one ag::batch_norm op, which runs the
// running-stat update after its kernel); the batch statistics come from a
// direct kernel call.
template <int R>
BnOut one_op_batch_norm_at(const BnCase& c, bool training, bool x_grad) {
  const int64_t C = c.x.size(1);
  auto bn = std::make_shared<BatchNorm<R>>(C, kBnEps, kBnMomentum);
  bn->weight.mutable_value().copy_(c.w);
  bn->bias.mutable_value().copy_(c.b);
  bn->running_mean.copy_(c.rm);
  bn->running_var.copy_(c.rv);
  if (!training) bn->eval();
  ag::Variable x(c.x.clone(), x_grad);
  ag::Variable y = bn->forward(x);
  y.backward(c.gy);
  BnOut out;
  out.y = y.value();
  out.rm = bn->running_mean;
  out.rv = bn->running_var;
  if (x_grad) out.gx = x.grad();
  out.gw = bn->weight.grad();
  out.gb = bn->bias.grad();
  if (training) {
    out.mean = Tensor::empty({C});
    out.var = Tensor::empty({C});
    ops::batch_norm_forward(c.x, c.w, c.b, out.mean, out.var,
                            /*training=*/true, kBnEps);
  }
  return out;
}

BnOut one_op_batch_norm(const BnCase& c, bool training, bool x_grad) {
  return c.x.dim() == 4 ? one_op_batch_norm_at<2>(c, training, x_grad)
                        : one_op_batch_norm_at<1>(c, training, x_grad);
}

using tests::expect_same_bits;

// Random data with the edge cases folded in: channel 0 constant (variance
// 0), channel 1 holding +0 and -0 (as do the weight and bias), and zeros
// in the upstream gradient (so products with negative factors give -0).
BnCase make_bn_case(const Shape& shape, Rng& rng) {
  const int64_t C = shape[1];
  BnCase c{Tensor::randn(shape, rng), Tensor::randn({C}, rng),
           Tensor::randn({C}, rng),   Tensor::randn({C}, rng),
           Tensor::rand({C}, rng, 0.5f, 2.f), Tensor::randn(shape, rng)};
  const int64_t S = c.x.numel() / (shape[0] * C);
  for (int64_t n = 0; n < shape[0]; ++n) {
    float* row = c.x.data() + n * C * S;
    for (int64_t s = 0; s < S; ++s) {
      row[s] = 0.75f;                                         // channel 0
      if (C > 1) row[S + s] = (n + s) % 2 == 0 ? 0.f : -0.f;  // channel 1
    }
  }
  for (int64_t i = 0; i < c.gy.numel(); i += 3) c.gy.data()[i] = 0.f;
  c.w.data()[0] = -0.f;
  c.b.data()[C - 1] = -0.f;
  if (C > 2) c.w.data()[2] = 0.f;
  return c;
}

// Per-channel sum, mean and biased variance of x as plain loops: one chain
// from +0 per channel in ascending (n, s), mean = sum * (1/count), the
// variance a chain of squared deviations.
struct PlainStats {
  Tensor sum, mean, var;
};

PlainStats plain_channel_stats(const Tensor& x) {
  const int64_t N = x.size(0), C = x.size(1), S = x.numel() / (N * C);
  const float inv = 1.f / static_cast<float>(N * S);
  PlainStats p{Tensor::empty({C}), Tensor::empty({C}), Tensor::empty({C})};
  const float* px = x.data();
  for (int64_t c = 0; c < C; ++c) {
    float s1 = 0.f;
    for (int64_t n = 0; n < N; ++n)
      for (int64_t s = 0; s < S; ++s) s1 += px[(n * C + c) * S + s];
    const float m = s1 * inv;
    float s2 = 0.f;
    for (int64_t n = 0; n < N; ++n) {
      for (int64_t s = 0; s < S; ++s) {
        const float d = px[(n * C + c) * S + s] - m;
        s2 += d * d;
      }
    }
    p.sum.data()[c] = s1;
    p.mean.data()[c] = m;
    p.var.data()[c] = s2 * inv;
  }
  return p;
}

TEST(Norm, BatchNormOpBitIdenticalToComposedChain) {
  const int saved_threads = num_threads();
  Rng rng(2024);
  // Edge shapes where a channel holds one element (N * spatial = 1), then
  // seeded [N, C], [N, C, L] and [N, C, H, W] shapes.
  std::vector<Shape> shapes = {{1, 3}, {1, 3, 1}, {1, 4, 1, 1}};
  auto draw = [&rng](int64_t lo, int64_t hi) {
    return lo + rng.uniform_int(hi - lo + 1);
  };
  for (int i = 0; i < 4; ++i) {
    shapes.push_back({draw(1, 6), draw(1, 7)});
    shapes.push_back({draw(1, 4), draw(1, 7), draw(1, 9)});
    shapes.push_back({draw(1, 3), draw(1, 6), draw(1, 5), draw(1, 5)});
  }
  // Full and partial vec::kLanes channel blocks, at spatial sizes with and
  // without a partial tile of positions: [N, C] for S = 1, [N, C, L] for 3
  // and 13, [N, C, H, W] for 8 and 64 (N from 1 to 3).
  for (int64_t C : {8, 9, 16, 17, 64}) {
    const int64_t N = 1 + C % 3;
    shapes.push_back({N, C});
    for (int64_t L : {3, 13}) shapes.push_back({N, C, L});
    shapes.push_back({N, C, 2, 4});
    shapes.push_back({N, C, 8, 8});
  }
  // Eight channel blocks of 8 * 16 * 64 elements each: more work than
  // Partition::kWorkFloor, so the kernels run the blocks in several chunks.
  shapes.push_back({16, 64, 64});
  for (const Shape& shape : shapes) {
    const BnCase c = make_bn_case(shape, rng);
    const PlainStats plain = plain_channel_stats(c.x);
    std::vector<int64_t> all_but_1 = {0};
    for (int64_t d = 2; d < c.x.dim(); ++d) all_but_1.push_back(d);
    for (int nt : {1, 3, 4, 8}) {
      set_num_threads(nt);
      for (bool simd : {false, true}) {
        vec::set_simd_enabled(simd);
        const std::string run = shape_str(shape) + " nt=" +
                                std::to_string(nt) + " simd=" +
                                std::to_string(simd);
        expect_same_bits(plain.sum, ops::sum(c.x, all_but_1, false),
                         run + " channel sum");
        for (bool training : {true, false}) {
          for (bool x_grad : {true, false}) {
            const std::string tag = run + (training ? " train" : " eval") +
                                    (x_grad ? "" : " x-const");
            const BnOut want = composed_batch_norm(c, training, x_grad);
            const BnOut got = one_op_batch_norm(c, training, x_grad);
            expect_same_bits(want.y, got.y, tag + " y");
            expect_same_bits(want.mean, got.mean, tag + " batch mean");
            expect_same_bits(want.var, got.var, tag + " batch var");
            if (training) {
              expect_same_bits(plain.mean, got.mean, tag + " plain mean");
              expect_same_bits(plain.var, got.var, tag + " plain var");
            }
            expect_same_bits(want.rm, got.rm, tag + " running_mean");
            expect_same_bits(want.rv, got.rv, tag + " running_var");
            expect_same_bits(want.gx, got.gx, tag + " x grad");
            expect_same_bits(want.gw, got.gw, tag + " weight grad");
            expect_same_bits(want.gb, got.gb, tag + " bias grad");
          }
        }
      }
    }
  }
  vec::set_simd_enabled(true);
  set_num_threads(saved_threads);
}

// ---- LayerNorm as one op: bit-identity with the composed chain ---------------

// One LayerNorm call: x [rows..., norm...] split into G equal row runs, the
// affine (norm... with its first dim scaled by G, as nn::LayerNorm at array
// size G holds it) and the upstream gradient.
struct LnCase {
  Shape norm;
  int64_t G;
  Tensor x, w, b, gy;
};

struct LnOut {
  Tensor y, gx, gw, gb;
};

constexpr float kLnEps = 1e-5f;

// The 9-op chain LayerNorm ran before ag::layer_norm (mean, sub, mul, mean,
// add_scalar, pow_scalar, mul, mul, add; with G > 1 the affine is first
// viewed as [G, 1..., norm...]): the reference the one-op kernel must match
// bit for bit.
LnOut composed_layer_norm(const LnCase& c) {
  const int64_t nd = c.x.dim();
  const int64_t n = static_cast<int64_t>(c.norm.size());
  std::vector<int64_t> dims;
  for (int64_t i = nd - n; i < nd; ++i) dims.push_back(i);
  ag::Variable x(c.x.clone(), true);
  ag::Variable w(c.w.clone(), true), b(c.b.clone(), true);
  ag::Variable mean_v = ag::mean(x, dims, /*keepdim=*/true);
  ag::Variable centered = ag::sub(x, mean_v);
  ag::Variable var_v = ag::mean(ag::mul(centered, centered), dims, true);
  ag::Variable inv_std = ag::pow_scalar(ag::add_scalar(var_v, kLnEps), -0.5f);
  ag::Variable xhat = ag::mul(centered, inv_std);
  ag::Variable wa = w, ba = b;
  if (c.G > 1) {
    Shape bshape(static_cast<size_t>(nd), 1);
    bshape[0] = c.G;
    for (int64_t i = 0; i < n; ++i)
      bshape[static_cast<size_t>(nd - n + i)] = c.norm[static_cast<size_t>(i)];
    wa = ag::reshape(w, bshape);
    ba = ag::reshape(b, bshape);
  }
  ag::Variable y = ag::add(ag::mul(xhat, wa), ba);
  y.backward(c.gy);
  return {y.value(), x.grad(), w.grad(), b.grad()};
}

// The same step through the module: LayerNorm at array size G (one
// ag::layer_norm with G affine groups).
LnOut one_op_layer_norm(const LnCase& c) {
  Rng rng(0);
  LayerNorm m(c.norm, kLnEps, rng, c.G);
  m.weight.mutable_value().copy_(c.w);
  m.bias.mutable_value().copy_(c.b);
  ag::Variable x(c.x.clone(), true);
  ag::Variable y = m.forward(x);
  y.backward(c.gy);
  return {y.value(), x.grad(), m.weight.grad(), m.bias.grad()};
}

// Random data with the edge cases folded in: row 0 constant (variance 0),
// the last row holding +0 and -0 (as do the affine), and zeros in the
// upstream gradient (so products with negative factors give -0).
LnCase make_ln_case(const Shape& lead, const Shape& norm, int64_t G,
                    Rng& rng) {
  Shape xs = lead;
  xs.insert(xs.end(), norm.begin(), norm.end());
  Shape ws = norm;
  ws[0] *= G;
  LnCase c{norm, G, Tensor::randn(xs, rng), Tensor::randn(ws, rng),
           Tensor::randn(ws, rng), Tensor::randn(xs, rng)};
  const int64_t E = c.w.numel() / G;
  const int64_t rows = c.x.numel() / E;
  for (int64_t e = 0; e < E; ++e) {
    c.x.data()[e] = 0.75f;
    if (rows > 1) c.x.data()[(rows - 1) * E + e] = e % 2 == 0 ? 0.f : -0.f;
  }
  for (int64_t i = 0; i < c.gy.numel(); i += 3) c.gy.data()[i] = 0.f;
  c.w.data()[0] = -0.f;
  c.b.data()[c.b.numel() - 1] = -0.f;
  if (c.w.numel() > 2) c.w.data()[2] = 0.f;
  return c;
}

TEST(Norm, LayerNormOpBitIdenticalToComposedChain) {
  const int saved_threads = num_threads();
  Rng rng(2025);
  auto draw = [&rng](int64_t lo, int64_t hi) {
    return lo + rng.uniform_int(hi - lo + 1);
  };
  std::vector<LnCase> cases;
  for (int64_t E : {1, 7, 16, 33}) {
    // One row, with and without a leading dim, for the plain layer.
    cases.push_back(make_ln_case({}, {E}, 1, rng));
    for (int64_t G : {1, 3, 8}) {
      cases.push_back(make_ln_case({G, 1}, {E}, G, rng));
      cases.push_back(make_ln_case({G, draw(2, 5)}, {E}, G, rng));
      cases.push_back(make_ln_case({G, draw(1, 3), draw(2, 4)}, {E}, G, rng));
    }
  }
  // A two-dim normalized shape.
  cases.push_back(make_ln_case({4}, {3, 5}, 1, rng));
  cases.push_back(make_ln_case({3, 2}, {3, 5}, 3, rng));
  for (const LnCase& c : cases) {
    for (int nt : {1, 8}) {
      set_num_threads(nt);
      for (bool simd : {false, true}) {
        vec::set_simd_enabled(simd);
        const std::string tag = shape_str(c.x.shape()) + " G=" +
                                std::to_string(c.G) + " nt=" +
                                std::to_string(nt) + " simd=" +
                                std::to_string(simd);
        const LnOut want = composed_layer_norm(c);
        const LnOut got = one_op_layer_norm(c);
        expect_same_bits(want.y, got.y, tag + " y");
        expect_same_bits(want.gx, got.gx, tag + " x grad");
        expect_same_bits(want.gw, got.gw, tag + " weight grad");
        expect_same_bits(want.gb, got.gb, tag + " bias grad");
      }
    }
  }
  vec::set_simd_enabled(true);
  set_num_threads(saved_threads);
}

// Losses and final parameters of steps on fresh data through a TrainStep:
// with capture, step 0 runs eager, step 1 captures and the rest replay,
// each re-running the layer_norm thunks (which rewrite the row statistics
// the backward reads) on the newly staged data.
template <typename Layer, typename Opt>
std::pair<std::vector<float>, std::vector<std::vector<float>>>
train_encoder_layer(Layer& layer, Opt& opt, const Shape& x_shape, bool capture,
                    int steps) {
  TrainStep step;
  if (capture) step.enable_capture();
  const Tensor mask = models::causal_mask(x_shape[x_shape.size() - 2]);
  Rng data(17);
  Tensor staged;
  std::vector<float> losses;
  for (int s = 0; s < steps; ++s) {
    step.stage(&staged, Tensor::randn(x_shape, data));
    ag::Variable loss = step.run(opt, [&] {
      ag::Variable y = layer.forward_masked(ag::Variable(staged), mask);
      return ag::mean_all(ag::mul(y, y));
    });
    losses.push_back(loss.value().item());
  }
  if (capture) {
    EXPECT_EQ(step.stats().replays, steps - 2);
  }
  std::vector<std::vector<float>> params;
  for (const ag::Variable& p : layer.parameters())
    params.push_back(p.value().to_vector());
  return {losses, params};
}

TEST(Norm, LayerNormReplayMatchesEagerOverTransformerSteps) {
  const int kSteps = 4;  // two replayed steps
  const int64_t B = 3, N = 2, S = 5, E = 16;
  auto plain = [&](bool capture) {
    Rng rng(8);
    models::TransformerEncoderLayer layer(E, 2, 32, 0.f, "relu", rng);
    SGD opt(layer.parameters(), {.lr = 0.05, .momentum = 0.9});
    return train_encoder_layer(layer, opt, {N, S, E}, capture, kSteps);
  };
  auto fused_array = [&](bool capture) {
    Rng rng(9);
    models::TransformerEncoderLayer layer(E, 2, 32, 0.f, "relu", rng, B);
    fused::FusedSGD opt(fused::collect_fused_parameters(layer, B), B,
                        {.lr = {0.05}, .momentum = {0.9}});
    return train_encoder_layer(layer, opt, {B, N, S, E}, capture, kSteps);
  };
  EXPECT_EQ(plain(false), plain(true));
  EXPECT_EQ(fused_array(false), fused_array(true));
}

// ---- optimizers: closed-form single-step checks -----------------------------

TEST(Optim, SGDSingleStep) {
  ag::Variable p(Tensor::full({1}, 1.f), true);
  p.grad().fill_(0.5f);
  SGD opt({p}, {.lr = 0.1});
  opt.step();
  EXPECT_NEAR(p.value().item(), 1.f - 0.1f * 0.5f, 1e-6f);
}

TEST(Optim, SGDMomentumAccumulates) {
  ag::Variable p(Tensor::full({1}, 0.f), true);
  SGD opt({p}, {.lr = 1.0, .momentum = 0.9});
  p.grad().fill_(1.f);
  opt.step();  // buf = 1, p = -1
  EXPECT_NEAR(p.value().item(), -1.f, 1e-6f);
  opt.step();  // buf = 1.9, p = -2.9
  EXPECT_NEAR(p.value().item(), -2.9f, 1e-5f);
}

TEST(Optim, AdamFirstStepIsLrSized) {
  // With bias correction, |first step| == lr for any nonzero gradient.
  ag::Variable p(Tensor::full({1}, 0.f), true);
  Adam opt({p}, {.lr = 0.01});
  p.grad().fill_(123.f);
  opt.step();
  EXPECT_NEAR(p.value().item(), -0.01f, 1e-5f);
}

TEST(Optim, AdadeltaFirstStepClosedForm) {
  // Zero-initialized accumulators: with g = grad + wd * p,
  //   square_avg = (1 - rho) * g^2
  //   delta      = sqrt(eps) / sqrt(square_avg + eps) * g
  //   p         -= lr * delta
  // evaluated in double, independently of the optimizer's float loop.
  const double p0[2] = {2.0, -1.0}, g0[2] = {0.5, 0.0};
  const double lr = 0.7, rho = 0.9, eps = 1e-6, wd = 0.1;
  ag::Variable p(Tensor::from_data({2}, {2.f, -1.f}), true);
  p.grad().copy_(Tensor::from_data({2}, {0.5f, 0.f}));
  Adadelta opt({p}, {.lr = lr, .rho = rho, .eps = eps, .weight_decay = wd});
  opt.step();
  for (int j = 0; j < 2; ++j) {
    const double g = g0[j] + wd * p0[j];
    const double sq = (1.0 - rho) * g * g;
    const double delta = std::sqrt(eps) / std::sqrt(sq + eps) * g;
    const double expected = p0[j] - lr * delta;
    EXPECT_NEAR(p.value().data()[j], expected, 1e-6 * std::fabs(expected))
        << "element " << j;
  }
}

TEST(Optim, WeightDecayPullsTowardZero) {
  ag::Variable p(Tensor::full({1}, 10.f), true);
  SGD opt({p}, {.lr = 0.1, .weight_decay = 0.5});
  p.grad().fill_(0.f);
  opt.step();
  EXPECT_NEAR(p.value().item(), 10.f - 0.1f * 0.5f * 10.f, 1e-5f);
}

TEST(Optim, QuadraticBowlConvergence) {
  // min (p - 3)^2 with each optimizer.
  for (int which = 0; which < 3; ++which) {
    ag::Variable p(Tensor::zeros({1}), true);
    std::unique_ptr<Optimizer> opt;
    if (which == 0) opt = std::make_unique<SGD>(std::vector<ag::Variable>{p},
                                                SGD::Options{.lr = 0.1});
    if (which == 1) opt = std::make_unique<Adam>(std::vector<ag::Variable>{p},
                                                 Adam::Options{.lr = 0.3});
    if (which == 2)
      opt = std::make_unique<Adadelta>(std::vector<ag::Variable>{p},
                                       Adadelta::Options{.lr = 8.0});
    for (int i = 0; i < 300; ++i) {
      opt->zero_grad();
      ag::Variable loss =
          ag::pow_scalar(ag::add_scalar(p, -3.f), 2.f);
      loss.backward();
      opt->step();
    }
    EXPECT_NEAR(p.value().item(), 3.f, 0.2f) << "optimizer " << which;
  }
}

// A serial optimizer is a one-model array, scheduled by the fused
// schedulers with one-element hyper-vectors.

TEST(Sched, StepLRDecaysInStages) {
  ag::Variable p(Tensor::zeros({1}), true);
  SGD opt({p}, {.lr = 1.0});
  fused::FusedStepLR sched(opt, /*step_size=*/{3}, /*gamma=*/{0.1});
  std::vector<double> lrs;
  for (int e = 0; e < 7; ++e) {
    lrs.push_back(opt.lr()[0]);
    sched.step();
  }
  EXPECT_DOUBLE_EQ(lrs[0], 1.0);
  EXPECT_DOUBLE_EQ(lrs[2], 1.0);
  EXPECT_NEAR(lrs[3], 0.1, 1e-12);
  EXPECT_NEAR(lrs[6], 0.01, 1e-12);
}

TEST(Sched, ExponentialAndCosine) {
  ag::Variable p(Tensor::zeros({1}), true);
  SGD opt({p}, {.lr = 1.0});
  fused::FusedExponentialLR exp_sched(opt, {0.5});
  EXPECT_NEAR(exp_sched.lr_at(3)[0], 0.125, 1e-12);
  fused::FusedCosineAnnealingLR cos_sched(opt, {10}, {0.0});
  EXPECT_NEAR(cos_sched.lr_at(0)[0], 1.0, 1e-12);
  EXPECT_NEAR(cos_sched.lr_at(10)[0], 0.0, 1e-12);
  EXPECT_NEAR(cos_sched.lr_at(5)[0], 0.5, 1e-12);
}

TEST(EndToEnd, TinyMLPLearnsXor) {
  Rng rng(12);
  Sequential net;
  net.push_back(std::make_shared<Linear>(2, 16, true, rng));
  net.push_back(std::make_shared<Tanh>());
  net.push_back(std::make_shared<Linear>(16, 2, true, rng));
  Tensor x = Tensor::from_data({4, 2}, {0, 0, 0, 1, 1, 0, 1, 1});
  Tensor labels = Tensor::from_data({4}, {0, 1, 1, 0});
  Adam opt(net.parameters(), {.lr = 0.05});
  float last_loss = 1e9f;
  for (int i = 0; i < 300; ++i) {
    opt.zero_grad();
    ag::Variable loss = ag::cross_entropy(net.forward(ag::Variable(x)), labels,
                                          ag::Reduction::kMean);
    loss.backward();
    opt.step();
    last_loss = loss.value().item();
  }
  EXPECT_LT(last_loss, 0.05f);
  EXPECT_EQ(ops::accuracy(net.forward(ag::Variable(x)).value(), labels), 1.0);
}

}  // namespace
}  // namespace hfta::nn
