// Autograd engine tests: tape mechanics (accumulation, diamond graphs,
// detach, constant folding) and numerical gradient checks for every
// differentiable op.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <string>

#include "autograd/autocast.h"
#include "autograd/functions.h"
#include "autograd/gradcheck.h"
#include "models/transformer.h"
#include "tensor/matmul.h"
#include "tensor/ops.h"
#include "same_bits.h"

namespace hfta::ag {
namespace {

Variable leaf(Shape shape, Rng& rng) {
  return Variable(Tensor::randn(std::move(shape), rng), /*requires_grad=*/true);
}

TEST(Autograd, ScalarChainRule) {
  // y = (2x)^2 -> dy/dx = 8x.
  Variable x(Tensor::full({1}, 3.f), true);
  Variable y = pow_scalar(mul_scalar(x, 2.f), 2.f);
  y.backward();
  EXPECT_NEAR(x.grad().item(), 8.f * 3.f, 1e-4f);
}

TEST(Autograd, DiamondGraphAccumulates) {
  // z = x*x + x*x: grad must flow through both branches -> dz/dx = 4x.
  Variable x(Tensor::full({1}, 5.f), true);
  Variable a = mul(x, x);
  Variable z = add(a, a);
  z.backward();
  EXPECT_NEAR(x.grad().item(), 4.f * 5.f, 1e-4f);
}

TEST(Autograd, BackwardTwiceAccumulatesIntoLeaves) {
  Variable x(Tensor::full({1}, 2.f), true);
  Variable y1 = mul_scalar(x, 3.f);
  y1.backward();
  Variable y2 = mul_scalar(x, 4.f);
  y2.backward();
  EXPECT_NEAR(x.grad().item(), 7.f, 1e-5f);
}

TEST(Autograd, SecondBackwardOverOneGraphKeepsNonLeafGradientsPerRun) {
  // L = (w*w)^2 at w = 1: dL/dw = 4 per run. A non-leaf's gradient holds
  // only its own run's contributions, so a second backward over the same
  // graph adds exactly 4 more into the leaf: 8, not the 20 a carried-over
  // interior gradient would give.
  Variable w(Tensor::full({1}, 1.f), true);
  Variable u = mul(w, w);
  Variable loss = sum_all(mul(u, u));
  loss.backward();
  EXPECT_EQ(w.grad().item(), 4.f);
  loss.backward();
  EXPECT_EQ(w.grad().item(), 8.f);
  EXPECT_EQ(u.grad().item(), 2.f);  // dL/du of the second run alone
}

TEST(Autograd, DetachCutsTape) {
  Variable x(Tensor::full({1}, 2.f), true);
  Variable y = mul_scalar(x, 3.f);
  Variable z = mul_scalar(y.detach(), 10.f);
  z.backward();
  EXPECT_FALSE(x.has_grad());
}

TEST(Autograd, ConstantsAreNotTaped) {
  Variable c = constant(Tensor::full({2}, 1.f));
  Variable d = constant(Tensor::full({2}, 2.f));
  Variable y = add(c, d);
  EXPECT_EQ(y.node(), nullptr);  // folded: no inputs require grad
}

TEST(Autograd, BroadcastAddReducesGrad) {
  Rng rng(1);
  Variable x = leaf({3, 4}, rng);
  Variable b = leaf({4}, rng);
  Variable y = sum_all(add(x, b));
  y.backward();
  EXPECT_EQ(b.grad().shape(), (Shape{4}));
  for (int64_t i = 0; i < 4; ++i) EXPECT_NEAR(b.grad().at({i}), 3.f, 1e-5f);
}

// ---- parameterized gradcheck over unary ops --------------------------------

struct UnaryCase {
  const char* name;
  Variable (*fn)(const Variable&);
};

class UnaryGradTest : public ::testing::TestWithParam<UnaryCase> {};

TEST_P(UnaryGradTest, MatchesNumerical) {
  Rng rng(42);
  // Inputs away from kinks (|x| in [0.2, 1.5]) so central differences are
  // valid for relu/relu6/hard* too.
  Tensor t = Tensor::randn({3, 4}, rng);
  for (int64_t i = 0; i < t.numel(); ++i) {
    float v = t.data()[i];
    v = (v < 0 ? -1.f : 1.f) * (0.3f + std::min(std::fabs(v), 1.2f));
    t.data()[i] = v;
  }
  std::vector<Variable> inputs = {Variable(t, true)};
  auto fn = GetParam().fn;
  auto res = gradcheck(
      [fn](std::vector<Variable>& in) { return sum_all(fn(in[0])); }, inputs,
      1e-3f, 1e-2f);
  EXPECT_TRUE(res.ok) << GetParam().name << ": " << res.detail;
}

INSTANTIATE_TEST_SUITE_P(
    Ops, UnaryGradTest,
    ::testing::Values(
        UnaryCase{"neg", [](const Variable& v) { return neg(v); }},
        UnaryCase{"exp", [](const Variable& v) { return exp(v); }},
        UnaryCase{"sqrt",
                  [](const Variable& v) {
                    return sqrt(add_scalar(mul(v, v), 1.f));
                  }},
        UnaryCase{"tanh", [](const Variable& v) { return tanh(v); }},
        UnaryCase{"sigmoid", [](const Variable& v) { return sigmoid(v); }},
        UnaryCase{"relu", [](const Variable& v) { return relu(v); }},
        UnaryCase{"relu6", [](const Variable& v) { return relu6(v); }},
        UnaryCase{"leaky_relu",
                  [](const Variable& v) { return leaky_relu(v, 0.2f); }},
        UnaryCase{"hardswish", [](const Variable& v) { return hardswish(v); }},
        UnaryCase{"hardsigmoid",
                  [](const Variable& v) { return hardsigmoid(v); }},
        UnaryCase{"gelu", [](const Variable& v) { return gelu(v); }}),
    [](const ::testing::TestParamInfo<UnaryCase>& info) {
      return info.param.name;
    });

TEST(AutogradGrad, BinaryOps) {
  Rng rng(7);
  for (auto fn : {add, sub, mul, div}) {
    std::vector<Variable> inputs = {leaf({2, 3}, rng), leaf({2, 3}, rng)};
    // keep divisor away from 0
    for (int64_t i = 0; i < 6; ++i) {
      float& v = inputs[1].mutable_value().data()[i];
      v = (v < 0 ? -1.f : 1.f) * (0.5f + std::fabs(v));
    }
    auto res = gradcheck(
        [fn](std::vector<Variable>& in) { return sum_all(fn(in[0], in[1])); },
        inputs, 1e-3f, 1e-2f);
    EXPECT_TRUE(res.ok) << res.detail;
  }
}

TEST(AutogradGrad, BroadcastMulGrad) {
  Rng rng(8);
  std::vector<Variable> inputs = {leaf({2, 3, 4}, rng), leaf({2, 1, 4}, rng)};
  auto res = gradcheck(
      [](std::vector<Variable>& in) { return sum_all(mul(in[0], in[1])); },
      inputs, 1e-3f, 1e-2f);
  EXPECT_TRUE(res.ok) << res.detail;
}

TEST(AutogradGrad, Matmul) {
  Rng rng(9);
  std::vector<Variable> inputs = {leaf({3, 4}, rng), leaf({4, 2}, rng)};
  auto res = gradcheck(
      [](std::vector<Variable>& in) { return sum_all(matmul(in[0], in[1])); },
      inputs, 1e-2f, 2e-2f);
  EXPECT_TRUE(res.ok) << res.detail;
}

TEST(AutogradGrad, BatchedMatmulPlainAndTransposedB) {
  Rng rng(10);
  {
    std::vector<Variable> inputs = {leaf({2, 3, 4}, rng), leaf({2, 4, 2}, rng)};
    auto res = gradcheck(
        [](std::vector<Variable>& in) { return sum_all(matmul(in[0], in[1])); },
        inputs, 1e-2f, 2e-2f);
    EXPECT_TRUE(res.ok) << res.detail;
  }
  {
    std::vector<Variable> inputs = {leaf({2, 3, 4}, rng), leaf({2, 5, 4}, rng)};
    auto res = gradcheck(
        [](std::vector<Variable>& in) {
          return sum_all(matmul(in[0], in[1], true));
        },
        inputs, 1e-2f, 2e-2f);
    EXPECT_TRUE(res.ok) << res.detail;
  }
}

// linear at groups G reads x [G, N, in] as G runs of rows against the G
// [out, in] blocks of w [G*out, in] and b [G*out]. Checked two ways, at
// groups 1 and 3: against the numerical gradient, and block by block
// against groups = 1 on that block alone, bit for bit (output and the x, w
// and b gradients), in f32 and under f16/bf16 autocast.
TEST(AutogradGrad, GroupedLinear) {
  const int64_t N = 4, in = 5, out = 3;
  for (int64_t G : {1, 3}) {
    Rng rng(static_cast<uint64_t>(11 + G));
    std::vector<Variable> inputs = {leaf({G, N, in}, rng),
                                    leaf({G * out, in}, rng),
                                    leaf({G * out}, rng)};
    auto res = gradcheck(
        [G](std::vector<Variable>& in) {
          return sum_all(linear(in[0], in[1], in[2], G));
        },
        inputs, 1e-2f, 2e-2f);
    EXPECT_TRUE(res.ok) << "groups=" << G << ": " << res.detail;

    const Tensor x = Tensor::randn({G, N, in}, rng);
    const Tensor w = Tensor::randn({G * out, in}, rng);
    const Tensor b = Tensor::randn({G * out}, rng);
    const Tensor probe = Tensor::randn({G, N, out}, rng);
    for (DType dt : {DType::kF32, DType::kF16, DType::kBF16}) {
      AutocastGuard autocast(dt);  // kF32 turns autocast off
      Variable xg(x.clone(), true), wg(w.clone(), true), bg(b.clone(), true);
      Variable yg = linear(xg, wg, bg, G);
      sum_all(mul(yg, constant(probe))).backward();
      for (int64_t g = 0; g < G; ++g) {
        const std::string tag = "groups=" + std::to_string(G) + " dtype=" +
                                std::to_string(static_cast<int>(dt)) +
                                " block " + std::to_string(g);
        Variable x1(x.slice(0, g, g + 1).reshape({N, in}), true);
        Variable w1(w.slice(0, g * out, (g + 1) * out), true);
        Variable b1(b.slice(0, g * out, (g + 1) * out), true);
        Variable y1 = linear(x1, w1, b1);
        sum_all(mul(y1, constant(probe.slice(0, g, g + 1).reshape({N, out}))))
            .backward();
        tests::expect_same_bits(
            y1.value(), yg.value().slice(0, g, g + 1).reshape({N, out}),
            tag + " y");
        tests::expect_same_bits(
            x1.grad(), xg.grad().slice(0, g, g + 1).reshape({N, in}),
            tag + " x grad");
        tests::expect_same_bits(w1.grad(),
                                wg.grad().slice(0, g * out, (g + 1) * out),
                                tag + " w grad");
        tests::expect_same_bits(b1.grad(),
                                bg.grad().slice(0, g * out, (g + 1) * out),
                                tag + " b grad");
      }
    }
  }
}

TEST(AutogradGrad, Linear) {
  Rng rng(12);
  std::vector<Variable> inputs = {leaf({4, 3}, rng), leaf({2, 3}, rng),
                                  leaf({2}, rng)};
  auto res = gradcheck(
      [](std::vector<Variable>& in) {
        return sum_all(linear(in[0], in[1], in[2]));
      },
      inputs, 1e-2f, 2e-2f);
  EXPECT_TRUE(res.ok) << res.detail;
}

TEST(AutogradGrad, Conv2dGrouped) {
  Rng rng(13);
  std::vector<Variable> inputs = {leaf({2, 4, 5, 5}, rng),
                                  leaf({6, 2, 3, 3}, rng), leaf({6}, rng)};
  auto res = gradcheck(
      [](std::vector<Variable>& in) {
        return sum_all(
            conv(in[0], in[1], in[2], ops::ConvArgs::make(1, 1, 2)));
      },
      inputs, 1e-2f, 3e-2f);
  EXPECT_TRUE(res.ok) << res.detail;
}

TEST(AutogradGrad, Conv1d) {
  Rng rng(14);
  std::vector<Variable> inputs = {leaf({2, 3, 8}, rng), leaf({4, 3, 3}, rng),
                                  leaf({4}, rng)};
  auto res = gradcheck(
      [](std::vector<Variable>& in) {
        return sum_all(conv(in[0], in[1], in[2], ops::ConvArgs::make(1, 1)));
      },
      inputs, 1e-2f, 3e-2f);
  EXPECT_TRUE(res.ok) << res.detail;
}

TEST(AutogradGrad, ConvTranspose2d) {
  Rng rng(15);
  std::vector<Variable> inputs = {leaf({1, 4, 4, 4}, rng),
                                  leaf({4, 3, 4, 4}, rng), leaf({3}, rng)};
  auto res = gradcheck(
      [](std::vector<Variable>& in) {
        return sum_all(conv_transpose(in[0], in[1], in[2],
                                      ops::ConvTransposeArgs{2, 1, 0, 1}));
      },
      inputs, 1e-2f, 3e-2f);
  EXPECT_TRUE(res.ok) << res.detail;
}

TEST(AutogradGrad, Pooling) {
  Rng rng(16);
  {
    std::vector<Variable> inputs = {leaf({1, 2, 6, 6}, rng)};
    auto res = gradcheck(
        [](std::vector<Variable>& in) {
          return sum_all(max_pool2d(in[0], ops::PoolArgs{2, 2, 0}));
        },
        inputs, 1e-3f, 1e-2f);
    EXPECT_TRUE(res.ok) << res.detail;
  }
  {
    std::vector<Variable> inputs = {leaf({1, 2, 5, 5}, rng)};
    auto res = gradcheck(
        [](std::vector<Variable>& in) {
          return sum_all(adaptive_avg_pool2d(in[0], 2, 2));
        },
        inputs, 1e-3f, 1e-2f);
    EXPECT_TRUE(res.ok) << res.detail;
  }
  {
    std::vector<Variable> inputs = {leaf({2, 3, 7}, rng)};
    auto res = gradcheck(
        [](std::vector<Variable>& in) {
          return sum_all(global_max_pool1d(in[0]));
        },
        inputs, 1e-3f, 1e-2f);
    EXPECT_TRUE(res.ok) << res.detail;
  }
}

TEST(AutogradGrad, ShapeOps) {
  Rng rng(17);
  std::vector<Variable> inputs = {leaf({2, 3, 4}, rng), leaf({2, 5, 4}, rng)};
  auto res = gradcheck(
      [](std::vector<Variable>& in) {
        Variable c = concat({in[0], in[1]}, 1);      // [2, 8, 4]
        Variable p = permute(c, {1, 0, 2});          // [8, 2, 4]
        Variable s = slice(p, 0, 2, 6);              // [4, 2, 4]
        Variable r = reshape(s, {4, 8});
        return sum_all(mul(r, r));
      },
      inputs, 1e-3f, 1e-2f);
  EXPECT_TRUE(res.ok) << res.detail;
}

TEST(AutogradGrad, Reductions) {
  Rng rng(18);
  std::vector<Variable> inputs = {leaf({2, 3, 4}, rng)};
  auto res = gradcheck(
      [](std::vector<Variable>& in) {
        Variable m = mean(in[0], {0, 2}, true);  // [1, 3, 1]
        Variable d = sub(in[0], m);
        return mean_all(mul(d, d));  // variance-like composite (BN core)
      },
      inputs, 1e-3f, 1e-2f);
  EXPECT_TRUE(res.ok) << res.detail;
}

TEST(AutogradGrad, SoftmaxFamily) {
  Rng rng(19);
  {
    std::vector<Variable> inputs = {leaf({3, 5}, rng)};
    Tensor weights = Tensor::randn({3, 5}, rng);
    auto res = gradcheck(
        [&](std::vector<Variable>& in) {
          return sum_all(mul(softmax(in[0], 1), constant(weights)));
        },
        inputs, 1e-3f, 1e-2f);
    EXPECT_TRUE(res.ok) << res.detail;
  }
  {
    std::vector<Variable> inputs = {leaf({3, 5}, rng)};
    Tensor weights = Tensor::randn({3, 5}, rng);
    auto res = gradcheck(
        [&](std::vector<Variable>& in) {
          return sum_all(mul(log_softmax(in[0], 1), constant(weights)));
        },
        inputs, 1e-3f, 1e-2f);
    EXPECT_TRUE(res.ok) << res.detail;
  }
}

TEST(AutogradGrad, Attention) {
  Rng rng(24);
  const Tensor causal = models::causal_mask(3);
  for (const Tensor& mask : {Tensor(), causal}) {
    // R = 2 sequences of S = 3, E = 4 over 2 heads.
    std::vector<Variable> inputs = {leaf({2, 3, 12}, rng)};
    Tensor weights = Tensor::randn({2, 3, 4}, rng);
    auto res = gradcheck(
        [&](std::vector<Variable>& in) {
          return sum_all(mul(attention(in[0], 2, mask), constant(weights)));
        },
        inputs, 1e-3f, 1e-2f);
    EXPECT_TRUE(res.ok) << (mask.defined() ? "causal: " : "") << res.detail;
  }
}

TEST(AutogradGrad, Losses) {
  Rng rng(20);
  Tensor labels = Tensor::from_data({4}, {0.f, 2.f, 1.f, 2.f});
  for (auto reduction : {Reduction::kMean, Reduction::kSum}) {
    std::vector<Variable> inputs = {leaf({4, 3}, rng)};
    auto res = gradcheck(
        [&](std::vector<Variable>& in) {
          return cross_entropy(in[0], labels, reduction);
        },
        inputs, 1e-3f, 1e-2f);
    EXPECT_TRUE(res.ok) << res.detail;
  }
  {
    Tensor targets = Tensor::rand({4, 1}, rng);
    std::vector<Variable> inputs = {leaf({4, 1}, rng)};
    auto res = gradcheck(
        [&](std::vector<Variable>& in) {
          return bce_with_logits(in[0], targets, Reduction::kMean);
        },
        inputs, 1e-3f, 1e-2f);
    EXPECT_TRUE(res.ok) << res.detail;
  }
  {
    Tensor target = Tensor::randn({4, 3}, rng);
    std::vector<Variable> inputs = {leaf({4, 3}, rng)};
    auto res = gradcheck(
        [&](std::vector<Variable>& in) {
          return mse_loss(in[0], target, Reduction::kMean);
        },
        inputs, 1e-3f, 1e-2f);
    EXPECT_TRUE(res.ok) << res.detail;
  }
}

TEST(AutogradGrad, SpatialNLLForSegmentation) {
  // [N, C, L] log-probs with [N, L] labels (PointNet segmentation layout).
  Rng rng(21);
  Tensor labels = Tensor::from_data({2, 3}, {0.f, 1.f, 2.f, 2.f, 0.f, 1.f});
  std::vector<Variable> inputs = {leaf({2, 4, 3}, rng)};
  auto res = gradcheck(
      [&](std::vector<Variable>& in) {
        return nll_loss(log_softmax(in[0], 1), labels, Reduction::kMean);
      },
      inputs, 1e-3f, 1e-2f);
  EXPECT_TRUE(res.ok) << res.detail;
}

TEST(AutogradGrad, Embedding) {
  Rng rng(22);
  Tensor idx = Tensor::from_data({2, 3}, {0.f, 2.f, 1.f, 2.f, 2.f, 0.f});
  std::vector<Variable> inputs = {leaf({4, 3}, rng)};
  auto res = gradcheck(
      [&](std::vector<Variable>& in) {
        return sum_all(mul(embedding(idx, in[0]), embedding(idx, in[0])));
      },
      inputs, 1e-3f, 1e-2f);
  EXPECT_TRUE(res.ok) << res.detail;
}

TEST(AutogradGrad, Dropout) {
  // The op draws its mask on every run, so the stream is reseeded before
  // each evaluation: every one of gradcheck's evaluations draws the same
  // mask, whose entries here are both 0 and 1/(1 - p).
  Rng rng(23);
  std::vector<Variable> inputs = {leaf({3, 4}, rng)};
  Tensor y;
  auto res = gradcheck(
      [&](std::vector<Variable>& in) {
        Rng stream(0xd0);
        Variable out = dropout(in[0], 0.5f, stream);
        y = out.value();
        return sum_all(mul(out, in[0]));
      },
      inputs, 1e-3f, 1e-2f);
  EXPECT_TRUE(res.ok) << res.detail;
  int64_t dropped = 0;
  for (int64_t i = 0; i < y.numel(); ++i) dropped += y.data()[i] == 0.f;
  EXPECT_GT(dropped, 0);
  EXPECT_LT(dropped, y.numel());
}

// ---- attention as one op ---------------------------------------------------

// The composed chain ag::attention replaced, kept as its specification: the
// head split (chunk, reshape/permute/reshape), the scaled and masked scores,
// softmax, the context GEMM and the head merge. Sets *probs to the softmax.
Variable composed_attention(const Variable& qkv, int64_t H, const Tensor& mask,
                            Variable* probs) {
  const int64_t R = qkv.size(0), S = qkv.size(1), E = qkv.size(2) / 3;
  const int64_t Dh = E / H;
  std::vector<Variable> parts = chunk(qkv, 3, 2);
  auto heads = [&](const Variable& t) {
    Variable r = permute(reshape(t, {R, S, H, Dh}), {0, 2, 1, 3});
    return reshape(r, {R * H, S, Dh});
  };
  Variable scores = mul_scalar(matmul(heads(parts[0]), heads(parts[1]), true),
                               1.f / std::sqrt(static_cast<float>(Dh)));
  if (mask.defined()) scores = add(scores, constant(mask));
  *probs = softmax(scores, -1);
  Variable ctx = matmul(*probs, heads(parts[2]));
  ctx = permute(reshape(ctx, {R, H, S, Dh}), {0, 2, 1, 3});
  return reshape(ctx, {R, S, E});
}

using tests::expect_same_bits;

// ag::attention equals the chain bit for bit: the context, the saved
// probabilities and the qkv gradient, for one to four heads, one to 16
// positions, with and without the causal mask, in f32 and under autocast.
TEST(Attention, EqualsComposedChainBitwise) {
  const int64_t R = 3, E = 12;
  for (DType dt : {DType::kF32, DType::kF16, DType::kBF16})
    for (int64_t H : {1, 2, 4})
      for (int64_t S : {1, 7, 16})
        for (bool masked : {false, true}) {
          const std::string tag = "dtype=" +
                                  std::to_string(static_cast<int>(dt)) +
                                  " H=" + std::to_string(H) +
                                  " S=" + std::to_string(S) +
                                  (masked ? " causal" : "");
          Rng rng(static_cast<uint64_t>(100 + 10 * H + S));
          const Tensor x = Tensor::randn({R, S, 3 * E}, rng);
          const Tensor w = Tensor::randn({R, S, E}, rng);
          const Tensor mask = masked ? models::causal_mask(S) : Tensor();
          AutocastGuard autocast(dt);  // kF32 turns autocast off
          Variable xa(x.clone(), true), xc(x.clone(), true), probs;
          Variable ya = attention(xa, H, mask);
          Variable yc = composed_attention(xc, H, mask, &probs);
          sum_all(mul(ya, constant(w))).backward();
          sum_all(mul(yc, constant(w))).backward();
          Tensor p = Tensor::empty({R * H, S, S});
          ops::attention_forward(x, H, mask, p, dt);
          expect_same_bits(yc.value(), ya.value(), tag + " ctx");
          expect_same_bits(probs.value(), p, tag + " probs");
          expect_same_bits(xc.grad(), xa.grad(), tag + " qkv grad");
        }
}

// ---- one op per kernel family ----------------------------------------------

// The output of f(x, w, b) and the gradients of x, w and b through
// sum(y * r), so the op's output gradient is r itself. An undefined b
// stands for no bias.
struct OpRun {
  Tensor y, gx, gw, gb;
};
template <typename F>
OpRun run_op(F f, const Tensor& x, const Tensor& w, const Tensor& b,
             const Tensor& r) {
  Variable xv(x.clone(), true), wv(w.clone(), true), bv;
  if (b.defined()) bv = Variable(b.clone(), true);
  Variable y = f(xv, wv, bv);
  sum_all(mul(y, constant(r.reshape(y.shape())))).backward();
  return {y.value(), xv.grad(), wv.grad(), b.defined() ? bv.grad() : Tensor()};
}

// [N, C, L] viewed as [N, C, 1, L], the 2-D kernels' form of a 1-D operand.
Tensor h1(const Tensor& t) {
  return t.reshape({t.size(0), t.size(1), 1, t.size(2)});
}

// A 1-D conv is the 2-D one on the H = 1 view with stride 1 and pad 0 on
// H: y and every gradient, bit for bit, plain and transposed, at groups 2,
// stride 2, pad 1 (and out_pad 1).
TEST(OneOpPerFamily, Conv1dIsConv2dOnTheHeightOneView) {
  Rng rng(31);
  const Tensor x = Tensor::randn({2, 4, 9}, rng);
  const Tensor w = Tensor::randn({6, 2, 3}, rng);
  const Tensor b = Tensor::randn({6}, rng);
  const Tensor r = Tensor::randn({2, 6, 5}, rng);  // y's size: (9+2-3)/2+1
  const OpRun one = run_op(
      [](const Variable& x, const Variable& w, const Variable& b) {
        return conv(x, w, b, ops::ConvArgs::make(2, 1, 2));
      },
      x, w, b, r);
  const OpRun two = run_op(
      [](const Variable& x, const Variable& w, const Variable& b) {
        return conv(x, w, b, ops::ConvArgs{1, 2, 0, 1, 2});
      },
      h1(x), h1(w), b, r);
  EXPECT_EQ(one.y.shape(), (Shape{2, 6, 5}));
  expect_same_bits(two.y, h1(one.y), "conv y");
  expect_same_bits(two.gx, h1(one.gx), "conv x.grad");
  expect_same_bits(two.gw, h1(one.gw), "conv w.grad");
  expect_same_bits(two.gb, one.gb, "conv b.grad");
}

TEST(OneOpPerFamily, ConvTranspose1dIsTheDualKernelsOnTheHeightOneView) {
  // A 2-D transposed op applies its stride and pad to H as well, so the
  // reference is the 2-D kernels themselves in their dual roles.
  Rng rng(32);
  const Tensor x = Tensor::randn({2, 4, 6}, rng);
  const Tensor w = Tensor::randn({4, 3, 3}, rng);
  const Tensor b = Tensor::randn({6}, rng);
  // L_out = (6-1)*2 - 2*1 + 3 + 1 = 12.
  const Tensor r = Tensor::randn({2, 6, 12}, rng);
  const OpRun one = run_op(
      [](const Variable& x, const Variable& w, const Variable& b) {
        return conv_transpose(x, w, b, ops::ConvTransposeArgs{2, 1, 1, 2});
      },
      x, w, b, r);
  const ops::ConvArgs a{1, 2, 0, 1, 2};
  const Tensor r4 = h1(r);
  expect_same_bits(ops::conv2d_grad_input(h1(x), h1(w), b, r4.shape(), a),
                   h1(one.y), "convT y");
  expect_same_bits(ops::conv2d(r4, h1(w), Tensor(), a), h1(one.gx),
                   "convT x.grad");
  expect_same_bits(ops::conv2d_grad_weight(h1(x), r4, h1(w).shape(), a),
                   h1(one.gw), "convT w.grad");
  expect_same_bits(ops::sum(r4, {0, 2, 3}, false), one.gb, "convT b.grad");
}

// Rank 2 is one batch entry of rank 3: the same bits for every transpose
// pair, forward and backward, below and above the GEMM's work floor.
TEST(OneOpPerFamily, MatmulRankTwoIsRankThreeAtBatchOne) {
  struct Dims {
    int64_t m, k, n;
  };
  Rng rng(33);
  for (const Dims d : {Dims{7, 19, 5}, Dims{70, 300, 64}})
    for (bool ta : {false, true})
      for (bool tb : {false, true}) {
        const std::string tag = "m=" + std::to_string(d.m) +
                                " ta=" + std::to_string(ta) +
                                " tb=" + std::to_string(tb);
        const Tensor a = ta ? Tensor::randn({d.k, d.m}, rng)
                            : Tensor::randn({d.m, d.k}, rng);
        const Tensor bm = tb ? Tensor::randn({d.n, d.k}, rng)
                             : Tensor::randn({d.k, d.n}, rng);
        const Tensor r = Tensor::randn({d.m, d.n}, rng);
        auto batch1 = [](const Tensor& t) {
          return t.reshape({1, t.size(0), t.size(1)});
        };
        expect_same_bits(
            batch1(ops::matmul(a, bm, ta, tb)),
            ops::matmul(batch1(a), batch1(bm), ta, tb), tag + " ops");
        // ag::matmul transposes only b; a transposed a goes through
        // ag::transpose of its last two dims.
        auto f = [ta, tb](const Variable& a, const Variable& b,
                          const Variable&) {
          const int64_t r = a.dim();
          return matmul(ta ? transpose(a, r - 2, r - 1) : a, b, tb);
        };
        const OpRun two = run_op(f, a, bm, Tensor(), r);
        const OpRun three = run_op(f, batch1(a), batch1(bm), Tensor(), r);
        expect_same_bits(batch1(two.y), three.y, tag + " y");
        expect_same_bits(batch1(two.gx), three.gx, tag + " a.grad");
        expect_same_bits(batch1(two.gw), three.gw, tag + " b.grad");
      }
}

// Every conv's bias gradient is ops::sum over all dims but the channel dim.
// At spatial size 1 (MobileNet's squeeze-excite convs on pooled maps) that
// equals the per-plane partial the channel sum used to fold in sample by
// sample.
TEST(OneOpPerFamily, ConvBiasGradAtSpatialSizeOneIsThePerPlaneChain) {
  Rng rng(34);
  const int64_t N = 5, C = 8, Cout = 12;
  const Tensor x = Tensor::randn({N, C, 1, 1}, rng);
  const Tensor w = Tensor::randn({Cout, C / 2, 1, 1}, rng);
  const Tensor b = Tensor::randn({Cout}, rng);
  const Tensor r = Tensor::randn({N, Cout, 1, 1}, rng);
  const OpRun run = run_op(
      [](const Variable& x, const Variable& w, const Variable& b) {
        return conv(x, w, b, ops::ConvArgs::make(1, 0, 2));
      },
      x, w, b, r);
  Tensor want = Tensor::empty({Cout});
  const float* pr = r.data();
  for (int64_t c = 0; c < Cout; ++c) {
    float total = 0.f;
    for (int64_t n = 0; n < N; ++n) {
      float plane = 0.f;
      plane += pr[n * Cout + c];
      total += plane;
    }
    want.data()[c] = total;
  }
  expect_same_bits(want, run.gb, "b.grad");
}

}  // namespace
}  // namespace hfta::ag
