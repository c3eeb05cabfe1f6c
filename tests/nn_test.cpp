// nn module library tests: layers, normalization, dropout, optimizers,
// schedulers, and a small end-to-end training sanity check.
#include <gtest/gtest.h>

#include <cmath>

#include "hfta/fused_optim.h"
#include "hfta/fused_sched.h"
#include "nn/layers.h"
#include "nn/losses.h"
#include "nn/norm.h"
#include "nn/optim.h"
#include "tensor/ops.h"

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
