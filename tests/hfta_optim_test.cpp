// Fused optimizer / scheduler / loss-scaling equivalence tests.
//
// The fused optimizers take per-model hyper-parameter VECTORS (the paper's
// "scalar-vector ops become broadcasted vector-vector ops"); stepping a
// fused parameter must be bit-for-bit identical to stepping B serial
// optimizers (one-model arrays) with the corresponding scalar
// hyper-parameters.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <memory>

#include "hfta/fused_optim.h"
#include "hfta/fused_sched.h"
#include "hfta/fusion.h"
#include "hfta/loss_scaling.h"
#include "same_bits.h"
#include "tensor/ops.h"

namespace hfta::fused {
namespace {

struct OptimRig {
  int64_t B;
  int64_t block = 6;  // per-model numel
  ag::Variable fused_param;
  std::vector<ag::Variable> plain_params;

  explicit OptimRig(int64_t B, uint64_t seed) : B(B) {
    Rng rng(seed);
    Tensor init = Tensor::randn({B * block}, rng);
    fused_param = ag::Variable(init.clone(), true);
    for (int64_t b = 0; b < B; ++b) {
      Tensor t({block});
      std::copy(init.data() + b * block, init.data() + (b + 1) * block,
                t.data());
      plain_params.emplace_back(t, true);
    }
  }

  // Loads the same random gradient into the fused param and its unfused
  // counterparts.
  void set_grads(Rng& rng) {
    Tensor g = Tensor::randn({B * block}, rng);
    fused_param.grad().copy_(g);
    for (int64_t b = 0; b < B; ++b) {
      Tensor gb({block});
      std::copy(g.data() + b * block, g.data() + (b + 1) * block, gb.data());
      plain_params[static_cast<size_t>(b)].grad().copy_(gb);
    }
  }

  float max_diff() const {
    float m = 0.f;
    for (int64_t b = 0; b < B; ++b) {
      Tensor fb({block});
      std::copy(fused_param.value().data() + b * block,
                fused_param.value().data() + (b + 1) * block, fb.data());
      m = std::max(m, ops::max_abs_diff(
                           fb, plain_params[static_cast<size_t>(b)].value()));
    }
    return m;
  }
};

class FusedOptimB : public ::testing::TestWithParam<int64_t> {};

TEST_P(FusedOptimB, SGDHeterogeneousHyperparams) {
  const int64_t B = GetParam();
  OptimRig s(B, 1);
  HyperVec lr(B), mom(B), wd(B);
  std::vector<std::unique_ptr<nn::SGD>> plain;
  for (int64_t b = 0; b < B; ++b) {
    lr[b] = 0.01 * (b + 1);
    mom[b] = b % 2 ? 0.9 : 0.0;
    wd[b] = 0.001 * b;
    plain.push_back(std::make_unique<nn::SGD>(
        std::vector<ag::Variable>{s.plain_params[static_cast<size_t>(b)]},
        nn::SGD::Options{lr[b], mom[b], wd[b]}));
  }
  FusedSGD fused({{s.fused_param, B}}, B, {lr, mom, wd});
  Rng rng(2);
  for (int step = 0; step < 5; ++step) {
    s.set_grads(rng);
    fused.step();
    for (auto& p : plain) p->step();
    EXPECT_EQ(s.max_diff(), 0.f) << "step " << step;
  }
}

TEST_P(FusedOptimB, AdamHeterogeneousHyperparams) {
  const int64_t B = GetParam();
  OptimRig s(B, 3);
  HyperVec lr(B), b1(B), b2(B), eps(B), wd(B);
  std::vector<std::unique_ptr<nn::Adam>> plain;
  for (int64_t b = 0; b < B; ++b) {
    lr[b] = 0.001 * (b + 1);
    b1[b] = 0.8 + 0.02 * b;
    b2[b] = 0.99 + 0.001 * b;
    eps[b] = 1e-8;
    wd[b] = b % 3 == 0 ? 0.01 : 0.0;
    plain.push_back(std::make_unique<nn::Adam>(
        std::vector<ag::Variable>{s.plain_params[static_cast<size_t>(b)]},
        nn::Adam::Options{lr[b], b1[b], b2[b], eps[b], wd[b]}));
  }
  FusedAdam fused({{s.fused_param, B}}, B, {lr, b1, b2, eps, wd});
  Rng rng(4);
  for (int step = 0; step < 8; ++step) {
    s.set_grads(rng);
    fused.step();
    for (auto& p : plain) p->step();
    EXPECT_EQ(s.max_diff(), 0.f) << "step " << step;
  }
}

TEST_P(FusedOptimB, AdadeltaHeterogeneousHyperparams) {
  const int64_t B = GetParam();
  OptimRig s(B, 5);
  HyperVec lr(B), rho(B), eps(B), wd(B);
  std::vector<std::unique_ptr<nn::Adadelta>> plain;
  for (int64_t b = 0; b < B; ++b) {
    lr[b] = 0.5 + 0.2 * b;
    rho[b] = 0.85 + 0.01 * b;
    eps[b] = 1e-6;
    wd[b] = b % 2 ? 0.01 : 0.0;
    plain.push_back(std::make_unique<nn::Adadelta>(
        std::vector<ag::Variable>{s.plain_params[static_cast<size_t>(b)]},
        nn::Adadelta::Options{lr[b], rho[b], eps[b], wd[b]}));
  }
  FusedAdadelta fused({{s.fused_param, B}}, B, {lr, rho, eps, wd});
  Rng rng(6);
  for (int step = 0; step < 8; ++step) {
    s.set_grads(rng);
    fused.step();
    for (auto& p : plain) p->step();
    EXPECT_EQ(s.max_diff(), 0.f) << "step " << step;
  }
}

TEST_P(FusedOptimB, AdadeltaGradScaleFoldMatchesPreUnscaledGrads) {
  // The AMP contract of the folded grad-scale path: step(1/S) on grads
  // scaled by S (a power of two, so scaling is exact) must be bit-identical
  // to step() on the unscaled grads, serial and fused alike, and the fused
  // step must still match the serial one.
  const int64_t B = GetParam();
  const double S = 1024.0;
  OptimRig scaled(B, 9), unscaled(B, 9);
  HyperVec lr(B), rho(B), eps(B), wd(B);
  for (int64_t b = 0; b < B; ++b) {
    lr[b] = 0.5 + 0.2 * b;
    rho[b] = 0.85 + 0.01 * b;
    eps[b] = 1e-6;
    wd[b] = b % 2 ? 0.01 : 0.0;
  }
  auto make_serial = [&](OptimRig& r) {
    std::vector<std::unique_ptr<nn::Adadelta>> v;
    for (int64_t b = 0; b < B; ++b)
      v.push_back(std::make_unique<nn::Adadelta>(
          std::vector<ag::Variable>{r.plain_params[static_cast<size_t>(b)]},
          nn::Adadelta::Options{lr[b], rho[b], eps[b], wd[b]}));
    return v;
  };
  auto serial_s = make_serial(scaled), serial_u = make_serial(unscaled);
  FusedAdadelta fused_s({{scaled.fused_param, B}}, B, {lr, rho, eps, wd});
  FusedAdadelta fused_u({{unscaled.fused_param, B}}, B, {lr, rho, eps, wd});
  auto same_bits = [](const Tensor& a, const Tensor& b) {
    return a.numel() == b.numel() &&
           std::memcmp(a.data(), b.data(),
                       sizeof(float) * static_cast<size_t>(a.numel())) == 0;
  };
  Rng rng_s(10), rng_u(10);
  for (int step = 0; step < 6; ++step) {
    scaled.set_grads(rng_s);
    unscaled.set_grads(rng_u);
    scaled.fused_param.grad().mul_(static_cast<float>(S));
    for (auto& p : scaled.plain_params) p.grad().mul_(static_cast<float>(S));
    fused_s.step(1.0 / S);
    for (auto& p : serial_s) p->step(1.0 / S);
    fused_u.step();
    for (auto& p : serial_u) p->step();
    EXPECT_TRUE(same_bits(scaled.fused_param.value(),
                          unscaled.fused_param.value()))
        << "fused step " << step;
    for (int64_t b = 0; b < B; ++b)
      EXPECT_TRUE(same_bits(scaled.plain_params[static_cast<size_t>(b)].value(),
                            unscaled.plain_params[static_cast<size_t>(b)].value()))
          << "serial model " << b << " step " << step;
    EXPECT_EQ(scaled.max_diff(), 0.f) << "fused vs serial step " << step;
  }
}

TEST_P(FusedOptimB, SharedScalarHyperparamBroadcasts) {
  const int64_t B = GetParam();
  OptimRig s(B, 7);
  FusedSGD fused({{s.fused_param, B}}, B, {.lr = {0.05}});
  EXPECT_EQ(fused.lr().size(), static_cast<size_t>(B));
  for (double v : fused.lr()) EXPECT_DOUBLE_EQ(v, 0.05);
}

TEST_P(FusedOptimB, StepLRPerModelSchedules) {
  const int64_t B = GetParam();
  OptimRig s(B, 8);
  HyperVec base(B);
  std::vector<int64_t> step_size(B);
  HyperVec gamma(B);
  for (int64_t b = 0; b < B; ++b) {
    base[b] = 0.1 * (b + 1);
    step_size[b] = b + 1;
    gamma[b] = 0.5;
  }
  FusedSGD fused({{s.fused_param, B}}, B, {.lr = base});
  FusedStepLR sched(fused, step_size, gamma);
  // Reference: B independent one-model schedules.
  std::vector<std::unique_ptr<nn::SGD>> plain;
  std::vector<std::unique_ptr<FusedStepLR>> plain_sched;
  for (int64_t b = 0; b < B; ++b) {
    plain.push_back(std::make_unique<nn::SGD>(
        std::vector<ag::Variable>{s.plain_params[static_cast<size_t>(b)]},
        nn::SGD::Options{base[b]}));
    plain_sched.push_back(std::make_unique<FusedStepLR>(
        *plain.back(), std::vector<int64_t>{step_size[b]},
        HyperVec{gamma[b]}));
  }
  for (int e = 0; e < 10; ++e) {
    sched.step();
    for (int64_t b = 0; b < B; ++b) {
      plain_sched[static_cast<size_t>(b)]->step();
      EXPECT_EQ(fused.lr()[static_cast<size_t>(b)],
                plain[static_cast<size_t>(b)]->lr()[0])
          << "epoch " << e << " model " << b;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(ArraySizes, FusedOptimB,
                         ::testing::Values(1, 2, 3, 5, 8));

TEST(FusedSched, RejectsDegenerateSchedules) {
  // step_size 0 would divide by zero in StepLR; t_max 0 turns every cosine
  // learning rate into NaN. Both are rejected per model, at construction.
  OptimRig s(2, 11);
  FusedSGD opt({{s.fused_param, 2}}, 2, {.lr = {0.1}});
  EXPECT_THROW(FusedStepLR(opt, {0}, {0.5}), Error);
  EXPECT_THROW(FusedStepLR(opt, {2, 0}, {0.5}), Error);
  EXPECT_THROW(FusedStepLR(opt, {-1}, {0.5}), Error);
  EXPECT_NO_THROW(FusedStepLR(opt, {1, 3}, {0.5}));
  EXPECT_THROW(FusedCosineAnnealingLR(opt, {0}, {0.0}), Error);
  EXPECT_THROW(FusedCosineAnnealingLR(opt, {4, 0}, {0.0}), Error);
  EXPECT_NO_THROW(FusedCosineAnnealingLR(opt, {1, 4}, {0.0}));
}

// ---- loss scaling (Appendix C) ------------------------------------------------

TEST(LossScaling, MeanReductionSumsPerModelMeans) {
  // Two "models", each a 1-param linear y = w*x; loss = mean over batch.
  // The fused kMean rule (loss_scaling.h) is the sum of the B per-model
  // means, built as the kSum loss times float(1/N): each model's gradient
  // equals its serial one bit for bit.
  const int64_t B = 2, N = 4;
  Rng rng(9);
  Tensor x = Tensor::randn({B, N, 1}, rng);
  Tensor t = Tensor::randn({B, N, 1}, rng);

  // Serial gradients.
  std::vector<float> serial_grads;
  for (int64_t b = 0; b < B; ++b) {
    ag::Variable w(Tensor::full({1, 1, 1}, 0.7f), true);
    ag::Variable xb = ag::constant(x.slice(0, b, b + 1));
    ag::Variable y = ag::mul(xb, w);
    ag::Variable loss =
        ag::mse_loss(y, t.slice(0, b, b + 1), ag::Reduction::kMean);
    loss.backward();
    serial_grads.push_back(w.grad().item());
  }

  // Fused gradient under the per-model mean rule.
  ag::Variable wf(Tensor::full({B, 1, 1}, 0.7f), true);
  ag::Variable y = ag::mul(ag::constant(x), wf);
  ag::mul_scalar(ag::mse_loss(y, t, ag::Reduction::kSum),
                 1.f / static_cast<float>(N))
      .backward();
  for (int64_t b = 0; b < B; ++b)
    EXPECT_EQ(wf.grad().data()[b], serial_grads[static_cast<size_t>(b)]);

  // The naive mean over all B*N samples under-scales every model's
  // gradient by 1/B (Eq. 2).
  ag::Variable wf2(Tensor::full({B, 1, 1}, 0.7f), true);
  ag::Variable y2 = ag::mul(ag::constant(x), wf2);
  ag::mse_loss(y2, t, ag::Reduction::kMean).backward();
  for (int64_t b = 0; b < B; ++b)
    EXPECT_NEAR(wf2.grad().data()[b],
                serial_grads[static_cast<size_t>(b)] / B, 1e-5f);
}

TEST(LossScaling, SumReductionNeedsNoScale) {
  const int64_t B = 3, N = 4;
  Rng rng(10);
  Tensor x = Tensor::randn({B, N, 1}, rng);
  Tensor t = Tensor::randn({B, N, 1}, rng);
  std::vector<float> serial_grads;
  for (int64_t b = 0; b < B; ++b) {
    ag::Variable w(Tensor::full({1, 1, 1}, -0.3f), true);
    ag::Variable y = ag::mul(ag::constant(x.slice(0, b, b + 1)), w);
    ag::mse_loss(y, t.slice(0, b, b + 1), ag::Reduction::kSum).backward();
    serial_grads.push_back(w.grad().item());
  }
  ag::Variable wf(Tensor::full({B, 1, 1}, -0.3f), true);
  ag::Variable y = ag::mul(ag::constant(x), wf);
  ag::mse_loss(y, t, ag::Reduction::kSum).backward();
  for (int64_t b = 0; b < B; ++b)
    EXPECT_EQ(wf.grad().data()[b], serial_grads[static_cast<size_t>(b)]);
}

TEST(LossScaling, FusedCrossEntropyMatchesPerModel) {
  const int64_t B = 3, N = 5, C = 4;
  Rng rng(11);
  Tensor logits = Tensor::randn({B, N, C}, rng);
  Tensor labels({B, N});
  for (int64_t i = 0; i < labels.numel(); ++i)
    labels.data()[i] = static_cast<float>(rng.uniform_int(C));
  // Gradient through fused CE == per-model CE gradients.
  ag::Variable lf(logits.clone(), true);
  fused_cross_entropy(lf, labels, ag::Reduction::kMean).backward();
  for (int64_t b = 0; b < B; ++b) {
    ag::Variable lb(logits.slice(0, b, b + 1).reshape({N, C}), true);
    ag::cross_entropy(lb, labels.slice(0, b, b + 1).reshape({N}),
                      ag::Reduction::kMean)
        .backward();
    tests::expect_same_bits(lb.grad(),
                            lf.grad().slice(0, b, b + 1).reshape({N, C}),
                            "model " + std::to_string(b));
  }
  // Per-model loss reporting matches direct computation.
  auto per = per_model_cross_entropy(logits, labels);
  for (int64_t b = 0; b < B; ++b) {
    ag::Variable lb(logits.slice(0, b, b + 1).reshape({N, C}));
    // build loss manually
    Tensor lp = ops::log_softmax(lb.value(), 1);
    double acc = 0;
    for (int64_t n = 0; n < N; ++n)
      acc -= lp.at({n, static_cast<int64_t>(labels.at({b, n}))});
    EXPECT_NEAR(per[static_cast<size_t>(b)], acc / N, 1e-5);
  }
}

TEST(LossScaling, FusedBceWithLogitsMatchesPerModel) {
  // B * N = 12 is not a power of two: float(1/12) * 3 and float(1/4) round
  // apart, so only the per-model mean rule gives the serial gradients.
  const int64_t B = 3, N = 4;
  Rng rng(12);
  Tensor logits = Tensor::randn({B, N}, rng);
  Tensor targets({B, N});
  for (int64_t i = 0; i < targets.numel(); ++i)
    targets.data()[i] = static_cast<float>(rng.uniform_int(2));
  ag::Variable lf(logits.clone(), true);
  fused_bce_with_logits(lf, targets, ag::Reduction::kMean, B).backward();
  for (int64_t b = 0; b < B; ++b) {
    ag::Variable lb(logits.slice(0, b, b + 1).reshape({N}), true);
    ag::bce_with_logits(lb, targets.slice(0, b, b + 1).reshape({N}),
                        ag::Reduction::kMean)
        .backward();
    tests::expect_same_bits(lb.grad(),
                            lf.grad().slice(0, b, b + 1).reshape({N}),
                            "model " + std::to_string(b));
  }
}

}  // namespace
}  // namespace hfta::fused
