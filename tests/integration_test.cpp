// End-to-end training equivalence (the paper's convergence claim, Appendix
// C/D): training B models fused via HFTA — fused forward, scaled fused
// loss, fused optimizer with per-model hyper-parameters — must track B
// independent serial training runs step for step, on real synthetic data.
#include <gtest/gtest.h>

#include "data/datasets.h"
#include "data/loader.h"

#include <cmath>

#include "hfta/fused_optim.h"
#include "hfta/fused_sched.h"
#include "hfta/loss_scaling.h"
#include "models/dcgan.h"
#include "models/pointnet.h"
#include "models/resnet.h"
#include "tensor/ops.h"

namespace hfta {
namespace {

using fused::FusedParam;

constexpr int64_t kB = 3;

// The planner-compiled array of the B per-model graphs, model-major output.
std::shared_ptr<fused::FusedArray> compile_model_major(
    const std::vector<std::shared_ptr<nn::Module>>& nets, Rng& rng) {
  fused::FusionOptions opts;
  opts.output_layout = fused::Layout::kModelMajor;
  return fused::FusionPlan(kB, opts).compile(nets, rng);
}

// Max |fused param block b - plain param| across all parameters.
template <typename FusedModel, typename PlainModel>
float param_divergence(FusedModel& fused_model,
                       std::vector<std::shared_ptr<PlainModel>>& plain,
                       int64_t B) {
  float worst = 0.f;
  auto fused_params = fused_model.named_parameters();
  for (int64_t b = 0; b < B; ++b) {
    auto plain_params = plain[static_cast<size_t>(b)]->named_parameters();
    // Parameter order matches because the module trees are parallel.
    HFTA_CHECK(fused_params.size() == plain_params.size(),
               "parameter structure mismatch");
    for (size_t i = 0; i < fused_params.size(); ++i) {
      const Tensor& fv = fused_params[i].second.value();
      const Tensor& pv = plain_params[i].second.value();
      const int64_t block = fv.numel() / B;
      HFTA_CHECK(block == pv.numel(), "block size mismatch at ",
                 fused_params[i].first);
      Tensor fb({block});
      std::copy(fv.data() + b * block, fv.data() + (b + 1) * block, fb.data());
      worst = std::max(worst, ops::max_abs_diff(fb, pv));
    }
  }
  return worst;
}

TEST(TrainingEquivalence, PointNetClsAdamWithHeterogeneousLRs) {
  Rng rng(1);
  models::PointNetConfig cfg = models::PointNetConfig::tiny();
  data::PointCloudDataset ds(32, cfg.num_points, cfg.num_classes,
                             cfg.num_parts, /*seed=*/7);

  // B plain models + their Adam optimizers (distinct lrs).
  std::vector<std::shared_ptr<models::PointNetCls>> plain;
  std::vector<std::shared_ptr<nn::Module>> nets;
  std::vector<std::unique_ptr<nn::Adam>> plain_opts;
  fused::HyperVec lrs;
  for (int64_t b = 0; b < kB; ++b) {
    plain.push_back(std::make_shared<models::PointNetCls>(cfg, rng));
    nets.push_back(plain.back()->net);
    const double lr = 1e-3 * (b + 1);
    lrs.push_back(lr);
    plain_opts.push_back(std::make_unique<nn::Adam>(
        plain.back()->parameters(), nn::Adam::Options{.lr = lr}));
  }
  auto fused_model = compile_model_major(nets, rng);
  fused::FusedAdam fused_opt(
      fused::collect_fused_parameters(*fused_model, kB), kB, {.lr = lrs});

  data::BatchSampler sampler(ds.size(), 8, /*shuffle=*/true, 3);
  int steps = 0;
  for (const auto& batch_idx : sampler.epoch()) {
    auto [x, y] = ds.batch_cls(batch_idx);
    // All B jobs see the same data (hyper-parameter tuning semantics).
    std::vector<Tensor> xs(kB, x);
    Tensor labels({kB, x.size(0)});
    for (int64_t b = 0; b < kB; ++b)
      for (int64_t n = 0; n < x.size(0); ++n)
        labels.at({b, n}) = y.at({n});

    // fused step
    fused_opt.zero_grad();
    ag::Variable logits =
        fused_model->forward(ag::Variable(fused::pack_channel_fused(xs)));
    fused::fused_cross_entropy(logits, labels, ag::Reduction::kMean)
        .backward();
    fused_opt.step();

    // serial steps
    for (int64_t b = 0; b < kB; ++b) {
      const size_t ub = static_cast<size_t>(b);
      plain_opts[ub]->zero_grad();
      ag::Variable lb = plain[ub]->forward(ag::Variable(x));
      ag::cross_entropy(lb, y, ag::Reduction::kMean).backward();
      plain_opts[ub]->step();
    }
    if (++steps >= 3) break;
  }
  EXPECT_EQ(param_divergence(*fused_model, plain, kB), 0.f);
}

TEST(TrainingEquivalence, ResNetSGDMomentumAndStepLR) {
  Rng rng(2);
  models::ResNetConfig cfg = models::ResNetConfig::tiny();
  cfg.image_size = 8;
  data::ImageDataset ds(16, cfg.image_size, 3, cfg.num_classes, 11);

  std::vector<std::shared_ptr<models::ResNet18>> plain;
  std::vector<std::shared_ptr<nn::Module>> nets;
  std::vector<std::unique_ptr<nn::SGD>> plain_opts;
  std::vector<std::unique_ptr<fused::FusedStepLR>> plain_scheds;
  fused::HyperVec lrs;
  for (int64_t b = 0; b < kB; ++b) {
    plain.push_back(std::make_shared<models::ResNet18>(cfg, rng));
    nets.push_back(plain.back()->net);
    const double lr = 0.01 * (b + 1);
    lrs.push_back(lr);
    plain_opts.push_back(std::make_unique<nn::SGD>(
        plain.back()->parameters(),
        nn::SGD::Options{.lr = lr, .momentum = 0.9}));
    plain_scheds.push_back(std::make_unique<fused::FusedStepLR>(
        *plain_opts.back(), std::vector<int64_t>{1}, fused::HyperVec{0.5}));
  }
  auto fused_model = compile_model_major(nets, rng);
  fused::FusedSGD fused_opt(fused::collect_fused_parameters(*fused_model, kB),
                            kB, {.lr = lrs, .momentum = {0.9}});
  fused::FusedStepLR fused_sched(fused_opt, {1}, {0.5});

  data::BatchSampler sampler(ds.size(), 8, true, 5);
  for (int epoch = 0; epoch < 2; ++epoch) {
    for (const auto& batch_idx : sampler.epoch()) {
      auto [x, y] = ds.batch(batch_idx);
      std::vector<Tensor> xs(kB, x);
      Tensor labels({kB, x.size(0)});
      for (int64_t b = 0; b < kB; ++b)
        for (int64_t n = 0; n < x.size(0); ++n) labels.at({b, n}) = y.at({n});

      fused_opt.zero_grad();
      ag::Variable logits =
          fused_model->forward(ag::Variable(fused::pack_channel_fused(xs)));
      fused::fused_cross_entropy(logits, labels, ag::Reduction::kMean)
          .backward();
      fused_opt.step();

      for (int64_t b = 0; b < kB; ++b) {
        const size_t ub = static_cast<size_t>(b);
        plain_opts[ub]->zero_grad();
        ag::cross_entropy(plain[ub]->forward(ag::Variable(x)), y,
                          ag::Reduction::kMean)
            .backward();
        plain_opts[ub]->step();
      }
    }
    fused_sched.step();
    for (auto& s : plain_scheds) s->step();
  }
  EXPECT_EQ(param_divergence(*fused_model, plain, kB), 0.f);
}

TEST(TrainingEquivalence, DCGANAdversarialStep) {
  // One GAN iteration (D step on real+fake, G step) fused vs serial.
  Rng rng(3);
  models::DCGANConfig cfg = models::DCGANConfig::tiny();
  const int64_t N = 4;

  std::vector<std::shared_ptr<models::DCGANGenerator>> gens;
  std::vector<std::shared_ptr<models::DCGANDiscriminator>> discs;
  std::vector<std::shared_ptr<nn::Module>> gnets, dnets;
  std::vector<std::unique_ptr<nn::Adam>> g_opts, d_opts;
  for (int64_t b = 0; b < kB; ++b) {
    gens.push_back(std::make_shared<models::DCGANGenerator>(cfg, rng));
    discs.push_back(std::make_shared<models::DCGANDiscriminator>(cfg, rng));
    gnets.push_back(gens.back()->net);
    dnets.push_back(discs.back()->net);
    g_opts.push_back(std::make_unique<nn::Adam>(
        gens.back()->parameters(), nn::Adam::Options{.lr = 2e-4, .beta1 = 0.5}));
    d_opts.push_back(std::make_unique<nn::Adam>(
        discs.back()->parameters(),
        nn::Adam::Options{.lr = 2e-4, .beta1 = 0.5}));
  }
  auto fgen = fused::FusionPlan(kB).compile(gnets, rng);
  auto fdisc = compile_model_major(dnets, rng);
  // The array's discriminator logits are [B, N, 1]; the losses take [B, N].
  auto disc_logits = [&](const ag::Variable& x) {
    return ag::reshape(fdisc->forward(x), {kB, N});
  };
  fused::FusedAdam fg_opt(fused::collect_fused_parameters(*fgen, kB), kB,
                          {.lr = {2e-4}, .beta1 = {0.5}});
  fused::FusedAdam fd_opt(fused::collect_fused_parameters(*fdisc, kB), kB,
                          {.lr = {2e-4}, .beta1 = {0.5}});

  data::ImageDataset ds(N, cfg.image_size, cfg.nc, 2, 21);
  std::vector<int64_t> idx = {0, 1, 2, 3};
  auto [real, ignored_labels] = ds.batch(idx);
  Tensor z = Tensor::randn({N, cfg.nz, 1, 1}, rng);
  std::vector<Tensor> reals(kB, real), zs(kB, z);
  Tensor ones_t = Tensor::ones({kB, N});
  Tensor zeros_t = Tensor::zeros({kB, N});
  Tensor ones_1 = Tensor::ones({N});
  Tensor zeros_1 = Tensor::zeros({N});

  // ---- fused D step: real + fake(detached) ----
  fd_opt.zero_grad();
  ag::Variable d_real =
      disc_logits(ag::Variable(fused::pack_channel_fused(reals)));
  fused::fused_bce_with_logits(d_real, ones_t, ag::Reduction::kMean, kB)
      .backward();
  Tensor fake_f =
      fgen->forward(ag::Variable(fused::pack_channel_fused(zs))).value();
  ag::Variable d_fake = disc_logits(ag::Variable(fake_f));
  fused::fused_bce_with_logits(d_fake, zeros_t, ag::Reduction::kMean, kB)
      .backward();
  fd_opt.step();
  // ---- fused G step ----
  fg_opt.zero_grad();
  ag::Variable fake_v =
      fgen->forward(ag::Variable(fused::pack_channel_fused(zs)));
  ag::Variable d_on_fake = disc_logits(fake_v);
  fused::fused_bce_with_logits(d_on_fake, ones_t, ag::Reduction::kMean, kB)
      .backward();
  fg_opt.step();

  // ---- serial counterparts ----
  for (int64_t b = 0; b < kB; ++b) {
    const size_t ub = static_cast<size_t>(b);
    d_opts[ub]->zero_grad();
    ag::Variable dr = discs[ub]->forward(ag::Variable(real));
    ag::bce_with_logits(dr, ones_1, ag::Reduction::kMean).backward();
    Tensor fake_b = gens[ub]->forward(ag::Variable(z)).value();
    ag::Variable df = discs[ub]->forward(ag::Variable(fake_b));
    ag::bce_with_logits(df, zeros_1, ag::Reduction::kMean).backward();
    d_opts[ub]->step();
    g_opts[ub]->zero_grad();
    ag::Variable fv = gens[ub]->forward(ag::Variable(z));
    ag::Variable dof = discs[ub]->forward(fv);
    ag::bce_with_logits(dof, ones_1, ag::Reduction::kMean).backward();
    g_opts[ub]->step();
  }

  EXPECT_EQ(param_divergence(*fgen, gens, kB), 0.f);
  EXPECT_EQ(param_divergence(*fdisc, discs, kB), 0.f);
}

TEST(TrainingEquivalence, LossCurvesIdenticalAcrossManySteps) {
  // The Figure-11 claim in miniature: per-model fused losses overlap the
  // serial losses at every step.
  Rng rng(4);
  models::ResNetConfig cfg = models::ResNetConfig::tiny();
  cfg.image_size = 8;
  cfg.base_width = 4;
  data::ImageDataset ds(16, cfg.image_size, 3, cfg.num_classes, 31);

  std::vector<std::shared_ptr<models::ResNet18>> plain;
  std::vector<std::shared_ptr<nn::Module>> nets;
  std::vector<std::unique_ptr<nn::Adadelta>> plain_opts;
  fused::HyperVec lrs = {0.5, 1.0, 2.0};
  for (int64_t b = 0; b < kB; ++b) {
    plain.push_back(std::make_shared<models::ResNet18>(cfg, rng));
    nets.push_back(plain.back()->net);
    plain_opts.push_back(std::make_unique<nn::Adadelta>(
        plain.back()->parameters(),
        nn::Adadelta::Options{.lr = lrs[static_cast<size_t>(b)]}));
  }
  auto fused_model = compile_model_major(nets, rng);
  fused::FusedAdadelta fused_opt(
      fused::collect_fused_parameters(*fused_model, kB), kB, {.lr = lrs});

  data::BatchSampler sampler(ds.size(), 8, true, 9);
  for (int step = 0; step < 6; ++step) {
    auto batches = sampler.epoch();
    auto [x, y] = ds.batch(batches[static_cast<size_t>(step) % batches.size()]);
    std::vector<Tensor> xs(kB, x);
    Tensor labels({kB, x.size(0)});
    for (int64_t b = 0; b < kB; ++b)
      for (int64_t n = 0; n < x.size(0); ++n) labels.at({b, n}) = y.at({n});

    fused_opt.zero_grad();
    ag::Variable logits =
        fused_model->forward(ag::Variable(fused::pack_channel_fused(xs)));
    auto fused_losses =
        fused::per_model_cross_entropy(logits.value(), labels);
    fused::fused_cross_entropy(logits, labels, ag::Reduction::kMean)
        .backward();
    fused_opt.step();

    for (int64_t b = 0; b < kB; ++b) {
      const size_t ub = static_cast<size_t>(b);
      plain_opts[ub]->zero_grad();
      ag::Variable lb = plain[ub]->forward(ag::Variable(x));
      ag::Variable loss = ag::cross_entropy(lb, y, ag::Reduction::kMean);
      loss.backward();
      plain_opts[ub]->step();
      EXPECT_NEAR(fused_losses[ub], loss.value().item(), 2e-3)
          << "step " << step << " model " << b;
    }
  }
}

}  // namespace
}  // namespace hfta
