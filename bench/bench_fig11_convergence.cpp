// Reproduces Figure 11 (and Appendix D): REAL training — not simulated —
// of ResNet-18 on a synthetic CIFAR-10 stand-in with three learning rates
// (paper: 0.0005 / 0.001 / 0.002, Adadelta). The three models train (a)
// independently ("Serial") and (b) as one HFTA-fused array; the per-model
// training-loss curves must overlap. We print both curves per step and the
// maximum divergence.
#include <cstdio>
#include <memory>

#include "data/datasets.h"
#include "data/loader.h"
#include "hfta/fused_optim.h"
#include "hfta/loss_scaling.h"
#include "hfta/train.h"
#include "models/resnet.h"

using namespace hfta;

int main() {
  Rng rng(2021);
  models::ResNetConfig cfg = models::ResNetConfig::tiny();
  cfg.image_size = 8;
  cfg.base_width = 4;
  const int64_t kB = 3;
  const fused::HyperVec lrs = {0.0005 * 1000, 0.001 * 1000, 0.002 * 1000};
  // (Adadelta lr in the paper's range rescaled for the tiny model so the
  //  curves visibly move in a few steps.)

  data::ImageDataset ds(64, cfg.image_size, 3, cfg.num_classes, 77);
  data::BatchSampler sampler(ds.size(), 16, true, 5);

  std::vector<std::shared_ptr<models::ResNet18>> plain;
  std::vector<std::shared_ptr<nn::Module>> nets;
  std::vector<std::unique_ptr<nn::Adadelta>> plain_opts;
  for (int64_t b = 0; b < kB; ++b) {
    plain.push_back(std::make_shared<models::ResNet18>(cfg, rng));
    nets.push_back(plain.back()->net);
    plain_opts.push_back(std::make_unique<nn::Adadelta>(
        plain.back()->parameters(),
        nn::Adadelta::Options{.lr = lrs[static_cast<size_t>(b)]}));
  }
  fused::FusionOptions opts;
  opts.output_layout = fused::Layout::kModelMajor;
  auto fused_model = fused::FusionPlan(kB, opts).compile(nets, rng);
  fused::FusedAdadelta fused_opt(
      fused::collect_fused_parameters(*fused_model, kB), kB, {.lr = lrs});

  std::printf("Figure 11: training loss per iteration, serial (solid) vs "
              "HFTA (dotted)\n");
  std::printf("%-5s", "step");
  for (int64_t b = 0; b < kB; ++b)
    std::printf("   LR%-7g serial   hfta", lrs[static_cast<size_t>(b)]);
  std::printf("\n");

  double max_div = 0;
  int step = 0;
  TrainStep train;  // one iteration engine for the fused and serial steps
  for (int epoch = 0; epoch < 3; ++epoch) {
    for (const auto& batch_idx : sampler.epoch()) {
      auto [x, y] = ds.batch(batch_idx);
      std::vector<Tensor> xs(kB, x);
      Tensor labels({kB, x.size(0)});
      for (int64_t b = 0; b < kB; ++b)
        for (int64_t n = 0; n < x.size(0); ++n) labels.at({b, n}) = y.at({n});

      std::vector<double> fused_losses;
      train.run(fused_opt, [&] {
        ag::Variable logits =
            fused_model->forward(ag::Variable(fused::pack_channel_fused(xs)));
        fused_losses = fused::per_model_cross_entropy(logits.value(), labels);
        return fused::fused_cross_entropy(logits, labels,
                                          ag::Reduction::kMean);
      });

      std::printf("%-5d", step);
      for (int64_t b = 0; b < kB; ++b) {
        const size_t ub = static_cast<size_t>(b);
        const ag::Variable loss =
            train.run(*plain_opts[ub], [&, &x = x, &y = y] {
              return ag::cross_entropy(plain[ub]->forward(ag::Variable(x)), y,
                                       ag::Reduction::kMean);
            });
        const double serial_loss = loss.value().item();
        std::printf("   %15.4f %7.4f", serial_loss, fused_losses[ub]);
        max_div = std::max(max_div,
                           std::abs(serial_loss - fused_losses[ub]));
      }
      std::printf("\n");
      ++step;
    }
  }
  std::printf("\nmax |serial - HFTA| loss divergence over %d steps: %.5f\n",
              step, max_div);
  std::printf("(paper: dotted curves overlap the solid ones entirely — "
              "HFTA does not affect convergence)\n");
  return 0;
}
