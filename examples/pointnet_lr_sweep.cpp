// Learning-rate sweep on PointNet classification — the paper's motivating
// workload. Trains B = 4 PointNet models with different Adam learning
// rates over a synthetic ShapeNet-like dataset, (a) serially and (b) as
// one HFTA-fused array, and reports real wall-clock time for both. Even on
// CPU, fusion amortizes per-op overheads and improves cache behavior.
//
// The fused array is compiled straight from the serial models' per-model
// graphs by the fusion planner — the array starts from the serial models'
// exact weights with no load_model step and no hand-written fused model.
//
//   build/examples/pointnet_lr_sweep
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>

#include "data/datasets.h"
#include "data/loader.h"
#include "hfta/fused_optim.h"
#include "hfta/loss_scaling.h"
#include "hfta/fusion.h"
#include "hfta/train.h"
#include "models/pointnet.h"
#include "tensor/ops.h"

using namespace hfta;
using Clock = std::chrono::steady_clock;

static double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

int main() {
  const int64_t B = 4;
  Rng rng(7);
  models::PointNetConfig cfg = models::PointNetConfig::tiny();
  data::PointCloudDataset ds(64, cfg.num_points, cfg.num_classes,
                             cfg.num_parts, 3);
  data::BatchSampler sampler(ds.size(), 16, true, 11);
  const fused::HyperVec lrs = {5e-4, 1e-3, 2e-3, 4e-3};

  // Build B serial models; the planner compiles the fused array straight
  // from their graphs (taking their weights with it).
  std::vector<std::shared_ptr<models::PointNetCls>> serial;
  std::vector<std::shared_ptr<nn::Module>> nets;
  for (int64_t b = 0; b < B; ++b) {
    serial.push_back(std::make_shared<models::PointNetCls>(cfg, rng));
    nets.push_back(serial.back()->net);
  }
  fused::FusionOptions opts;
  opts.output_layout = fused::Layout::kModelMajor;
  std::shared_ptr<fused::FusedArray> fused_model_ptr =
      fused::FusionPlan(B, opts).compile(nets, rng);
  fused::FusedArray& fused_model = *fused_model_ptr;

  const int kEpochs = 2;

  // --- serial: one job per learning rate, back to back -------------------
  std::vector<std::unique_ptr<nn::Adam>> serial_opts;
  for (int64_t b = 0; b < B; ++b)
    serial_opts.push_back(std::make_unique<nn::Adam>(
        serial[static_cast<size_t>(b)]->parameters(),
        nn::Adam::Options{.lr = lrs[static_cast<size_t>(b)]}));
  // Both phases drive the shared iteration engine: one TrainStep whose
  // backward scratch and pooled storage stay warm across every iteration
  // (and across the serial/fused boundary).
  TrainStep step;
  const auto t_serial = Clock::now();
  // Each model's last logits and labels, scored after the timed phase by
  // the same per-model routine as the fused column.
  std::vector<Tensor> serial_logits(B), serial_labels(B);
  for (int64_t b = 0; b < B; ++b) {
    data::BatchSampler s2(ds.size(), 16, true, 11);
    for (int e = 0; e < kEpochs; ++e) {
      for (const auto& bidx : s2.epoch()) {
        auto [x, y] = ds.batch_cls(bidx);
        step.run(*serial_opts[static_cast<size_t>(b)], [&, &x = x, &y = y] {
          ag::Variable logits =
              serial[static_cast<size_t>(b)]->forward(ag::Variable(x));
          serial_logits[static_cast<size_t>(b)] = logits.value();
          serial_labels[static_cast<size_t>(b)] = y;
          return ag::cross_entropy(logits, y, ag::Reduction::kMean);
        });
      }
    }
  }
  const double serial_s = seconds_since(t_serial);

  // --- HFTA: all four learning rates in one fused job --------------------
  fused::FusedAdam fused_opt(fused::collect_fused_parameters(fused_model, B),
                             B, {.lr = lrs});
  const auto t_fused = Clock::now();
  std::vector<double> fused_losses(static_cast<size_t>(B), 0);
  for (int e = 0; e < kEpochs; ++e) {
    for (const auto& bidx : sampler.epoch()) {
      auto [x, y] = ds.batch_cls(bidx);
      std::vector<Tensor> xs(B, x);
      Tensor labels({B, x.size(0)});
      for (int64_t b = 0; b < B; ++b)
        for (int64_t n = 0; n < x.size(0); ++n) labels.at({b, n}) = y.at({n});
      step.run(fused_opt, [&] {
        ag::Variable logits =
            fused_model.forward(ag::Variable(fused::pack_channel_fused(xs)));
        fused_losses = fused::per_model_cross_entropy(logits.value(), labels);
        return fused::fused_cross_entropy(logits, labels,
                                          ag::Reduction::kMean);
      });
    }
  }
  const double fused_s = seconds_since(t_fused);

  std::printf("PointNet classification lr sweep, %ld models x %d epochs\n\n",
              B, kEpochs);
  std::printf("%-10s %-12s %-12s\n", "lr", "serial loss", "fused loss");
  double max_diff = 0;
  for (int64_t b = 0; b < B; ++b) {
    const size_t ub = static_cast<size_t>(b);
    const Tensor& logits = serial_logits[ub];
    const double serial_loss = fused::per_model_cross_entropy(
        logits.reshape({1, logits.size(0), logits.size(1)}),
        serial_labels[ub].reshape({1, logits.size(0)}))[0];
    max_diff = std::max(max_diff, std::fabs(serial_loss - fused_losses[ub]));
    std::printf("%-10g %-12.4f %-12.4f\n", lrs[ub], serial_loss,
                fused_losses[ub]);
  }
  std::printf("max |serial - fused| per-model loss: %.2e\n", max_diff);
  std::printf("\nwall-clock: serial %.2fs, HFTA-fused %.2fs  =>  %.2fx "
              "speedup on CPU\n",
              serial_s, fused_s, serial_s / fused_s);
  std::printf("(both runs draw the same shuffled batches, so per-model "
              "losses coincide —\n the fused run IS the serial runs, "
              "computed together)\n");
  return 0;
}
