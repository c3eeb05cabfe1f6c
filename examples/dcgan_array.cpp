// GAN training array: trains B = 3 DCGANs (different Adam beta1 values —
// a classic GAN-stability knob) as one fused generator + one fused
// discriminator on a synthetic LSUN-like image set. Demonstrates the
// paper's point that GANs, which cannot simply raise their batch size
// (training instability), still benefit from HFTA.
//
//   build/examples/dcgan_array
#include <cmath>
#include <cstdio>

#include "data/datasets.h"
#include "hfta/fused_optim.h"
#include "hfta/loss_scaling.h"
#include "hfta/train.h"
#include "models/dcgan.h"
#include "tensor/ops.h"

using namespace hfta;

int main() {
  const int64_t B = 3, N = 8;
  Rng rng(5);
  models::DCGANConfig cfg = models::DCGANConfig::tiny();
  data::ImageDataset ds(32, cfg.image_size, cfg.nc, 2, 13);

  // B per-model generator and discriminator graphs, each compiled into
  // one fused array by the planner.
  std::vector<std::shared_ptr<nn::Module>> gnets, dnets;
  for (int64_t b = 0; b < B; ++b) {
    gnets.push_back(models::DCGANGenerator(cfg, rng).net);
    dnets.push_back(models::DCGANDiscriminator(cfg, rng).net);
  }
  auto gen = fused::FusionPlan(B).compile(gnets, rng);
  fused::FusionOptions disc_opts;
  disc_opts.output_layout = fused::Layout::kModelMajor;
  auto disc = fused::FusionPlan(B, disc_opts).compile(dnets, rng);
  // The discriminator array emits model-major logits [B, N, 1].
  auto disc_logits = [&](const ag::Variable& x) {
    return ag::reshape(disc->forward(x), {B, N});
  };
  const fused::HyperVec beta1 = {0.3, 0.5, 0.7};
  fused::FusedAdam g_opt(fused::collect_fused_parameters(*gen, B), B,
                         {.lr = {2e-3}, .beta1 = beta1});
  fused::FusedAdam d_opt(fused::collect_fused_parameters(*disc, B), B,
                         {.lr = {2e-3}, .beta1 = beta1});

  const Tensor real_label = Tensor::ones({B, N});
  const Tensor fake_label = Tensor::zeros({B, N});

  // Both GAN phases (and both optimizers) share one iteration engine; the
  // discriminator's real+fake terms ride the multi-loss TrainStep overload
  // (each loss runs backward before the single optimizer step). With
  // capture on, each phase runs one eager step, captures the next and
  // replays the rest, so the per-step data is staged in place into the
  // tensors the captured graphs read, and the logged logits are the
  // captured variables, whose values every replay refreshes.
  TrainStep train;
  train.enable_capture();
  Tensor z, reals;
  ag::Variable d_real, d_on_fake;

  std::printf("fused DCGAN array: B=%ld GANs, beta1 = {0.3, 0.5, 0.7}\n\n",
              B);
  std::printf("%-5s %28s %28s\n", "step", "D loss (per model)",
              "G loss (per model)");
  for (int step = 0; step < 12; ++step) {
    std::vector<int64_t> idx;
    for (int64_t i = 0; i < N; ++i)
      idx.push_back((step * N + i) % ds.size());
    auto [real, labels_unused] = ds.batch(idx);
    train.stage(&reals,
                fused::pack_channel_fused(std::vector<Tensor>(B, real)));
    train.stage(&z, Tensor::randn({N, B * cfg.nz, 1, 1}, rng));

    // --- discriminator step: real up, fake down -------------------------
    train.run(d_opt, [&]() -> std::vector<ag::Variable> {
      d_real = disc_logits(ag::Variable(reals));
      ag::Variable loss_real = fused::fused_bce_with_logits(
          d_real, real_label, ag::Reduction::kMean, B);
      Tensor fake = gen->forward(ag::Variable(z)).value();  // detached
      ag::Variable d_fake = disc_logits(ag::Variable(fake));
      ag::Variable loss_fake = fused::fused_bce_with_logits(
          d_fake, fake_label, ag::Reduction::kMean, B);
      return {loss_real, loss_fake};
    });

    // --- generator step: make D call fakes real -------------------------
    train.run(g_opt, [&] {
      ag::Variable fake_v = gen->forward(ag::Variable(z));
      d_on_fake = disc_logits(fake_v);
      return fused::fused_bce_with_logits(d_on_fake, real_label,
                                          ag::Reduction::kMean, B);
    });

    if (step % 3 == 0) {
      // Per-model BCE values for logging (mean over the model's batch).
      auto per_model = [&](const Tensor& logits, float target) {
        std::vector<double> out;
        for (int64_t b = 0; b < B; ++b) {
          double acc = 0;
          for (int64_t n = 0; n < N; ++n) {
            const float v = logits.at({b, n});
            acc += std::max(v, 0.f) - v * target +
                   std::log1p(std::exp(-std::fabs(v)));
          }
          out.push_back(acc / N);
        }
        return out;
      };
      auto dl = per_model(d_real.value(), 1.f);
      auto gl = per_model(d_on_fake.value(), 1.f);
      std::printf("%-5d    %8.4f %8.4f %8.4f    %8.4f %8.4f %8.4f\n", step,
                  dl[0], dl[1], dl[2], gl[0], gl[1], gl[2]);
    }
  }
  std::printf("\nsteps replayed tape-free: %ld of %ld\n",
              train.stats().replays, train.stats().steps);
  std::printf("\nEach column is an independent GAN with its own beta1 — one "
              "fused job\nreplaces three processes without touching any "
              "model's training dynamics.\n");
  return 0;
}
