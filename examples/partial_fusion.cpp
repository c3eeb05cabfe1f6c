// Partial fusion (Appendix H.4) on the fusion-planner API: when some blocks
// cannot be fused (e.g. model-architecture search where blocks differ across
// trials), HFTA still fuses the rest. This example compiles the SAME three
// per-model ResNet-18 graphs under three different plan fuse_masks (fully
// fused, head + last two blocks unfused, fully unfused), verifies the math
// is unchanged, and times fully-fused vs partially-fused vs fully-unfused
// forward+backward on CPU.
//
//   build/examples/partial_fusion
#include <algorithm>
#include <chrono>
#include <cstdio>

#include "hfta/train.h"
#include "models/resnet.h"
#include "tensor/ops.h"

using namespace hfta;
using Clock = std::chrono::steady_clock;

static double time_steps(fused::FusedArray& model, const Tensor& x,
                         int steps) {
  // Optimizer-free: zero_grad -> forward -> loss -> backward per
  // iteration, with one TrainStep's engine scratch reused across all of
  // them.
  TrainStep step;
  const auto t0 = Clock::now();
  for (int s = 0; s < steps; ++s) {
    model.zero_grad();
    step.backward(ag::sum_all(model.forward(ag::Variable(x))));
  }
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

int main() {
  const int64_t B = 3;
  Rng rng(3);
  models::ResNetConfig cfg = models::ResNetConfig::tiny();
  cfg.image_size = 8;

  // ONE per-model definition; the planner does the rest. The three
  // configurations differ only in the plan's fuse_mask. Unfused units own
  // Module::clone() replicas of the donors, so the three arrays are fully
  // independent of the donors (and of each other) even under training.
  std::vector<std::shared_ptr<nn::Module>> nets;
  for (int64_t b = 0; b < B; ++b)
    nets.push_back(models::ResNet18(cfg, rng).net);

  auto compile_with = [&](const models::ResNetFusionMask& mask) {
    fused::FusionOptions opts;
    opts.fuse_mask = mask.to_fuse_mask();
    opts.output_layout = fused::Layout::kModelMajor;
    return fused::FusionPlan(B, opts).compile(nets, rng);
  };
  auto full = compile_with(models::ResNetFusionMask::all_fused());
  auto partial = compile_with(models::ResNetFusionMask::partially_unfused(3));
  auto none = compile_with(models::ResNetFusionMask::partially_unfused(10));

  std::printf("plan for the partially fused configuration:\n%s\n",
              partial->describe().c_str());

  Rng data_rng(4);
  std::vector<Tensor> xs;
  for (int64_t b = 0; b < B; ++b)
    xs.push_back(Tensor::randn({4, 3, cfg.image_size, cfg.image_size},
                               data_rng));
  Tensor x = fused::pack_channel_fused(xs);

  // Correctness: all three plans compute the same function (the planner
  // loaded the same per-model weights into each).
  Tensor y_full = full->forward(ag::Variable(x)).value();
  Tensor y_partial = partial->forward(ag::Variable(x)).value();
  Tensor y_none = none->forward(ag::Variable(x)).value();
  std::printf("max |full - partial| = %.2e, |full - unfused| = %.2e\n",
              ops::max_abs_diff(y_full, y_partial),
              ops::max_abs_diff(y_full, y_none));

  // Performance: more fusion -> faster, even on CPU (fewer dispatches,
  // bigger kernels) — the Fig. 17 trend on real hardware we do have.
  const int kSteps = 5;
  const double t_full = time_steps(*full, x, kSteps);
  const double t_partial = time_steps(*partial, x, kSteps);
  const double t_none = time_steps(*none, x, kSteps);
  std::printf("\n%d fwd+bwd steps of a %ld-model array:\n", kSteps, B);
  std::printf("  fully fused (10/10 units):     %.3fs\n", t_full);
  std::printf("  partially fused (7/10 units):  %.3fs\n", t_partial);
  std::printf("  fully unfused (0/10 units):    %.3fs\n", t_none);
  std::printf("\n=> every fused block helps; partial fusion is still worth "
              "it (paper Fig. 17).\n");

  // Donor isolation: training the partially fused array must leave the
  // donor nets untouched (unfused units own cloned replicas).
  std::vector<Tensor> donor_before;
  for (const auto& p : nets[0]->parameters())
    donor_before.push_back(p.value().clone());
  time_steps(*partial, x, 1);  // one fwd+bwd with gradients
  for (auto& p : partial->parameters()) {
    Tensor v = p.mutable_value();
    v.add_(Tensor::ones(v.shape()), 1e-3f);  // crude "optimizer step"
  }
  float donor_drift = 0.f;
  const auto donor_after = nets[0]->parameters();
  for (size_t i = 0; i < donor_before.size(); ++i)
    donor_drift = std::max(donor_drift,
                           ops::max_abs_diff(donor_before[i],
                                             donor_after[i].value()));
  std::printf("donor drift after training the partial array: %.2e\n",
              donor_drift);
  return 0;
}
