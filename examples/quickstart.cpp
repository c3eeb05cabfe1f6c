// Quickstart: horizontally fuse three small classifiers that differ only in
// hyper-parameters, train them simultaneously with one fused model + one
// fused optimizer, and verify the result equals three independent runs.
//
//   build/examples/quickstart
#include <cstdio>

#include "data/datasets.h"
#include "hfta/fused_optim.h"
#include "hfta/fusion.h"
#include "hfta/loss_scaling.h"
#include "hfta/train.h"
#include "nn/layers.h"
#include "nn/norm.h"
#include "tensor/ops.h"

using namespace hfta;

namespace {

// A 2-layer MLP classifier: Linear -> ReLU -> Linear. Built with an array
// size B, as nn::Linear is, it is the fused array of B such MLPs: the same
// two lines over x [B, N, in], with each parameter holding model b in
// dim-0 block b, so fused::load_model/store_model move whole models.
struct Mlp : nn::Module {
  Mlp(int64_t in, int64_t hidden, int64_t classes, Rng& rng, int64_t B = 1) {
    fc1 = register_module(
        "fc1", std::make_shared<nn::Linear>(in, hidden, true, rng, B));
    fc2 = register_module(
        "fc2", std::make_shared<nn::Linear>(hidden, classes, true, rng, B));
  }
  ag::Variable forward(const ag::Variable& x) override {
    return fc2->forward(ag::relu(fc1->forward(x)));
  }
  std::shared_ptr<nn::Linear> fc1, fc2;
};

}  // namespace

int main() {
  const int64_t B = 3;        // three hyper-parameter trials, one GPU. . . er, CPU
  const int64_t in = 16, hidden = 32, classes = 4, batch = 32;
  Rng rng(1);

  // Three models with their own weights + their own learning rates.
  Mlp fused_model(in, hidden, classes, rng, B);
  std::vector<std::shared_ptr<Mlp>> serial_models;
  const fused::HyperVec lrs = {1e-3, 3e-3, 1e-2};
  for (int64_t b = 0; b < B; ++b) {
    serial_models.push_back(std::make_shared<Mlp>(in, hidden, classes, rng));
    fused::load_model(fused_model, B, b, *serial_models.back());
  }
  fused::FusedAdam fused_opt(fused::collect_fused_parameters(fused_model, B),
                             B, {.lr = lrs});
  std::vector<std::unique_ptr<nn::Adam>> serial_opts;
  for (int64_t b = 0; b < B; ++b)
    serial_opts.push_back(std::make_unique<nn::Adam>(
        serial_models[static_cast<size_t>(b)]->parameters(),
        nn::Adam::Options{.lr = lrs[static_cast<size_t>(b)]}));

  // Synthetic classification data.
  data::ImageDataset ds(batch, 4, 1, classes, 9);  // 4x4 gray "images"
  std::vector<int64_t> idx(batch);
  for (int64_t i = 0; i < batch; ++i) idx[static_cast<size_t>(i)] = i;
  auto [x4, y] = ds.batch(idx);
  Tensor x = x4.reshape({batch, in});
  Tensor fused_labels({B, batch});
  for (int64_t b = 0; b < B; ++b)
    for (int64_t n = 0; n < batch; ++n) fused_labels.at({b, n}) = y.at({n});

  std::printf("training %ld fused models (lrs: %.0e %.0e %.0e)\n\n", B,
              lrs[0], lrs[1], lrs[2]);
  // One TrainStep drives the fused iteration through the canonical
  // zero_grad -> forward/loss -> backward -> step sequence; the three
  // serial twins it replaces run on a SECOND TrainStep, so fused_step's
  // stats keep describing the fused step (the zero-alloc line below)
  // rather than the last serial twin.
  //
  // The batch is fixed, so both steps are captured once and replayed
  // thereafter: no autograd nodes, no closures, no topo sort per step.
  // (logits_value shares the captured graph's pinned storage, so the
  // per-model loss printout stays live through replays.)
  Tensor logits_value;  // value only: the tape is released per step
  TrainStep fused_step, serial_step;
  fused_step.enable_capture();
  serial_step.enable_capture();
  for (int64_t step = 0; step < 40; ++step) {
    fused_step.run(fused_opt, [&] {
      ag::Variable logits = fused_model.forward(
          ag::Variable(fused::pack_model_major(std::vector<Tensor>(B, x))));
      logits_value = logits.value();
      return fused::fused_cross_entropy(logits, fused_labels,
                                        ag::Reduction::kMean);
    });
    // --- the three serial steps the fused one replaces ---
    for (int64_t b = 0; b < B; ++b) {
      const size_t ub = static_cast<size_t>(b);
      serial_step.run(*serial_opts[ub], [&] {
        return ag::cross_entropy(serial_models[ub]->forward(ag::Variable(x)),
                                 y, ag::Reduction::kMean);
      });
    }
    if (step % 10 == 0) {
      auto per = fused::per_model_cross_entropy(logits_value, fused_labels);
      std::printf("step %2ld   fused per-model losses: %.4f %.4f %.4f\n",
                  step, per[0], per[1], per[2]);
    }
  }
  std::printf("\nsteady-state heap allocations per fused step: %llu "
              "(storage pool recycles everything once warm)\n",
              static_cast<unsigned long long>(
                  fused_step.stats().last_heap_allocs));
  std::printf("steps replayed tape-free: %lld of 40 (autograd node "
              "constructions in the last step: %llu)\n",
              static_cast<long long>(fused_step.stats().replays),
              static_cast<unsigned long long>(
                  fused_step.stats().last_node_constructions));

  // Equivalence: fused weights == serial weights, model by model.
  float max_diff = 0;
  for (int64_t b = 0; b < B; ++b) {
    Mlp probe(in, hidden, classes, rng);
    fused::store_model(fused_model, B, b, probe);
    const Mlp& sm = *serial_models[static_cast<size_t>(b)];
    max_diff = std::max(max_diff, ops::max_abs_diff(probe.fc1->weight.value(),
                                                    sm.fc1->weight.value()));
    max_diff = std::max(max_diff, ops::max_abs_diff(probe.fc2->weight.value(),
                                                    sm.fc2->weight.value()));
  }
  std::printf("\nafter 40 steps, max |fused - serial| weight difference: "
              "%.2e\n",
              max_diff);
  std::printf("=> HFTA training is mathematically equivalent to the three "
              "serial runs.\n");

  // --- Act II: the same exercise under AMP (bf16 autocast + dynamic loss
  // scaling). Three runs from one fresh init: the AMP fused array, its
  // three AMP serial twins, and an fp32 fused reference. The fused-vs-
  // serial audit must STAY 0.00e+00 under AMP (both sides quantize at the
  // same op inputs); the AMP-vs-fp32 gap is real quantization error and is
  // printed, not hidden.
  std::printf("\n--- mixed precision (bf16 autocast + dynamic loss "
              "scaling) ---\n");
  Rng rng2(11);
  Mlp amp_fused(in, hidden, classes, rng2, B);
  Mlp ref_fused(in, hidden, classes, rng2, B);
  std::vector<std::shared_ptr<Mlp>> amp_serial;
  for (int64_t b = 0; b < B; ++b) {
    amp_serial.push_back(std::make_shared<Mlp>(in, hidden, classes, rng2));
    fused::load_model(amp_fused, B, b, *amp_serial.back());
    fused::load_model(ref_fused, B, b, *amp_serial.back());
  }
  fused::FusedAdam amp_opt(fused::collect_fused_parameters(amp_fused, B), B,
                           {.lr = lrs});
  fused::FusedAdam ref_opt(fused::collect_fused_parameters(ref_fused, B), B,
                           {.lr = lrs});
  std::vector<std::unique_ptr<nn::Adam>> amp_serial_opts;
  for (int64_t b = 0; b < B; ++b)
    amp_serial_opts.push_back(std::make_unique<nn::Adam>(
        amp_serial[static_cast<size_t>(b)]->parameters(),
        nn::Adam::Options{.lr = lrs[static_cast<size_t>(b)]}));

  TrainStep amp_step, amp_serial_step, ref_step;
  amp_step.enable_capture();
  amp_serial_step.enable_capture();
  ref_step.enable_capture();
  amp_step.enable_amp();         // bf16, scale 2^16
  amp_serial_step.enable_amp();  // the twins run the same policy
  auto fused_loss = [&](Mlp& m) {
    ag::Variable logits = m.forward(
        ag::Variable(fused::pack_model_major(std::vector<Tensor>(B, x))));
    return fused::fused_cross_entropy(logits, fused_labels,
                                      ag::Reduction::kMean);
  };
  for (int64_t step = 0; step < 40; ++step) {
    amp_step.run(amp_opt, [&] { return fused_loss(amp_fused); });
    ref_step.run(ref_opt, [&] { return fused_loss(ref_fused); });
    for (int64_t b = 0; b < B; ++b) {
      const size_t ub = static_cast<size_t>(b);
      amp_serial_step.run(*amp_serial_opts[ub], [&] {
        return ag::cross_entropy(amp_serial[ub]->forward(ag::Variable(x)), y,
                                 ag::Reduction::kMean);
      });
    }
  }
  float amp_diff = 0, amp_gap = 0;
  for (int64_t b = 0; b < B; ++b) {
    Mlp probe(in, hidden, classes, rng), ref(in, hidden, classes, rng);
    fused::store_model(amp_fused, B, b, probe);
    fused::store_model(ref_fused, B, b, ref);
    const Mlp& sm = *amp_serial[static_cast<size_t>(b)];
    amp_diff = std::max(amp_diff, ops::max_abs_diff(probe.fc1->weight.value(),
                                                    sm.fc1->weight.value()));
    amp_diff = std::max(amp_diff, ops::max_abs_diff(probe.fc2->weight.value(),
                                                    sm.fc2->weight.value()));
    amp_gap = std::max(amp_gap, ops::max_abs_diff(probe.fc1->weight.value(),
                                                  ref.fc1->weight.value()));
    amp_gap = std::max(amp_gap, ops::max_abs_diff(probe.fc2->weight.value(),
                                                  ref.fc2->weight.value()));
  }
  std::printf("amp max |fused - serial| weight difference: %.2e\n", amp_diff);
  std::printf("amp vs fp32 weight gap: %.2e (bf16 quantization error — "
              "measured, not hidden)\n",
              amp_gap);
  std::printf("amp loss scale: %.0f (overflow skips: %lld, heap allocations "
              "in the last amp step: %llu)\n",
              amp_step.scaler().scale(),
              static_cast<long long>(amp_step.scaler().overflow_skips()),
              static_cast<unsigned long long>(
                  amp_step.stats().last_heap_allocs));
  std::printf("=> AMP keeps fused == serial bit-for-bit; precision loss "
              "comes from the dtype, not the fusion.\n");
  return (max_diff < 1e-3f && amp_diff == 0.0f) ? 0 : 1;
}
