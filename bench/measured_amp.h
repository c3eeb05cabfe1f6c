// Measured counterpart of table 10: next to the simulator's predicted
// tensor-core ratios, train a fused array in fp32 and in f16 AMP for real on
// this CPU. f16 is the paper's AMP format; autocast rounds GEMM and conv
// operands to it while packing them (F16C hardware conversion on AVX2 hosts),
// and loss scaling adds a read-only overflow scan. CPU AMP therefore does
// strictly more work than fp32 with no half-precision FMA to pay for it, so
// the measured ratio reports that cost (parity is the ceiling) where the
// simulator prices the tensor-core win.
//
// The two precisions train side by side in alternating 50-step slices, the
// order alternating each round, and each side reports its median slice: a
// hot loop's clock decays over a multi-second run, so two runs timed one
// after the other measure the drift, not the work. Each row also reports
// the AMP side's pool misses and node constructions per timed step (both 0
// on a warm replay), its overflow skips (0 on this well-scaled workload) and
// the AMP-vs-fp32 final-loss gap: real quantization error, reported rather
// than hidden.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/op_counters.h"
#include "core/storage_pool.h"
#include "hfta/fused_optim.h"
#include "hfta/fused_ops.h"
#include "hfta/train.h"
#include "tensor/ops.h"

namespace hfta::benchamp {

struct AmpRow {
  int64_t models = 0;
  double fp32_iters_per_sec = 0;
  double amp_iters_per_sec = 0;
  double amp_over_fp32 = 0;
  double pool_misses_per_step = 0;  // AMP side, timed steps
  double nodes_per_step = 0;        // AMP side, timed steps
  int64_t overflow_skips = 0;
  double loss_gap = 0;  // |amp final loss - fp32 final loss|
};

namespace detail {

constexpr int64_t kIn = 16, kHidden = 16, kClasses = 4, kN = 8, kDepth = 8;
constexpr int kWarmup = 11;  // untimed: one eager step, the capture, replays
constexpr int kSlice = 50;
// Timed steps per array size, split into whole rounds of one slice per side.
constexpr int kStepsPerB = 360;
constexpr int kRounds = kStepsPerB / kSlice;

// Deep-narrow MLP, built as an array of B: many small fused ops per step,
// the regime where AMP's per-op extra work is the largest share of the step.
struct DeepMlp : nn::Module {
  DeepMlp(Rng& rng, int64_t B) {
    int64_t prev = kIn;
    for (int64_t d = 0; d < kDepth; ++d) {
      layers.push_back(register_module(
          "fc" + std::to_string(d),
          std::make_shared<nn::Linear>(prev, kHidden, true, rng, B)));
      prev = kHidden;
    }
    head = register_module(
        "head", std::make_shared<nn::Linear>(prev, kClasses, true, rng, B));
  }
  ag::Variable forward(const ag::Variable& x) override {
    ag::Variable h = x;
    for (auto& l : layers) h = ag::relu(l->forward(h));
    return head->forward(h);
  }
  std::vector<std::shared_ptr<nn::Linear>> layers;
  std::shared_ptr<nn::Linear> head;
};

// One precision's replayed training run; both sides start from the same
// weights and data.
struct Side {
  Side(int64_t B, bool amp) {
    Rng rng(1);
    model = std::make_unique<DeepMlp>(rng, B);
    opt = std::make_unique<fused::FusedAdam>(
        fused::collect_fused_parameters(*model, B), B,
        fused::FusedAdam::Options{.lr = {1e-3}});
    Rng data_rng(2);
    x = Tensor::randn({kN, kIn}, data_rng);
    labels = Tensor({B, kN});
    for (int64_t b = 0; b < B; ++b)
      for (int64_t n = 0; n < kN; ++n)
        labels.at({b, n}) = static_cast<float>(n % kClasses);
    step.enable_capture();
    if (amp) {
      TrainStep::AmpOptions ao;
      ao.dtype = DType::kF16;
      step.enable_amp(ao);
    }
  }
  void run(int steps) {
    const int64_t B = opt->array_size();
    for (int s = 0; s < steps; ++s) {
      loss = step.run(*opt, [&] {
        ag::Variable logits = model->forward(
            ag::Variable(fused::pack_model_major(std::vector<Tensor>(B, x))));
        return fused::fused_cross_entropy(logits, labels,
                                          ag::Reduction::kMean);
      });
    }
  }
  std::unique_ptr<DeepMlp> model;
  std::unique_ptr<fused::FusedAdam> opt;
  Tensor x, labels;
  TrainStep step;
  ag::Variable loss;
};

inline double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

}  // namespace detail

// Trains the B-model array in fp32 and in f16 AMP, paired as described
// above. Deterministic apart from the timings.
inline AmpRow measure_fused_amp(int64_t B) {
  using Clock = std::chrono::steady_clock;
  StoragePool::instance().trim();
  detail::Side sides[2] = {detail::Side(B, false), detail::Side(B, true)};
  for (detail::Side& s : sides) s.run(detail::kWarmup);

  std::vector<double> secs[2];
  uint64_t amp_misses = 0, amp_nodes = 0;
  for (int r = 0; r < detail::kRounds; ++r) {
    for (int k = 0; k < 2; ++k) {
      const int side = (r + k) % 2;
      const uint64_t m0 = StoragePool::instance().stats().heap_allocs;
      const uint64_t n0 = counters::node_constructions();
      const auto t0 = Clock::now();
      sides[side].run(detail::kSlice);
      secs[side].push_back(
          std::chrono::duration<double>(Clock::now() - t0).count());
      if (side == 1) {
        amp_misses += StoragePool::instance().stats().heap_allocs - m0;
        amp_nodes += counters::node_constructions() - n0;
      }
    }
  }
  const double amp_steps = static_cast<double>(detail::kRounds) * detail::kSlice;
  AmpRow row;
  row.models = B;
  row.fp32_iters_per_sec = detail::kSlice / detail::median(secs[0]);
  row.amp_iters_per_sec = detail::kSlice / detail::median(secs[1]);
  row.amp_over_fp32 = row.amp_iters_per_sec / row.fp32_iters_per_sec;
  row.pool_misses_per_step = static_cast<double>(amp_misses) / amp_steps;
  row.nodes_per_step = static_cast<double>(amp_nodes) / amp_steps;
  row.overflow_skips = sides[1].step.scaler().overflow_skips();
  row.loss_gap = std::fabs(sides[1].loss.value().item() -
                           sides[0].loss.value().item());
  StoragePool::instance().trim();
  return row;
}

}  // namespace hfta::benchamp
