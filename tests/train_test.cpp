// The iteration engine end to end: Engine reuse vs fresh backward() calls,
// TrainStep driving real fused training, pooled-vs-heap
// bit-exactness at quickstart scale, and the steady-state zero-alloc
// property the storage pool exists for.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "autograd/engine.h"
#include "autograd/functions.h"
#include "core/storage_pool.h"
#include "hfta/fused_optim.h"
#include "hfta/fused_ops.h"
#include "hfta/loss_scaling.h"
#include "hfta/train.h"
#include "nn/layers.h"
#include "nn/optim.h"
#include "tensor/ops.h"

namespace hfta {
namespace {

// A quickstart-scale MLP, Linear-ReLU-Linear; built with array size B it is
// the fused array of B of them.
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

// Trains a B=3 fused MLP for `steps` and returns every per-step loss vector
// plus the final fc1 weights, using either one reused TrainStep or plain
// per-step backward() calls, with pooling on or off.
struct RunResult {
  std::vector<std::vector<double>> losses;
  std::vector<float> weights;
};

RunResult train_fused_mlp(bool use_train_step, bool pool_on, int steps) {
  StoragePool::Config cfg;
  cfg.enabled = pool_on;
  StoragePool::instance().set_config(cfg);
  StoragePool::instance().trim();
  const int64_t B = 3, in = 8, hidden = 16, classes = 4, N = 8;
  Rng rng(42);
  Mlp model(in, hidden, classes, rng, B);
  fused::FusedAdam opt(fused::collect_fused_parameters(model, B), B,
                       {.lr = {1e-3, 3e-3, 1e-2}});
  Rng data_rng(7);
  Tensor x = Tensor::randn({N, in}, data_rng);
  Tensor labels({B, N});
  for (int64_t b = 0; b < B; ++b)
    for (int64_t n = 0; n < N; ++n)
      labels.at({b, n}) = static_cast<float>((n + b) % classes);

  RunResult out;
  TrainStep step;
  for (int s = 0; s < steps; ++s) {
    ag::Variable logits;
    auto loss_fn = [&] {
      logits = model.forward(
          ag::Variable(fused::pack_model_major(std::vector<Tensor>(B, x))));
      return fused::fused_cross_entropy(logits, labels, ag::Reduction::kMean);
    };
    if (use_train_step) {
      step.run(opt, loss_fn);
    } else {
      opt.zero_grad();
      ag::Variable loss = loss_fn();
      loss.backward();  // fresh engine each call
      opt.step();
    }
    out.losses.push_back(
        fused::per_model_cross_entropy(logits.value(), labels));
  }
  out.weights = model.fc1->weight.value().to_vector();
  StoragePool::instance().set_config(StoragePool::Config{});
  StoragePool::instance().trim();
  return out;
}

void expect_bit_identical(const RunResult& a, const RunResult& b) {
  ASSERT_EQ(a.losses.size(), b.losses.size());
  for (size_t s = 0; s < a.losses.size(); ++s) {
    ASSERT_EQ(a.losses[s].size(), b.losses[s].size());
    for (size_t i = 0; i < a.losses[s].size(); ++i)
      EXPECT_EQ(a.losses[s][i], b.losses[s][i]) << "step " << s;
  }
  ASSERT_EQ(a.weights.size(), b.weights.size());
  for (size_t i = 0; i < a.weights.size(); ++i)
    EXPECT_EQ(a.weights[i], b.weights[i]) << "weight " << i;
}

TEST(Engine, ReuseMatchesFreshBackwardBitExactly) {
  // One Engine across N iterations == N fresh backward() calls, to the bit.
  const RunResult reused = train_fused_mlp(/*use_train_step=*/true,
                                           /*pool_on=*/true, 10);
  const RunResult fresh = train_fused_mlp(/*use_train_step=*/false,
                                          /*pool_on=*/true, 10);
  expect_bit_identical(reused, fresh);
}

TEST(Engine, GradientsMatchVariableBackward) {
  // Same graph, gradient-by-gradient: engine.run == Variable::backward.
  Rng rng(3);
  ag::Variable w1(Tensor::randn({4, 4}, rng), true);
  ag::Variable w2(Tensor::randn({4, 4}, rng), true);
  auto loss_of = [&] {
    ag::Variable x(Tensor::randn({2, 4}, rng));
    return ag::sum_all(ag::matmul(ag::relu(ag::matmul(x, w1)), w2));
  };
  // Two identical graphs (same rng stream rebuilt): one through the
  // engine, one through backward().
  ag::Engine engine;
  Rng save = rng;
  ag::Variable l1 = loss_of();
  engine.run(l1);
  EXPECT_EQ(engine.runs(), 1);
  EXPECT_GT(engine.last_tape_size(), 0);
  Tensor g_engine_w1 = w1.grad().clone();
  Tensor g_engine_w2 = w2.grad().clone();

  rng = save;
  w1.zero_grad();
  w2.zero_grad();
  ag::Variable l2 = loss_of();
  l2.backward();
  EXPECT_EQ(ops::max_abs_diff(g_engine_w1, w1.grad()), 0.f);
  EXPECT_EQ(ops::max_abs_diff(g_engine_w2, w2.grad()), 0.f);
}

TEST(TrainEngine, PooledAndHeapTrainingAreBitIdentical) {
  // A fused quickstart-scale run with pooling on equals the same run with
  // pooling off: losses and weights, every step, to the bit.
  const RunResult pooled = train_fused_mlp(/*use_train_step=*/true,
                                           /*pool_on=*/true, 12);
  const RunResult heap = train_fused_mlp(/*use_train_step=*/true,
                                         /*pool_on=*/false, 12);
  expect_bit_identical(pooled, heap);
}

TEST(TrainEngine, SteadyStateStepsMakeZeroHeapAllocations) {
  StoragePool::instance().set_config(StoragePool::Config{});
  StoragePool::instance().trim();
  const int64_t B = 3, in = 8, hidden = 16, classes = 4, N = 8;
  Rng rng(42);
  Mlp model(in, hidden, classes, rng, B);
  fused::FusedAdam opt(fused::collect_fused_parameters(model, B), B,
                       {.lr = {1e-3}});
  Rng data_rng(7);
  Tensor x = Tensor::randn({N, in}, data_rng);
  Tensor labels = Tensor::zeros({B, N});

  TrainStep step;
  auto loss_fn = [&] {
    ag::Variable logits = model.forward(
        ag::Variable(fused::pack_model_major(std::vector<Tensor>(B, x))));
    return fused::fused_cross_entropy(logits, labels, ag::Reduction::kMean);
  };
  // Warm-up: populates the pool (and Adam's lazily allocated moments).
  for (int s = 0; s < 3; ++s) step.run(opt, loss_fn);
  // Steady state: every tensor allocation must be a pool hit.
  for (int s = 0; s < 5; ++s) {
    step.run(opt, loss_fn);
    EXPECT_EQ(step.stats().last_heap_allocs, 0u) << "step " << s;
    EXPECT_GT(step.stats().last_pool_hits, 0u);
  }
  EXPECT_EQ(step.stats().steps, 8);
}

TEST(TrainEngine, MultiLossRunsEveryBackwardBeforeTheStep) {
  // Two losses against one optimizer step must equal one summed loss.
  const int64_t N = 6;
  auto build = [&](bool multi) {
    Rng rng(13);
    nn::Linear lin(4, 2, true, rng);
    nn::SGD opt(lin.parameters(), {.lr = 0.1});
    Rng data_rng(17);
    Tensor x = Tensor::randn({N, 4}, data_rng);
    TrainStep step;
    // Two independent forward graphs (the GAN pattern: real and fake
    // passes share parameters, not activations).
    if (multi) {
      step.run(opt, [&]() -> std::vector<ag::Variable> {
        return {ag::sum_all(lin.forward(ag::Variable(x))),
                ag::sum_all(lin.forward(ag::Variable(x)))};
      });
    } else {
      step.run(opt, [&] {
        return ag::add(ag::sum_all(lin.forward(ag::Variable(x))),
                       ag::sum_all(lin.forward(ag::Variable(x))));
      });
    }
    return lin.weight.value().to_vector();
  };
  const auto two_losses = build(true);
  const auto summed = build(false);
  ASSERT_EQ(two_losses.size(), summed.size());
  for (size_t i = 0; i < two_losses.size(); ++i)
    EXPECT_NEAR(two_losses[i], summed[i], 1e-6f);
}

TEST(TrainEngine, SharedTrunkMultiLossEqualsTheSummedLoss) {
  // Two heads over one shared intermediate h: sum(h*h) and sum(h) as two
  // losses must train exactly as their sum. h's gradient holds only its
  // own run's contributions (2h, then 1), and the parameters sum both
  // runs. Small integer data and weights and a power-of-two learning rate
  // keep every sum exact, so the check is equality, eager and under replay.
  const int64_t N = 4, in = 3, out = 2;
  auto train = [&](bool multi, bool capture) {
    Rng rng(1);
    nn::Linear lin(in, out, true, rng);
    for (int64_t i = 0; i < out * in; ++i)
      lin.weight.mutable_value().data()[i] = static_cast<float>(i % 3 - 1);
    lin.bias.mutable_value().fill_(0.f);
    Tensor x({N, in});
    for (int64_t i = 0; i < N * in; ++i)
      x.data()[i] = static_cast<float>((i * 5) % 3 - 1);
    nn::SGD opt(lin.parameters(), {.lr = 1.0 / 16});
    TrainStep step;
    if (capture) step.enable_capture();
    std::vector<std::vector<float>> weights;
    for (int s = 0; s < 4; ++s) {
      if (multi) {
        step.run(opt, [&]() -> std::vector<ag::Variable> {
          const ag::Variable h = lin.forward(ag::Variable(x));
          return {ag::sum_all(ag::mul(h, h)), ag::sum_all(h)};
        });
      } else {
        step.run(opt, [&] {
          const ag::Variable h = lin.forward(ag::Variable(x));
          return ag::add(ag::sum_all(ag::mul(h, h)), ag::sum_all(h));
        });
      }
      weights.push_back(lin.weight.value().to_vector());
      weights.push_back(lin.bias.value().to_vector());
    }
    EXPECT_EQ(step.stats().replays, capture ? 2 : 0);
    return weights;
  };
  for (bool capture : {false, true}) {
    const auto two_losses = train(true, capture);
    const auto summed = train(false, capture);
    ASSERT_EQ(two_losses.size(), summed.size());
    for (size_t i = 0; i < summed.size(); ++i)
      EXPECT_EQ(two_losses[i], summed[i])
          << (capture ? "replay" : "eager") << ", entry " << i;
  }
}

TEST(TrainEngine, ReplayedMultiLossStepsReturnOneVector) {
  // A replayed multi-loss step returns the program's pinned losses by
  // reference instead of copying them: two consecutive replays hand back
  // the same vector object, and it holds each step's current values.
  Rng rng(3);
  nn::Linear lin(4, 2, true, rng);
  nn::SGD opt(lin.parameters(), {.lr = 0.1});
  Rng data_rng(5);
  const Tensor x = Tensor::randn({6, 4}, data_rng);
  TrainStep step;
  step.enable_capture();
  auto losses_fn = [&]() -> std::vector<ag::Variable> {
    const ag::Variable h = lin.forward(ag::Variable(x));
    return {ag::sum_all(h), ag::sum_all(ag::mul(h, h))};
  };
  step.run(opt, losses_fn);  // eager warm-up
  step.run(opt, losses_fn);  // capture
  const std::vector<ag::Variable>& first = step.run(opt, losses_fn);
  ASSERT_EQ(first.size(), 2u);
  const float first_loss = first[0].value().item();
  const std::vector<ag::Variable>& second = step.run(opt, losses_fn);
  EXPECT_EQ(step.stats().replays, 2);
  EXPECT_EQ(&first, &second);
  EXPECT_NE(second[0].value().item(), first_loss);  // weights moved between
}

TEST(TrainEngine, NextStepReleasesTheLastMultiLossStepsLosses) {
  // An eager multi-loss step's losses stay with the TrainStep only until
  // the next step of any kind starts: a GAN's generator step must not
  // build its graph while the discriminator step's graphs are still held,
  // or the pool's peak grows.
  Rng rng(4);
  nn::Linear lin(4, 2, true, rng);
  nn::SGD opt(lin.parameters(), {.lr = 0.1});
  const Tensor x = Tensor::randn({6, 4}, rng);
  TrainStep step;
  const std::vector<ag::Variable>& losses =
      step.run(opt, [&]() -> std::vector<ag::Variable> {
        return {ag::sum_all(lin.forward(ag::Variable(x))),
                ag::sum_all(lin.forward(ag::Variable(x)))};
      });
  EXPECT_EQ(losses.size(), 2u);
  step.run(opt, [&] { return ag::sum_all(lin.forward(ag::Variable(x))); });
  EXPECT_TRUE(losses.empty());
}

}  // namespace
}  // namespace hfta
