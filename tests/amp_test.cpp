// Mixed precision end to end: the autocast policy on the GEMM/conv op
// class, the dynamic LossScaler (overflow skip, backoff, growth interval,
// state surviving a repack-style optimizer swap), power-of-two scale
// exactness (single- and multi-loss steps), AMP fused-vs-serial
// bit-exactness, and zero-alloc tape-free replay of AMP step programs
// (drawing exactly the fp32 replay's pool buffers) with precision changes
// forcing recapture — under f16 and bf16.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "autograd/autocast.h"
#include "autograd/functions.h"
#include "core/storage_pool.h"
#include "hfta/fused_optim.h"
#include "hfta/fused_ops.h"
#include "hfta/loss_scaling.h"
#include "hfta/train.h"
#include "nn/layers.h"
#include "nn/optim.h"
#include "tensor/matmul.h"
#include "tensor/ops.h"

namespace hfta {
namespace {

// The quickstart-scale MLP, Linear-ReLU-Linear; built with array size B it
// is the fused array of B of them.
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

void expect_bits_equal(const std::vector<float>& a,
                       const std::vector<float>& b, const std::string& tag) {
  ASSERT_EQ(a.size(), b.size()) << tag;
  if (!a.empty()) {
    EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(float)), 0)
        << tag;
  }
}

struct AmpRun {
  std::vector<float> losses;
  std::vector<float> weights;
  TrainStep::Stats stats;
  double final_scale = 0;
  int64_t overflow_skips = 0;
};

// Trains the B=3 fused MLP on a fixed batch and reports per-step losses,
// final fc1 weights, and the TrainStep/scaler state.
AmpRun run_amp_mlp(bool capture, bool amp, DType dt, double init_scale,
                   int steps, int64_t growth_interval = 2000) {
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

  TrainStep step;
  if (capture) step.enable_capture();
  if (amp) {
    TrainStep::AmpOptions ao;
    ao.dtype = dt;
    ao.scaler.init_scale = init_scale;
    ao.scaler.growth_interval = growth_interval;
    step.enable_amp(ao);
  }
  AmpRun out;
  for (int s = 0; s < steps; ++s) {
    ag::Variable loss = step.run(opt, [&] {
      ag::Variable logits = model.forward(
          ag::Variable(fused::pack_model_major(std::vector<Tensor>(B, x))));
      return fused::fused_cross_entropy(logits, labels, ag::Reduction::kMean);
    });
    out.losses.push_back(loss.value().item());
  }
  out.weights = model.fc1->weight.value().to_vector();
  out.stats = step.stats();
  out.final_scale = step.scaler().scale();
  out.overflow_skips = step.scaler().overflow_skips();
  return out;
}

// ---- LossScaler bookkeeping -------------------------------------------------

TEST(LossScaler, GrowthBackoffAndInterval) {
  fused::LossScaler::Options o;
  o.init_scale = 16.0;
  o.growth_interval = 3;
  fused::LossScaler s(o);
  EXPECT_EQ(s.scale(), 16.0);
  s.update(false);
  s.update(false);
  EXPECT_EQ(s.scale(), 16.0);  // streak of 2 < interval
  EXPECT_EQ(s.growth_streak(), 2);
  s.update(false);
  EXPECT_EQ(s.scale(), 32.0);  // full streak grows and resets
  EXPECT_EQ(s.growth_streak(), 0);
  s.update(true);
  EXPECT_EQ(s.scale(), 16.0);  // overflow halves
  EXPECT_EQ(s.growth_streak(), 0);
  EXPECT_EQ(s.overflow_skips(), 1);
  s.update(false);
  s.update(false);
  s.update(true);  // overflow mid-streak resets it
  EXPECT_EQ(s.scale(), 8.0);
  EXPECT_EQ(s.overflow_skips(), 2);
  EXPECT_EQ(s.growth_streak(), 0);
}

TEST(LossScaler, RejectsAnInitialScaleThatIsNotAPowerOfTwo) {
  // Scaling by a power of two is an exact exponent shift; any other scale
  // rounds gradients, so the constructor refuses it and names the value.
  for (double bad : {3.0, 1000.0}) {
    fused::LossScaler::Options o;
    o.init_scale = bad;
    try {
      fused::LossScaler s(o);
      ADD_FAILURE() << bad << " was accepted";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find(std::to_string(
                    static_cast<int>(bad))),
                std::string::npos)
          << e.what();
    }
  }
  for (double good : {1.0, 16.0, 65536.0, std::ldexp(1.0, 130)}) {
    fused::LossScaler::Options o;
    o.init_scale = good;
    EXPECT_EQ(fused::LossScaler(o).scale(), good);
  }
}

// ---- autocast policy --------------------------------------------------------

// f32 copy of `t` rounded elementwise to `dt` — the autocast definition of
// an operand, as plain f32 data.
Tensor quantized(const Tensor& t, DType dt) {
  Tensor q = t.clone();
  float* p = q.data();
  for (int64_t i = 0; i < q.numel(); ++i) p[i] = quantize_to(p[i], dt);
  return q;
}

TEST(Autocast, GemmClassQuantizesInputsButNotBias) {
  Rng rng(5);
  Tensor xt = Tensor::randn({4, 8}, rng);
  Tensor wt = Tensor::randn({6, 8}, rng);
  Tensor bt = Tensor::randn({6}, rng);
  ag::Variable x(xt), w(wt, true), b(bt, true);

  EXPECT_EQ(ag::autocast_dtype(), DType::kF32);
  ag::Variable y;
  {
    ag::AutocastGuard guard(DType::kF16);
    EXPECT_EQ(ag::autocast_dtype(), DType::kF16);
    y = ag::linear(x, w, b);
  }
  EXPECT_EQ(ag::autocast_dtype(), DType::kF32);

  // Equal to the hand-built policy: round x and w to f16, run the f32
  // kernel, add the UN-quantized bias.
  Tensor ref = ops::linear_forward(quantized(xt, DType::kF16),
                                   quantized(wt, DType::kF16), bt);
  expect_bits_equal(y.value().to_vector(), ref.to_vector(), "autocast linear");

  // Gradients reach the ORIGINAL f32 leaves.
  ag::sum_all(y).backward();
  EXPECT_EQ(w.grad().shape(), wt.shape());
  EXPECT_EQ(b.grad().shape(), bt.shape());
}

TEST(Autocast, NestedF32GuardDisables) {
  Rng rng(6);
  Tensor xt = Tensor::randn({3, 5}, rng);
  Tensor wt = Tensor::randn({2, 5}, rng);
  ag::Variable x(xt), w(wt, true);
  ag::Variable amp_y, pinned_y;
  {
    ag::AutocastGuard outer(DType::kBF16);
    amp_y = ag::linear(x, w, ag::Variable());
    {
      ag::AutocastGuard inner(DType::kF32);  // pins autocast OFF
      EXPECT_EQ(ag::autocast_dtype(), DType::kF32);
      pinned_y = ag::linear(x, w, ag::Variable());
    }
    EXPECT_EQ(ag::autocast_dtype(), DType::kBF16);
  }
  Tensor plain = ops::linear_forward(xt, wt, Tensor());
  expect_bits_equal(pinned_y.value().to_vector(), plain.to_vector(),
                    "pinned-f32 linear");
  // And the bf16 result really is the quantized one (differs from plain
  // unless the data happened to be exactly representable — with random
  // normals it will not be, so just check it matches the policy).
  Tensor ref = ops::linear_forward(quantized(xt, DType::kBF16),
                                   quantized(wt, DType::kBF16), Tensor());
  expect_bits_equal(amp_y.value().to_vector(), ref.to_vector(),
                    "bf16 linear");
}

// ---- conv family under autocast ---------------------------------------------

void expect_same_bytes(const Tensor& a, const Tensor& b,
                       const std::string& tag) {
  ASSERT_EQ(a.shape(), b.shape()) << tag;
  EXPECT_EQ(std::memcmp(a.data(), b.data(),
                        sizeof(float) * static_cast<size_t>(a.numel())),
            0)
      << tag;
}

using ConvFn = std::function<ag::Variable(
    const ag::Variable&, const ag::Variable&, const ag::Variable&)>;

struct ConvRun {
  Tensor y, gx, gw, gb;
};

// Runs `f` on fresh leaves (x, w, b) under AutocastGuard(dt) and
// backpropagates loss = sum(y * r) for a fixed random r.
ConvRun run_conv(const ConvFn& f, const Tensor& x, const Tensor& w,
                 const Tensor& b, DType dt) {
  ag::Variable xv(x.clone(), true), wv(w.clone(), true), bv(b.clone(), true);
  ag::Variable y;
  {
    ag::AutocastGuard guard(dt);
    y = f(xv, wv, bv);
  }
  Rng rng(99);
  const Tensor r = Tensor::randn(y.shape(), rng);
  ag::sum_all(ag::mul(y, ag::constant(r))).backward();
  return {y.value(), xv.grad(), wv.grad(), bv.grad()};
}

TEST(Autocast, ConvFamilyEqualsF32OnQuantizedOperands) {
  // Under autocast every conv op computes on x and w rounded to the half
  // format (the bias stays f32), and its backward reads the SAVED operands
  // at that precision while the incoming gradient stays f32. So y and the
  // grads of x, w and b must equal, byte for byte, a plain f32 run whose x
  // and w were rounded elementwise beforehand.
  struct Case {
    const char* name;
    Shape x, w, b;
    ConvFn f;
  };
  const Case cases[] = {
      {"conv [N,C,H,W]", {2, 4, 7, 7}, {6, 2, 3, 3}, {6},
       [](const ag::Variable& x, const ag::Variable& w,
          const ag::Variable& b) {
         return ag::conv(x, w, b, ops::ConvArgs::make(2, 1, 2));
       }},
      {"conv [N,C,L]", {2, 4, 9}, {6, 2, 3}, {6},
       [](const ag::Variable& x, const ag::Variable& w,
          const ag::Variable& b) {
         return ag::conv(x, w, b, ops::ConvArgs::make(2, 1, 2));
       }},
      {"conv_transpose [N,C,H,W]", {2, 4, 5, 5}, {4, 2, 3, 3}, {4},
       [](const ag::Variable& x, const ag::Variable& w,
          const ag::Variable& b) {
         return ag::conv_transpose(x, w, b, ops::ConvTransposeArgs{2, 1, 1, 2});
       }},
      {"conv_transpose [N,C,L]", {2, 4, 6}, {4, 3, 3}, {3},
       [](const ag::Variable& x, const ag::Variable& w,
          const ag::Variable& b) {
         return ag::conv_transpose(x, w, b, ops::ConvTransposeArgs{2, 1, 1, 1});
       }},
  };
  for (DType dt : {DType::kF16, DType::kBF16}) {
    for (const Case& c : cases) {
      Rng rng(17);
      const Tensor x = Tensor::randn(c.x, rng);
      const Tensor w = Tensor::randn(c.w, rng);
      const Tensor b = Tensor::randn(c.b, rng);
      const ConvRun amp = run_conv(c.f, x, w, b, dt);
      const ConvRun ref =
          run_conv(c.f, quantized(x, dt), quantized(w, dt), b, DType::kF32);
      const std::string tag = std::string(c.name) + " " + dtype_name(dt);
      expect_same_bytes(amp.y, ref.y, tag + " y");
      expect_same_bytes(amp.gx, ref.gx, tag + " x.grad");
      expect_same_bytes(amp.gw, ref.gw, tag + " w.grad");
      expect_same_bytes(amp.gb, ref.gb, tag + " b.grad");
      // And the policy is not vacuous: the f32 run differs.
      const ConvRun f32 = run_conv(c.f, x, w, b, DType::kF32);
      EXPECT_NE(std::memcmp(amp.y.data(), f32.y.data(),
                            sizeof(float) * static_cast<size_t>(f32.y.numel())),
                0)
          << tag;
    }
  }
}

// ---- scale exactness + fused-vs-serial under AMP ---------------------------

TEST(Amp, PowerOfTwoScaleIsExact) {
  // d(S*L)/dw with S = 2^16, then x1/S, must be bit-identical to S = 1:
  // power-of-two scaling only shifts exponents. A well-scaled run never
  // skips a step.
  for (DType dt : {DType::kF16, DType::kBF16}) {
    const std::string tag = dtype_name(dt);
    const AmpRun s1 = run_amp_mlp(false, true, dt, 1.0, 10);
    const AmpRun s65536 = run_amp_mlp(false, true, dt, 65536.0, 10);
    expect_bits_equal(s1.losses, s65536.losses, tag + " losses");
    expect_bits_equal(s1.weights, s65536.weights, tag + " weights");
    EXPECT_EQ(s1.overflow_skips, 0) << tag;
    EXPECT_EQ(s65536.overflow_skips, 0) << tag;
  }
}

TEST(Amp, FusedVsSerialBitExact) {
  // The repo's core invariant must survive AMP: B fused models under
  // autocast + loss scaling == B serial models under the same policy,
  // bit for bit. Quantization is elementwise and the fused kernels align
  // accumulation order with the serial ones, so casting both sides
  // identically preserves exactness.
  for (DType dt : {DType::kBF16, DType::kF16}) {
    const int64_t B = 3, in = 8, hidden = 16, classes = 4, N = 8;
    Rng rng(42);
    Mlp fused_model(in, hidden, classes, rng, B);
    std::vector<std::shared_ptr<Mlp>> serial_models;
    const fused::HyperVec lrs = {1e-3, 3e-3, 1e-2};
    for (int64_t b = 0; b < B; ++b) {
      serial_models.push_back(
          std::make_shared<Mlp>(in, hidden, classes, rng));
      fused::load_model(fused_model, B, b, *serial_models.back());
    }
    fused::FusedAdam fused_opt(
        fused::collect_fused_parameters(fused_model, B), B, {.lr = lrs});
    std::vector<std::unique_ptr<nn::Adam>> serial_opts;
    for (int64_t b = 0; b < B; ++b)
      serial_opts.push_back(std::make_unique<nn::Adam>(
          serial_models[static_cast<size_t>(b)]->parameters(),
          nn::Adam::Options{.lr = lrs[static_cast<size_t>(b)]}));

    Rng data_rng(7);
    Tensor x = Tensor::randn({N, in}, data_rng);
    Tensor labels({B, N});
    Tensor y({N});
    for (int64_t n = 0; n < N; ++n) y.at({n}) = static_cast<float>(n % classes);
    for (int64_t b = 0; b < B; ++b)
      for (int64_t n = 0; n < N; ++n) labels.at({b, n}) = y.at({n});

    TrainStep::AmpOptions ao;
    ao.dtype = dt;
    TrainStep fused_step, serial_step;
    fused_step.enable_amp(ao);
    serial_step.enable_amp(ao);
    for (int s = 0; s < 10; ++s) {
      fused_step.run(fused_opt, [&] {
        ag::Variable logits = fused_model.forward(
            ag::Variable(fused::pack_model_major(std::vector<Tensor>(B, x))));
        return fused::fused_cross_entropy(logits, labels,
                                          ag::Reduction::kMean);
      });
      for (int64_t b = 0; b < B; ++b) {
        const size_t ub = static_cast<size_t>(b);
        serial_step.run(*serial_opts[ub], [&] {
          return ag::cross_entropy(
              serial_models[ub]->forward(ag::Variable(x)), y,
              ag::Reduction::kMean);
        });
      }
    }
    for (int64_t b = 0; b < B; ++b) {
      Rng probe_rng(1);
      Mlp probe(in, hidden, classes, probe_rng);
      fused::store_model(fused_model, B, b, probe);
      const nn::Linear &p1 = *probe.fc1, &p2 = *probe.fc2;
      const auto& sm = serial_models[static_cast<size_t>(b)];
      expect_bits_equal(p1.weight.value().to_vector(),
                        sm->fc1->weight.value().to_vector(), "fc1.w");
      expect_bits_equal(p2.weight.value().to_vector(),
                        sm->fc2->weight.value().to_vector(), "fc2.w");
      expect_bits_equal(p1.bias.value().to_vector(),
                        sm->fc1->bias.value().to_vector(), "fc1.b");
    }
  }
}

// ---- capture / replay under AMP --------------------------------------------

TEST(Amp, ReplayMatchesEagerAndIsZeroAllocTapeFree) {
  const int steps = 12;
  for (DType dt : {DType::kF16, DType::kBF16}) {
    const std::string tag = dtype_name(dt);
    const AmpRun eager = run_amp_mlp(false, true, dt, 65536.0, steps);
    const AmpRun replay = run_amp_mlp(true, true, dt, 65536.0, steps);
    expect_bits_equal(eager.losses, replay.losses, tag + " losses");
    expect_bits_equal(eager.weights, replay.weights, tag + " weights");
    // 1 warmup + 1 capture, the rest replayed tape-free with zero heap
    // allocations once warm — including the quantizing GEMM thunks and the
    // seed-scaled backward.
    EXPECT_EQ(replay.stats.captures, 1) << tag;
    EXPECT_EQ(replay.stats.replays, steps - 2) << tag;
    EXPECT_TRUE(replay.stats.last_was_replay) << tag;
    EXPECT_EQ(replay.stats.last_heap_allocs, 0u) << tag;
    EXPECT_EQ(replay.stats.last_node_constructions, 0u) << tag;
  }
}

TEST(Amp, ReplayDrawsTheSamePoolBuffersAsFp32Replay) {
  // Quantize-on-pack, the in-place seed and the unscale folded into the
  // optimizer leave AMP with no tensor of its own: a warm AMP replay step
  // takes exactly as many pool buffers as the fp32 replay of the same
  // array. A materialized cast or scratch tensor would show up here.
  const int steps = 6;
  const AmpRun fp32 = run_amp_mlp(true, false, DType::kF32, 1.0, steps);
  ASSERT_TRUE(fp32.stats.last_was_replay);
  EXPECT_GT(fp32.stats.last_pool_hits, 0u);
  for (DType dt : {DType::kF16, DType::kBF16}) {
    const AmpRun amp = run_amp_mlp(true, true, dt, 65536.0, steps);
    ASSERT_TRUE(amp.stats.last_was_replay) << dtype_name(dt);
    EXPECT_EQ(amp.stats.last_pool_hits, fp32.stats.last_pool_hits)
        << dtype_name(dt);
  }
}

TEST(Amp, ScaleGrowthReachesReplayedProgramsWithoutRecapture) {
  // growth_interval=2 doubles the scale every other step; the captured
  // tape's seed shares the TrainStep's scale tensor, so replays see each
  // new scale without recapturing — and stay bit-identical to eager.
  const int steps = 10;
  const AmpRun eager =
      run_amp_mlp(false, true, DType::kBF16, 16.0, steps, /*growth=*/2);
  const AmpRun replay =
      run_amp_mlp(true, true, DType::kBF16, 16.0, steps, /*growth=*/2);
  EXPECT_GT(eager.final_scale, 16.0);
  EXPECT_EQ(eager.final_scale, replay.final_scale);
  EXPECT_EQ(replay.stats.captures, 1);  // scale changes did NOT recapture
  expect_bits_equal(eager.losses, replay.losses, "losses");
  expect_bits_equal(eager.weights, replay.weights, "weights");
}

TEST(Amp, OverflowSkipsStepBacksOffAndRecovers) {
  // 2^130 overflows float: the seed is inf, every grad is non-finite, and
  // the step must be SKIPPED (weights untouched) while the scale halves.
  // At least three backoffs (2^130, 2^129, 2^128 all overflow as floats;
  // a large scaled intermediate can force one more) and then training
  // proceeds — all scales powers of two, so the run matches the scale-1
  // run bit for bit once it recovers.
  const int steps = 10;
  for (DType dt : {DType::kF16, DType::kBF16}) {
    const std::string tag = dtype_name(dt);
    const AmpRun huge =
        run_amp_mlp(false, true, dt, std::ldexp(1.0, 130), steps);
    EXPECT_GE(huge.overflow_skips, 3) << tag;
    EXPECT_LT(huge.overflow_skips, steps) << tag;
    EXPECT_EQ(huge.stats.amp_overflow_skips, huge.overflow_skips) << tag;
    EXPECT_LE(huge.final_scale, std::ldexp(1.0, 127)) << tag;
    // The skipped steps left the weights at init; the remaining steps
    // trained — so this run equals a scale-1 run of (steps - skips).
    const AmpRun clean = run_amp_mlp(
        false, true, dt, 1.0, steps - static_cast<int>(huge.overflow_skips));
    expect_bits_equal(huge.weights, clean.weights,
                      tag + " post-recovery weights");
  }
}

TEST(Amp, PrecisionChangeForcesRecapture) {
  const int64_t B = 2, in = 4, hidden = 8, classes = 2, N = 4;
  Rng rng(9);
  Mlp model(in, hidden, classes, rng, B);
  fused::FusedAdam opt(fused::collect_fused_parameters(model, B), B,
                       {.lr = {1e-3, 1e-3}});
  Rng data_rng(3);
  Tensor x = Tensor::randn({N, in}, data_rng);
  Tensor labels({B, N});
  for (int64_t b = 0; b < B; ++b)
    for (int64_t n = 0; n < N; ++n)
      labels.at({b, n}) = static_cast<float>(n % classes);
  TrainStep step;
  step.enable_capture();
  auto loss_fn = [&] {
    ag::Variable logits = model.forward(
        ag::Variable(fused::pack_model_major(std::vector<Tensor>(B, x))));
    return fused::fused_cross_entropy(logits, labels, ag::Reduction::kMean);
  };
  for (int s = 0; s < 3; ++s) step.run(opt, loss_fn);  // fp32 program
  EXPECT_EQ(step.stats().captures, 1);
  EXPECT_TRUE(step.stats().last_was_replay);

  step.enable_amp(TrainStep::AmpOptions{});  // precision change
  step.run(opt, loss_fn);
  EXPECT_FALSE(step.stats().last_was_replay);  // stale program not replayed
  for (int s = 0; s < 2; ++s) step.run(opt, loss_fn);
  EXPECT_EQ(step.stats().captures, 2);  // recaptured under AMP
  EXPECT_TRUE(step.stats().last_was_replay);

  step.disable_amp();  // back to fp32: recapture again
  step.run(opt, loss_fn);
  EXPECT_FALSE(step.stats().last_was_replay);
}

TEST(Amp, ScalerStateSurvivesRepackStyleOptimizerSwap) {
  // Hyperband repacks build a new array + optimizer; the scaler lives on
  // the TrainStep, which persists — backoff history must carry over.
  const int64_t B = 2, in = 4, hidden = 8, classes = 2, N = 4;
  Rng rng(9);
  Mlp model(in, hidden, classes, rng, B);
  Rng data_rng(3);
  Tensor x = Tensor::randn({N, in}, data_rng);
  Tensor labels({B, N});
  for (int64_t b = 0; b < B; ++b)
    for (int64_t n = 0; n < N; ++n)
      labels.at({b, n}) = static_cast<float>(n % classes);
  TrainStep step;
  TrainStep::AmpOptions ao;
  ao.scaler.init_scale = std::ldexp(1.0, 130);  // forces overflow skips
  step.enable_amp(ao);
  auto loss_fn = [&] {
    ag::Variable logits = model.forward(
        ag::Variable(fused::pack_model_major(std::vector<Tensor>(B, x))));
    return fused::fused_cross_entropy(logits, labels, ag::Reduction::kMean);
  };
  {
    fused::FusedAdam opt(fused::collect_fused_parameters(model, B), B,
                         {.lr = {1e-3, 1e-3}});
    for (int s = 0; s < 5; ++s) step.run(opt, loss_fn);
  }
  const int64_t skips = step.scaler().overflow_skips();
  const double scale = step.scaler().scale();
  EXPECT_GE(skips, 3);
  // "Repack": a brand-new optimizer over the same TrainStep.
  fused::FusedAdam opt2(fused::collect_fused_parameters(model, B), B,
                        {.lr = {1e-3, 1e-3}});
  for (int s = 0; s < 3; ++s) step.run(opt2, loss_fn);
  EXPECT_EQ(step.scaler().overflow_skips(), skips);  // history intact
  EXPECT_LE(step.scaler().scale(), scale);           // continued, not reset
  EXPECT_EQ(step.stats().amp_overflow_skips, skips);
}

TEST(Amp, ParameterWithoutGradientIsNotStepped) {
  // A parameter the loss never reaches has no gradient, and the optimizer
  // skips it — weight decay included. The AMP step's finiteness scan must
  // not give it a zero gradient for the step to apply.
  Rng rng(12);
  ag::Variable used(Tensor::randn({3}, rng), /*requires_grad=*/true);
  ag::Variable unused(Tensor::randn({3}, rng), /*requires_grad=*/true);
  const Tensor before = unused.value().clone();
  nn::SGD opt({used, unused}, {.lr = 0.1, .weight_decay = 0.5});
  TrainStep step;
  step.enable_amp();
  step.run(opt, [&] { return ag::sum_all(ag::mul(used, used)); });
  EXPECT_FALSE(unused.has_grad());
  EXPECT_EQ(std::memcmp(before.data(), unused.value().data(),
                        sizeof(float) * static_cast<size_t>(before.numel())),
            0);
  EXPECT_TRUE(used.has_grad());
}

// Trains the B=3 fused MLP with a two-loss step (two batches, the GAN
// pattern: the losses share parameters, not activations) under AMP at a
// fixed scale, and reports per-step losses and final fc1 weights.
AmpRun run_amp_multi_loss(bool capture, DType dt, double scale, int steps) {
  const int64_t B = 3, in = 8, hidden = 16, classes = 4, N = 8;
  Rng rng(42);
  Mlp model(in, hidden, classes, rng, B);
  fused::FusedAdam opt(fused::collect_fused_parameters(model, B), B,
                       {.lr = {1e-3, 3e-3, 1e-2}});
  Rng data_rng(7);
  const Tensor x1 = Tensor::randn({N, in}, data_rng);
  const Tensor x2 = Tensor::randn({N, in}, data_rng);
  Tensor labels({B, N});
  for (int64_t b = 0; b < B; ++b)
    for (int64_t n = 0; n < N; ++n)
      labels.at({b, n}) = static_cast<float>((n + b) % classes);
  TrainStep step;
  if (capture) step.enable_capture();
  TrainStep::AmpOptions ao;
  ao.dtype = dt;
  ao.scaler.init_scale = scale;
  ao.scaler.growth_interval = 1 << 30;
  step.enable_amp(ao);
  auto loss_of = [&](const Tensor& x) {
    ag::Variable logits = model.forward(
        ag::Variable(fused::pack_model_major(std::vector<Tensor>(B, x))));
    return fused::fused_cross_entropy(logits, labels, ag::Reduction::kMean);
  };
  AmpRun out;
  for (int s = 0; s < steps; ++s) {
    const std::vector<ag::Variable> losses =
        step.run(opt, [&]() -> std::vector<ag::Variable> {
          return {loss_of(x1), loss_of(x2)};
        });
    for (const ag::Variable& l : losses) out.losses.push_back(l.value().item());
  }
  out.weights = model.fc1->weight.value().to_vector();
  out.stats = step.stats();
  out.overflow_skips = step.scaler().overflow_skips();
  return out;
}

TEST(Amp, MultiLossStepAtPowerOfTwoScaleMatchesScaleOne) {
  // Each loss of a multi-loss step is seeded with the same S, so the
  // gradients hold S*(g1 + g2) and the one scan and folded 1/S unscale
  // them: the step at S = 2^16 is the step at S = 1, bit for bit, eager
  // and replayed.
  const int steps = 6;
  for (DType dt : {DType::kF16, DType::kBF16}) {
    for (bool capture : {false, true}) {
      const std::string tag =
          std::string(dtype_name(dt)) + (capture ? " replay" : " eager");
      const AmpRun s1 = run_amp_multi_loss(capture, dt, 1.0, steps);
      const AmpRun s65536 = run_amp_multi_loss(capture, dt, 65536.0, steps);
      expect_bits_equal(s1.losses, s65536.losses, tag + " losses");
      expect_bits_equal(s1.weights, s65536.weights, tag + " weights");
      EXPECT_EQ(s1.overflow_skips, 0) << tag;
      EXPECT_EQ(s65536.overflow_skips, 0) << tag;
      EXPECT_EQ(s65536.stats.replays, capture ? steps - 2 : 0) << tag;
    }
  }
}

}  // namespace
}  // namespace hfta
