// Step-program capture/replay: a capture-enabled TrainStep must train
// bit-identically to an eager one — for EVERY kind with an array form
// (fresh data staged each step, parameters/buffers compared to the last
// bit), across recaptures forced by shape, array-size, and fuse-mask
// changes, and with learning-rate schedules flowing through replay without
// recapture. Replay itself must be silent: zero tensor-storage heap
// allocations and zero autograd Node constructions per replayed step.
// Replay writes gradients instead of zero-filling them, so the sign of a
// -0 first contribution is pinned too. A GAN's multi-loss discriminator
// step captures and replays like a single-loss step, in fp32 and AMP.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "autograd/engine.h"
#include "autograd/step_program.h"
#include "core/storage_pool.h"
#include "hfta/fused_optim.h"
#include "hfta/fusion.h"
#include "hfta/train.h"
#include "models/bert.h"
#include "models/dcgan.h"
#include "models/transformer.h"
#include "nn/layers.h"
#include "nn/optim.h"
#include "tensor/ops.h"

#include "kind_factories.h"
#include "same_bits.h"

namespace hfta {
namespace {

constexpr int64_t kN = 2;  // per-model batch

// One half of a lockstep pair: a module, its SGD, its own TrainStep, and a
// staging buffer the (possibly captured) loss graph reads its data from.
struct Twin {
  std::shared_ptr<nn::Module> module;
  std::unique_ptr<nn::SGD> opt;
  TrainStep step;
  Tensor staged;
};

void init_twin(Twin& t, const tests::KindFactory& make, uint64_t seed) {
  Rng rng(seed);
  t.module = make(rng);
  t.opt = std::make_unique<nn::SGD>(
      t.module->parameters(), nn::SGD::Options{.lr = 0.05, .momentum = 0.9});
}

// One training step on fresh data: stage, forward, square-loss, SGD.
float step_once(Twin& t, const std::string& kind, const Tensor& x) {
  t.step.stage(&t.staged, x);
  ag::Variable loss = t.step.run(*t.opt, [&] {
    ag::Variable y = tests::kind_forward(*t.module, kind, t.staged);
    return ag::mean_all(ag::mul(y, y));
  });
  return loss.value().item();
}

void expect_state_equal(const nn::Module& a, const nn::Module& b,
                        const std::string& tag) {
  const auto pa = a.named_parameters();
  const auto pb = b.named_parameters();
  ASSERT_EQ(pa.size(), pb.size()) << tag;
  for (size_t i = 0; i < pa.size(); ++i)
    EXPECT_EQ(ops::max_abs_diff(pa[i].second.value(), pb[i].second.value()),
              0.f)
        << tag << " param " << pa[i].first;
  const auto ba = nn::named_buffers_recursive(const_cast<nn::Module&>(a));
  const auto bb = nn::named_buffers_recursive(const_cast<nn::Module&>(b));
  ASSERT_EQ(ba.size(), bb.size()) << tag;
  for (size_t i = 0; i < ba.size(); ++i)
    EXPECT_EQ(ops::max_abs_diff(ba[i].second, bb[i].second), 0.f)
        << tag << " buffer " << ba[i].first;
}

// Every kind with a round-trip factory: 12 steps of fresh staged data, one
// twin eager, one capturing after the default 1-step warmup (so 10 of the
// 12 steps replay). Per-step losses and final parameters/buffers must agree
// to the last bit — replay IS the eager step. `pooled` says whether the
// storage pool recycles buffers, and with it whether a replayed step can
// be asserted to make no heap allocation.
void expect_every_kind_replays_as_eager(bool pooled) {
  const int kSteps = 12;
  for (const auto& [kind, make] : tests::kind_factories()) {
    Twin eager, replay;
    init_twin(eager, make, 42);
    init_twin(replay, make, 42);
    replay.step.enable_capture();
    Rng data_e(7), data_r(7);
    for (int s = 0; s < kSteps; ++s) {
      const float le = step_once(eager, kind, tests::kind_input(kind, kN, data_e));
      const float lr = step_once(replay, kind, tests::kind_input(kind, kN, data_r));
      EXPECT_EQ(le, lr) << kind << " step " << s;
    }
    const TrainStep::Stats& st = replay.step.stats();
    EXPECT_EQ(st.captures, 1) << kind;
    EXPECT_EQ(st.replays, kSteps - 2) << kind;  // 1 warmup + 1 capture step
    EXPECT_TRUE(st.last_was_replay) << kind;
    // A replayed step allocates and records nothing: warm pool serves every
    // tensor, and no ag::Node (or backward closure) is ever constructed.
    if (pooled) {
      EXPECT_EQ(st.last_heap_allocs, 0u) << kind;
    }
    EXPECT_EQ(st.last_node_constructions, 0u) << kind;
    // The node counter is live: the eager twin records a tape every step
    // (a parameter-free kind has no input that requires grad, so no tape).
    if (!eager.module->parameters().empty()) {
      EXPECT_GT(eager.step.stats().last_node_constructions, 0u) << kind;
    }
    expect_state_equal(*eager.module, *replay.module, kind);
  }
}

TEST(StepProgram, ReplayMatchesEagerBitExactlyForEveryRegisteredKind) {
  expect_every_kind_replays_as_eager(/*pooled=*/true);
  // Again with the pool off, so every buffer is heap-owned and freed on
  // release: a sanitizer build then sees a replayed op that writes a
  // released or wrong buffer, which pooled blocks (never freed) hide.
  StoragePool& pool = StoragePool::instance();
  const StoragePool::Config saved = pool.config();
  pool.set_config(StoragePool::Config{.enabled = false});
  struct Restore {
    StoragePool& pool;
    StoragePool::Config config;
    ~Restore() { pool.set_config(config); }
  } restore{pool, saved};
  expect_every_kind_replays_as_eager(/*pooled=*/false);
}

// True when every element of `t` is +0 (bit pattern, so -0 fails).
bool all_positive_zero(const Tensor& t) {
  const Tensor zeros = Tensor::zeros(t.shape());
  return std::memcmp(t.data(), zeros.data(),
                     sizeof(float) * static_cast<size_t>(t.numel())) == 0;
}

TEST(StepProgram, FirstGradientContributionOfNegativeZeroLandsAsPositiveZero) {
  // A gradient's first contribution is written as x + 0, the bits of
  // adding x into fresh zeros, so a -0 contribution lands as +0, in eager
  // and in replay alike. Multiplying by a constant -0 sends -0 to an
  // interior node (h) and to a leaf (v) as their only contributions.
  ag::Variable u(Tensor::full({3}, 2.f), /*requires_grad=*/true);
  ag::Variable v(Tensor::full({3}, 3.f), /*requires_grad=*/true);
  const ag::Variable c = ag::constant(Tensor::full({3}, -0.f));
  ag::Variable h, loss;
  auto build = [&] {
    h = ag::add_scalar(u, 1.f);
    loss = ag::sum_all(ag::add(ag::mul(h, c), ag::mul(v, c)));
  };

  build();
  loss.backward();
  EXPECT_TRUE(all_positive_zero(h.grad())) << "eager, interior node";
  EXPECT_TRUE(all_positive_zero(v.grad())) << "eager, leaf";

  ag::StepProgram program;
  {
    ag::StepProgram::CaptureGuard guard(&program);
    build();
  }
  ag::Engine engine;
  program.finish_capture(engine, {loss});
  // Replay overwrites whatever the buffers hold: adding -0 into -0 would
  // leave -0.
  h.grad().fill_(-0.f);
  v.grad().fill_(-0.f);
  program.replay();
  EXPECT_TRUE(all_positive_zero(h.grad())) << "replay, interior node";
  EXPECT_TRUE(all_positive_zero(v.grad())) << "replay, leaf";
}

// A GAN trained for `steps` on fresh staged data: the discriminator step
// is multi-loss (real up, fake down) and runs the generator's forward
// inside it, detached; the generator step is single-loss and reaches the
// discriminator's parameters too. Both optimizers share one TrainStep.
struct GanRun {
  std::vector<float> losses;   // D real, D fake, G, per step
  std::vector<Tensor> state;   // every parameter and buffer at the end
  TrainStep::Stats stats;
  uint64_t replayed_node_constructions = 0;  // summed over replayed steps
};

GanRun run_gan(bool capture, const TrainStep::AmpOptions* amp, int steps) {
  const models::DCGANConfig cfg = models::DCGANConfig::tiny();
  const int64_t N = 2;
  Rng rng(21);
  models::DCGANGenerator gen(cfg, rng);
  models::DCGANDiscriminator disc(cfg, rng);
  nn::Adam g_opt(gen.parameters(), {.lr = 2e-3});
  nn::Adam d_opt(disc.parameters(), {.lr = 2e-3});
  TrainStep step;
  if (capture) step.enable_capture();
  if (amp != nullptr) step.enable_amp(*amp);
  const Tensor ones = Tensor::ones({N}), zeros = Tensor::zeros({N});
  Tensor z, real;
  Rng data(5);
  GanRun out;
  auto note_replay = [&] {
    if (step.stats().last_was_replay)
      out.replayed_node_constructions += step.stats().last_node_constructions;
  };
  for (int s = 0; s < steps; ++s) {
    step.stage(&z, Tensor::randn({N, cfg.nz, 1, 1}, data));
    step.stage(&real, Tensor::randn(
                          {N, cfg.nc, cfg.image_size, cfg.image_size}, data));
    const std::vector<ag::Variable> d =
        step.run(d_opt, [&]() -> std::vector<ag::Variable> {
          const ag::Variable fake(gen.forward(ag::Variable(z)).value());
          return {ag::bce_with_logits(disc.forward(ag::Variable(real)), ones,
                                      ag::Reduction::kMean),
                  ag::bce_with_logits(disc.forward(fake), zeros,
                                      ag::Reduction::kMean)};
        });
    note_replay();
    const ag::Variable g = step.run(g_opt, [&] {
      return ag::bce_with_logits(disc.forward(gen.forward(ag::Variable(z))),
                                 ones, ag::Reduction::kMean);
    });
    note_replay();
    out.losses.push_back(d[0].value().item());
    out.losses.push_back(d[1].value().item());
    out.losses.push_back(g.value().item());
  }
  for (nn::Module* m : {static_cast<nn::Module*>(&gen),
                        static_cast<nn::Module*>(&disc)}) {
    for (const auto& [name, p] : m->named_parameters())
      out.state.push_back(p.value().clone());
    for (const auto& [name, b] : nn::named_buffers_recursive(*m))
      out.state.push_back(b.clone());
  }
  out.stats = step.stats();
  return out;
}

void expect_gan_replays_as_eager(const TrainStep::AmpOptions* amp,
                                 const std::string& tag) {
  const int kSteps = 8;
  const GanRun eager = run_gan(false, amp, kSteps);
  const GanRun replay = run_gan(true, amp, kSteps);
  ASSERT_EQ(eager.losses.size(), replay.losses.size()) << tag;
  EXPECT_EQ(std::memcmp(eager.losses.data(), replay.losses.data(),
                        sizeof(float) * eager.losses.size()),
            0)
      << tag << " losses";
  ASSERT_EQ(eager.state.size(), replay.state.size()) << tag;
  for (size_t i = 0; i < eager.state.size(); ++i)
    tests::expect_same_bits(eager.state[i], replay.state[i],
                            tag + " state " + std::to_string(i));
  // Each optimizer: 1 warm-up step, 1 capture, the rest replayed.
  EXPECT_EQ(replay.stats.captures, 2) << tag;
  EXPECT_EQ(replay.stats.replays, 2 * (kSteps - 2)) << tag;
  EXPECT_EQ(replay.replayed_node_constructions, 0u) << tag;
  EXPECT_EQ(eager.stats.amp_overflow_skips, replay.stats.amp_overflow_skips)
      << tag;
}

TEST(StepProgram, GanMultiLossStepReplaysAsEager) {
  expect_gan_replays_as_eager(nullptr, "fp32");
  // f16 AMP at a pinned scale: every loss of the D step is seeded with S.
  TrainStep::AmpOptions amp;
  amp.dtype = DType::kF16;
  amp.scaler.init_scale = 1024.0;
  amp.scaler.growth_interval = 1 << 30;
  expect_gan_replays_as_eager(&amp, "f16 AMP");
}

TEST(StepProgram, BatchShapeChangeInvalidatesAndRecaptures) {
  // Staging a differently-shaped batch reassigns the pinned input buffer,
  // so the program must be recaptured over the new graph — and the twin
  // pair must stay bit-exact straight through the boundary.
  const auto factories = tests::kind_factories();
  const tests::KindFactory& make = factories.at("Linear");
  Twin eager, replay;
  init_twin(eager, make, 3);
  init_twin(replay, make, 3);
  replay.step.enable_capture();
  Rng data_e(11), data_r(11);
  for (int s = 0; s < 4; ++s) {
    const float le = step_once(eager, "Linear", tests::kind_input("Linear", 2, data_e));
    const float lr = step_once(replay, "Linear", tests::kind_input("Linear", 2, data_r));
    EXPECT_EQ(le, lr) << "pre-change step " << s;
  }
  EXPECT_EQ(replay.step.stats().captures, 1);
  for (int s = 0; s < 4; ++s) {  // batch 2 -> 5: a reshaped loss graph
    const float le = step_once(eager, "Linear", tests::kind_input("Linear", 5, data_e));
    const float lr = step_once(replay, "Linear", tests::kind_input("Linear", 5, data_r));
    EXPECT_EQ(le, lr) << "post-change step " << s;
  }
  EXPECT_EQ(replay.step.stats().captures, 2);
  EXPECT_TRUE(replay.step.stats().last_was_replay);
  expect_state_equal(*eager.module, *replay.module, "shape change");
}

TEST(StepProgram, LrScheduleFlowsThroughReplayWithoutRecapture) {
  // Scalar hypers are replay-time inputs: the real optimizer step runs
  // around every replay, so a decaying lr needs no recapture — one capture
  // total, and still not a bit of drift against the eager twin.
  const auto factories = tests::kind_factories();
  const tests::KindFactory& make = factories.at("Linear");
  Twin eager, replay;
  init_twin(eager, make, 5);
  init_twin(replay, make, 5);
  replay.step.enable_capture();
  Rng data_e(13), data_r(13);
  for (int s = 0; s < 10; ++s) {
    const double lr_s = 0.05 * std::pow(0.9, s);
    eager.opt->set_lr({lr_s});
    replay.opt->set_lr({lr_s});
    const float le = step_once(eager, "Linear", tests::kind_input("Linear", kN, data_e));
    const float lr = step_once(replay, "Linear", tests::kind_input("Linear", kN, data_r));
    EXPECT_EQ(le, lr) << "step " << s;
  }
  EXPECT_EQ(replay.step.stats().captures, 1);
  EXPECT_EQ(replay.step.stats().replays, 8);
  expect_state_equal(*eager.module, *replay.module, "lr schedule");
}

// ---- fused arrays: B and fuse-mask changes -----------------------------

std::shared_ptr<nn::Sequential> mlp(Rng& rng) {
  auto net = std::make_shared<nn::Sequential>();
  net->push_back("fc1", std::make_shared<nn::Linear>(4, 6, true, rng));
  net->push_back("relu", std::make_shared<nn::ReLU>());
  net->push_back("fc2", std::make_shared<nn::Linear>(6, 3, true, rng));
  return net;
}

// One fused config: two same-weight arrays (capture twin, eager twin) and
// their optimizers. Kept alive across configs, so each capture optimizer's
// program outlives the configs trained after it.
struct FusedCfg {
  std::shared_ptr<fused::FusedArray> array_c, array_e;
  std::unique_ptr<fused::FusedOptimizer> opt_c, opt_e;
  Tensor x;
};

FusedCfg make_cfg(int64_t B, fused::FusionOptions fopts) {
  FusedCfg c;
  Rng rng(21);
  std::vector<std::shared_ptr<nn::Module>> donors;
  for (int64_t b = 0; b < B; ++b) donors.push_back(mlp(rng));
  Rng crng(1), erng(1);
  c.array_c = fused::FusionPlan(B, fopts).compile(donors, crng);
  c.array_e = fused::FusionPlan(B, fopts).compile(donors, erng);
  // A masked-off unit's replicas are not fused over B, so a masked array
  // steps with one-model SGD over all its parameters: at a uniform lr that
  // is the same elementwise update.
  auto make_opt = [&](fused::FusedArray& a)
      -> std::unique_ptr<fused::FusedOptimizer> {
    if (!fopts.fuse_mask.empty())
      return std::make_unique<nn::SGD>(a.parameters(),
                                       nn::SGD::Options{.lr = 0.05});
    return std::make_unique<fused::FusedSGD>(
        fused::collect_fused_parameters(a, B), B,
        fused::FusedSGD::Options{
            .lr = fused::HyperVec(static_cast<size_t>(B), 0.05)});
  };
  c.opt_c = make_opt(*c.array_c);
  c.opt_e = make_opt(*c.array_e);
  Rng drng(31);
  c.x = fused::pack_channel_fused(
      std::vector<Tensor>(static_cast<size_t>(B), Tensor::randn({kN, 4}, drng)));
  return c;
}

// Drives the config's twins in lockstep (fixed data, so no staging
// needed): losses must be bit-equal every step and the capturing step must
// end up replaying.
void run_fused_pair(TrainStep& cap, TrainStep& eag, FusedCfg& c,
                    const std::string& tag) {
  auto loss_on = [&c](fused::FusedArray& a) {
    return [&a, &c] {
      ag::Variable y = a.forward(ag::Variable(c.x));
      return ag::mean_all(ag::mul(y, y));
    };
  };
  for (int s = 0; s < 6; ++s) {
    const float lc = cap.run(*c.opt_c, loss_on(*c.array_c)).value().item();
    const float le = eag.run(*c.opt_e, loss_on(*c.array_e)).value().item();
    EXPECT_EQ(lc, le) << tag << " step " << s;
  }
  EXPECT_TRUE(cap.stats().last_was_replay) << tag;
}

TEST(StepProgram, ArraySizeAndFuseMaskChangesGetFreshPrograms) {
  // Three configs through ONE capture-enabled TrainStep: B=2 fully fused,
  // B=3 (array-size change), and B=2 with the middle unit masked off
  // (fuse-mask change). Each new optimizer owns its own program — three
  // captures, no cross-talk, and bit-exactness against eager throughout.
  TrainStep cap;
  cap.enable_capture();
  TrainStep eag;
  FusedCfg b2 = make_cfg(2, {});
  run_fused_pair(cap, eag, b2, "B=2 fused");
  EXPECT_EQ(cap.stats().captures, 1);
  FusedCfg b3 = make_cfg(3, {});
  run_fused_pair(cap, eag, b3, "B=3 fused");
  EXPECT_EQ(cap.stats().captures, 2);
  fused::FusionOptions masked;
  masked.fuse_mask = {true, false, true};
  FusedCfg b2m = make_cfg(2, masked);
  run_fused_pair(cap, eag, b2m, "B=2 masked");
  EXPECT_EQ(cap.stats().captures, 3);
  // B=2's program stayed live in its optimizer: it replays from the first
  // step back, with no new capture.
  run_fused_pair(cap, eag, b2, "B=2 fused, resumed");
  EXPECT_EQ(cap.stats().captures, 3);
  EXPECT_EQ(cap.stats().replays, 3 * 4 + 6);
  // A released program re-warms (one eager step) and captures again; the
  // others stay live.
  b3.opt_c->release_program();
  int64_t replays = cap.stats().replays;
  run_fused_pair(cap, eag, b3, "B=3 fused, released");
  EXPECT_EQ(cap.stats().captures, 4);
  EXPECT_EQ(cap.stats().replays, replays + 4);
  replays = cap.stats().replays;
  run_fused_pair(cap, eag, b2m, "B=2 masked, resumed");
  EXPECT_EQ(cap.stats().captures, 4);
  EXPECT_EQ(cap.stats().replays, replays + 6);
}

TEST(StepProgram, OptimizerRebuiltAtADeadOnesAddressCapturesAfresh) {
  // A program lives in the optimizer it steps. An optimizer destroyed and
  // rebuilt in place — same address, different array size — starts cold:
  // one eager step, then a capture, and never a replay of the dead graph.
  // Losses and parameters stay bit-equal to an eager TrainStep throughout.
  TrainStep cap;
  cap.enable_capture();
  TrainStep eag;
  std::shared_ptr<fused::FusedArray> array_c, array_e;
  std::optional<fused::FusedAdam> opt_c, opt_e;
  Tensor x;
  auto build = [&](int64_t B) {
    Rng rng(21 + static_cast<uint64_t>(B));
    std::vector<std::shared_ptr<nn::Module>> donors;
    for (int64_t b = 0; b < B; ++b) donors.push_back(mlp(rng));
    Rng crng(1), erng(1);
    array_c = fused::FusionPlan(B, {}).compile(donors, crng);
    array_e = fused::FusionPlan(B, {}).compile(donors, erng);
    const fused::FusedAdam::Options o{
        .lr = fused::HyperVec(static_cast<size_t>(B), 0.01)};
    opt_c.emplace(fused::collect_fused_parameters(*array_c, B), B, o);
    opt_e.emplace(fused::collect_fused_parameters(*array_e, B), B, o);
    Rng drng(31);
    x = fused::pack_channel_fused(std::vector<Tensor>(
        static_cast<size_t>(B), Tensor::randn({kN, 4}, drng)));
  };
  auto loss_on = [&x](fused::FusedArray& a) {
    return [&a, &x] {
      ag::Variable y = a.forward(ag::Variable(x));
      return ag::mean_all(ag::mul(y, y));
    };
  };
  auto step_pair = [&](const std::string& tag) {
    const float lc = cap.run(*opt_c, loss_on(*array_c)).value().item();
    const float le = eag.run(*opt_e, loss_on(*array_e)).value().item();
    EXPECT_EQ(lc, le) << tag;
  };

  build(2);
  for (int s = 0; s < 4; ++s) step_pair("B=2 step " + std::to_string(s));
  EXPECT_EQ(cap.stats().captures, 1);
  EXPECT_TRUE(cap.stats().last_was_replay);
  expect_state_equal(*array_e, *array_c, "B=2");

  const fused::FusedAdam* dead = &*opt_c;
  opt_c.reset();
  opt_e.reset();
  build(3);
  ASSERT_EQ(&*opt_c, dead);  // the new optimizer reuses the dead one's slot
  const int64_t replays = cap.stats().replays;
  step_pair("B=3 warm-up");
  EXPECT_FALSE(cap.stats().last_was_replay);
  EXPECT_EQ(cap.stats().captures, 1);
  step_pair("B=3 capture");
  EXPECT_FALSE(cap.stats().last_was_replay);
  EXPECT_EQ(cap.stats().captures, 2);
  EXPECT_EQ(cap.stats().replays, replays);  // the dead program never ran
  for (int s = 0; s < 3; ++s) step_pair("B=3 step " + std::to_string(s));
  EXPECT_TRUE(cap.stats().last_was_replay);
  EXPECT_EQ(cap.stats().captures, 2);
  expect_state_equal(*array_e, *array_c, "B=3");
}

// ---- fused token models: replays read each step's staged ids ---------------

struct TokenRun {
  std::vector<float> losses;
  std::vector<std::vector<float>> params;
  TrainStep::Stats stats;
};

// Trains a token model at array size B (stacked embedding tables) on a fresh
// random token batch per step, staged in place, with capture on or off.
template <typename Model, typename Config>
TokenRun run_token_model(bool capture, int steps) {
  const int64_t B = 2, N = 2, S = 4;
  const Config cfg = Config::tiny();
  Rng rng(5);
  Model model(cfg, rng, B);
  fused::FusedSGD opt(fused::collect_fused_parameters(model, B), B,
                      {.lr = {0.05}});
  TrainStep step;
  if (capture) step.enable_capture();
  Tensor staged;
  Rng data(11);
  TokenRun out;
  for (int s = 0; s < steps; ++s) {
    Tensor tokens({B, N, S});
    for (int64_t i = 0; i < tokens.numel(); ++i)
      tokens.data()[i] = static_cast<float>(data.uniform_int(cfg.vocab));
    step.stage(&staged, tokens);
    ag::Variable loss = step.run(opt, [&] {
      ag::Variable y = model.forward_tokens(staged);
      return ag::mean_all(ag::mul(y, y));
    });
    out.losses.push_back(loss.value().item());
  }
  for (const ag::Variable& p : model.parameters())
    out.params.push_back(p.value().to_vector());
  out.stats = step.stats();
  return out;
}

template <typename Model, typename Config>
void expect_token_replay_matches_eager(const std::string& tag) {
  // The stacked-table offset of an nn::Embedding at B lives inside the
  // recorded embedding op, so every replay looks up the ids staged for its
  // own step — replay IS the eager step, bit for bit.
  const int kSteps = 6;
  const TokenRun eager = run_token_model<Model, Config>(false, kSteps);
  const TokenRun replay = run_token_model<Model, Config>(true, kSteps);
  EXPECT_EQ(replay.stats.captures, 1) << tag;
  EXPECT_EQ(replay.stats.replays, kSteps - 2) << tag;
  for (int s = 0; s < kSteps; ++s)
    EXPECT_EQ(eager.losses[static_cast<size_t>(s)],
              replay.losses[static_cast<size_t>(s)])
        << tag << " step " << s;
  ASSERT_EQ(eager.params.size(), replay.params.size()) << tag;
  for (size_t i = 0; i < eager.params.size(); ++i)
    EXPECT_EQ(eager.params[i], replay.params[i]) << tag << " param " << i;
}

TEST(StepProgram, FusedTokenModelsReplayFreshStagedIds) {
  expect_token_replay_matches_eager<models::TransformerLM,
                                    models::TransformerConfig>(
      "TransformerLM at B");
  expect_token_replay_matches_eager<models::BertModel, models::BertConfig>(
      "BertModel at B");
}

}  // namespace
}  // namespace hfta
