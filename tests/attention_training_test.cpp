// Training-step equivalence for the attention-based models (Transformer-LM
// and BERT) — the fused encoder stack must equal serial training bit for
// bit through softmax/LayerNorm/embedding gradients, not just match on the
// forward pass. Also covers activation functions on fused layouts.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <unordered_set>

#include "data/datasets.h"
#include "hfta/fused_optim.h"
#include "hfta/fusion.h"
#include "hfta/loss_scaling.h"
#include "models/bert.h"
#include "models/transformer.h"
#include "nn/optim.h"
#include "tensor/matmul.h"
#include "tensor/ops.h"

#include "same_bits.h"

namespace hfta {
namespace {

constexpr int64_t kB = 2;

// Every parameter block of model b in the fused model must equal model b's
// serial parameter bit for bit.
template <typename FusedModel, typename PlainModel>
void expect_same_blocks(const FusedModel& fused_model,
                        const std::vector<std::shared_ptr<PlainModel>>& plain) {
  const auto fp = fused_model.named_parameters();
  for (size_t b = 0; b < plain.size(); ++b) {
    const auto pp = plain[b]->named_parameters();
    ASSERT_EQ(fp.size(), pp.size());
    for (size_t i = 0; i < fp.size(); ++i) {
      const Tensor& pv = pp[i].second.value();
      tests::expect_same_bits(
          pv, fused::unfuse_blocks(fp[i].second.value(), kB, pv.shape())[b],
          fp[i].first + " model " + std::to_string(b));
    }
  }
}

TEST(AttentionTraining, TransformerLMStepsTrackSerial) {
  Rng rng(1);
  models::TransformerConfig cfg = models::TransformerConfig::tiny();
  data::TextDataset ds(2000, cfg.vocab, 3);

  models::TransformerLM fused_model(cfg, rng, kB);
  std::vector<std::shared_ptr<models::TransformerLM>> plain;
  std::vector<std::unique_ptr<nn::Adam>> opts;
  fused::HyperVec lrs = {1e-3, 3e-3};
  for (int64_t b = 0; b < kB; ++b) {
    plain.push_back(std::make_shared<models::TransformerLM>(cfg, rng));
    fused::load_model(fused_model, kB, b, *plain.back());
    opts.push_back(std::make_unique<nn::Adam>(
        plain.back()->parameters(),
        nn::Adam::Options{.lr = lrs[static_cast<size_t>(b)]}));
  }
  fused::FusedAdam fused_opt(
      fused::collect_fused_parameters(fused_model, kB), kB, {.lr = lrs});

  for (int step = 0; step < 3; ++step) {
    auto [x, y] = ds.batch_lm(4, cfg.seq_len, step * 64);
    // fused step over [B, N, S]
    Tensor toks = fused::pack_model_major(std::vector<Tensor>(kB, x));
    Tensor labels = fused::pack_model_major(std::vector<Tensor>(kB, y));
    fused_opt.zero_grad();
    ag::Variable logits = fused_model.forward_tokens(toks);
    // next-token CE over all positions: reshape [B, N*S, V]
    ag::Variable flat = ag::reshape(
        logits, {kB, 4 * cfg.seq_len, cfg.vocab});
    fused::fused_cross_entropy(flat, labels.reshape({kB, 4 * cfg.seq_len}),
                               ag::Reduction::kMean)
        .backward();
    fused_opt.step();
    // serial steps
    for (int64_t b = 0; b < kB; ++b) {
      const size_t ub = static_cast<size_t>(b);
      opts[ub]->zero_grad();
      ag::Variable lb = plain[ub]->forward_tokens(x);
      ag::cross_entropy(
          ag::reshape(lb, {4 * cfg.seq_len, cfg.vocab}),
          y.reshape({4 * cfg.seq_len}), ag::Reduction::kMean)
          .backward();
      opts[ub]->step();
    }
  }
  expect_same_blocks(fused_model, plain);
}

TEST(AttentionTraining, BertMlmStepTracksSerial) {
  Rng rng(2);
  models::BertConfig cfg = models::BertConfig::tiny();
  data::TextDataset ds(2000, cfg.vocab, 5);
  Rng mask_rng(7);

  models::BertModel fused_model(cfg, rng, kB);
  std::vector<std::shared_ptr<models::BertModel>> plain;
  std::vector<std::unique_ptr<nn::Adadelta>> opts;
  for (int64_t b = 0; b < kB; ++b) {
    plain.push_back(std::make_shared<models::BertModel>(cfg, rng));
    fused::load_model(fused_model, kB, b, *plain.back());
    opts.push_back(std::make_unique<nn::Adadelta>(
        plain.back()->parameters(), nn::Adadelta::Options{.lr = 0.5}));
  }
  fused::FusedAdadelta fused_opt(
      fused::collect_fused_parameters(fused_model, kB), kB, {.lr = {0.5}});

  auto [x, y] = ds.batch_mlm(4, cfg.seq_len, 0, cfg.vocab - 1, mask_rng);
  Tensor toks = fused::pack_model_major(std::vector<Tensor>(kB, x));
  Tensor labels = fused::pack_model_major(std::vector<Tensor>(kB, y));
  fused_opt.zero_grad();
  ag::Variable logits = fused_model.forward_tokens(toks);
  fused::fused_cross_entropy(
      ag::reshape(logits, {kB, 4 * cfg.seq_len, cfg.vocab}),
      labels.reshape({kB, 4 * cfg.seq_len}), ag::Reduction::kMean)
      .backward();
  fused_opt.step();
  for (int64_t b = 0; b < kB; ++b) {
    const size_t ub = static_cast<size_t>(b);
    opts[ub]->zero_grad();
    ag::Variable lb = plain[ub]->forward_tokens(x);
    ag::cross_entropy(ag::reshape(lb, {4 * cfg.seq_len, cfg.vocab}),
                      y.reshape({4 * cfg.seq_len}), ag::Reduction::kMean)
        .backward();
    opts[ub]->step();
  }
  expect_same_blocks(fused_model, plain);
}

// The causal mask's -1e9 logits must give probabilities of exactly +0: exp
// underflows to 0 below ln(FLT_MIN), so the 1/z scale cannot turn them into
// subnormals, which stall the attention GEMMs downstream (microcode assists
// on x86). Guards the probabilities and the score gradients of every
// attention op of one fused training step: the op's kernels are rerun on
// the op's own input and output gradient (the context must come out equal
// to the op's value), with the score gradients left in a destination.
TEST(AttentionTraining, CausalSoftmaxHasExactZerosAndNoSubnormals) {
  Rng rng(4);
  models::TransformerConfig cfg = models::TransformerConfig::tiny();
  data::TextDataset ds(2000, cfg.vocab, 3);
  models::TransformerLM fused_model(cfg, rng, kB);
  auto [x, y] = ds.batch_lm(4, cfg.seq_len, 0);
  Tensor toks = fused::pack_model_major(std::vector<Tensor>(kB, x));
  Tensor labels = fused::pack_model_major(std::vector<Tensor>(kB, y));
  ag::Variable loss = fused::fused_cross_entropy(
      ag::reshape(fused_model.forward_tokens(toks),
                  {kB, 4 * cfg.seq_len, cfg.vocab}),
      labels.reshape({kB, 4 * cfg.seq_len}), ag::Reduction::kMean);
  loss.backward();

  std::vector<ag::Variable> attentions, stack{loss};
  std::unordered_set<const void*> seen;
  while (!stack.empty()) {
    ag::Variable v = stack.back();
    stack.pop_back();
    if (!v.node() || !seen.insert(v.id()).second) continue;
    if (v.node()->name == "attention") attentions.push_back(v);
    for (const ag::Variable& in : v.node()->inputs)
      if (in.defined()) stack.push_back(in);
  }
  ASSERT_EQ(static_cast<int64_t>(attentions.size()), cfg.num_layers);
  const int64_t S = cfg.seq_len, H = cfg.num_heads;
  const Tensor mask = models::causal_mask(S);
  for (ag::Variable& a : attentions) {
    const Tensor qkv = a.node()->inputs[0].value();  // [B, N, S, 3E]
    Tensor p = Tensor::empty({qkv.numel() / (S * qkv.size(-1)) * H, S, S});
    const Tensor ctx = ops::attention_forward(qkv, H, mask, p);
    ASSERT_EQ(std::memcmp(ctx.data(), a.value().data(),
                          sizeof(float) * static_cast<size_t>(ctx.numel())),
              0);
    Tensor gs = Tensor::empty(p.shape());
    ops::attention_backward(a.grad(), qkv, p, H, DType::kF32, gs);
    int64_t masked = 0;
    for (int64_t k = 0; k < p.numel(); ++k) {
      const int64_t i = (k / S) % S, j = k % S;
      const float pk = p.data()[k];
      if (j > i) {
        uint32_t bits;
        std::memcpy(&bits, &pk, sizeof bits);
        ASSERT_EQ(bits, 0u) << "masked probability " << pk << " at " << k;
        ++masked;
      }
      ASSERT_NE(std::fpclassify(pk), FP_SUBNORMAL) << "probability at " << k;
      ASSERT_NE(std::fpclassify(gs.data()[k]), FP_SUBNORMAL)
          << "score gradient at " << k;
    }
    EXPECT_EQ(masked, p.numel() / (S * S) * (S * (S - 1) / 2));
  }
}

// Activations are shape-agnostic and identical in fused form (Appendix B's
// last rows) — check them explicitly on the channel-fused layout anyway.
TEST(FusedActivations, ElementwiseOpsCommuteWithPacking) {
  Rng rng(3);
  std::vector<Tensor> xs;
  for (int64_t b = 0; b < 3; ++b) xs.push_back(Tensor::randn({2, 4, 5}, rng));
  Tensor packed = fused::pack_channel_fused(xs);
  struct Case {
    const char* name;
    ag::Variable (*fn)(const ag::Variable&);
  };
  const Case cases[] = {
      {"relu", [](const ag::Variable& v) { return ag::relu(v); }},
      {"relu6", [](const ag::Variable& v) { return ag::relu6(v); }},
      {"tanh", [](const ag::Variable& v) { return ag::tanh(v); }},
      {"hardswish", [](const ag::Variable& v) { return ag::hardswish(v); }},
      {"sigmoid", [](const ag::Variable& v) { return ag::sigmoid(v); }},
  };
  for (const Case& c : cases) {
    Tensor fused_out = c.fn(ag::Variable(packed)).value();
    auto per = fused::unpack_channel_fused(fused_out, 3);
    for (int64_t b = 0; b < 3; ++b) {
      Tensor ref = c.fn(ag::Variable(xs[static_cast<size_t>(b)])).value();
      EXPECT_EQ(ops::max_abs_diff(per[static_cast<size_t>(b)], ref), 0.f)
          << c.name;
    }
  }
  // LeakyReLU takes a slope parameter; checked separately.
  Tensor lf = ag::leaky_relu(ag::Variable(packed), 0.2f).value();
  auto per = fused::unpack_channel_fused(lf, 3);
  for (int64_t b = 0; b < 3; ++b) {
    Tensor ref =
        ag::leaky_relu(ag::Variable(xs[static_cast<size_t>(b)]), 0.2f).value();
    EXPECT_EQ(ops::max_abs_diff(per[static_cast<size_t>(b)], ref), 0.f);
  }
}

TEST(FusedActivations, FusedDropoutPreservesExpectationPerModel) {
  Rng rng(4);
  const int64_t B = 4, n = 4000;
  nn::Dropout drop(0.3f, 123);
  Tensor x = Tensor::ones({B, n});
  Tensor y = drop.forward(ag::Variable(x)).value();
  for (int64_t b = 0; b < B; ++b) {
    double mean = 0;
    for (int64_t i = 0; i < n; ++i) mean += y.at({b, i});
    mean /= n;
    EXPECT_NEAR(mean, 1.0, 0.08) << "model " << b;  // inverted scaling
  }
}

}  // namespace
}  // namespace hfta
