// FusionPlan coverage: fuse -> forward equivalence against B independently
// run models for Linear/Conv/BN/LayerNorm stacks, congruence-rejection
// diagnostics (which layer, which model, why), fuse_mask partial-fusion
// round-trips, the unfused fallback, and planner-driven weight (re)loading.
#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <map>
#include <set>

#include "hfta/fused_optim.h"
#include "hfta/fusion.h"
#include "hfta/loss_scaling.h"
#include "models/bert.h"
#include "models/dcgan.h"
#include "models/mobilenetv3.h"
#include "models/pointnet.h"
#include "models/resnet.h"
#include "models/transformer.h"
#include "nn/layers.h"
#include "nn/norm.h"
#include "nn/optim.h"
#include "tensor/ops.h"

#include "kind_factories.h"
#include "same_bits.h"

namespace hfta::fused {
namespace {

constexpr int64_t kB = 3;

using tests::expect_same_bits;

// Forwards the fused array and every per-model net, then checks per-model
// slices agree bit for bit. Input xs[b]: one per-model batch; fused input
// is channel-fused packing. Expects model-major output.
void expect_equivalent(FusedArray& array,
                       const std::vector<std::shared_ptr<nn::Module>>& nets,
                       const std::vector<Tensor>& xs) {
  Tensor yf = array.forward(ag::Variable(pack_channel_fused(xs))).value();
  for (int64_t b = 0; b < kB; ++b) {
    const size_t ub = static_cast<size_t>(b);
    Tensor yb = nets[ub]->forward(ag::Variable(xs[ub])).value();
    expect_same_bits(yb, yf.slice(0, b, b + 1).reshape(yb.shape()),
                     "model " + std::to_string(b));
  }
}

std::shared_ptr<nn::Sequential> mlp(int64_t in, int64_t hidden, int64_t out,
                                    Rng& rng) {
  auto net = std::make_shared<nn::Sequential>();
  net->push_back("fc1", std::make_shared<nn::Linear>(in, hidden, true, rng));
  net->push_back("relu", std::make_shared<nn::ReLU>());
  net->push_back("fc2", std::make_shared<nn::Linear>(hidden, out, true, rng));
  return net;
}

TEST(FusionPlan, LinearStackMatchesIndependentModels) {
  Rng rng(1);
  std::vector<std::shared_ptr<nn::Module>> nets;
  std::vector<Tensor> xs;
  for (int64_t b = 0; b < kB; ++b) {
    nets.push_back(mlp(6, 10, 4, rng));
    xs.push_back(Tensor::randn({5, 6}, rng));
  }
  auto array = FusionPlan(kB).compile(nets, rng);
  EXPECT_EQ(array->num_units(), 3);
  EXPECT_EQ(array->output_layout(), Layout::kModelMajor);
  expect_equivalent(*array, nets, xs);
}

TEST(FusionPlan, ConvBatchNormStackMatchesIndependentModels) {
  Rng rng(2);
  std::vector<std::shared_ptr<nn::Module>> nets;
  std::vector<Tensor> xs;
  for (int64_t b = 0; b < kB; ++b) {
    auto net = std::make_shared<nn::Sequential>();
    net->push_back("conv1",
                   std::make_shared<nn::Conv2d>(3, 8, 3, 1, 1, 1, true, rng));
    net->push_back("bn1", std::make_shared<nn::BatchNorm2d>(8));
    net->push_back("relu", std::make_shared<nn::ReLU>());
    net->push_back("pool", std::make_shared<nn::MaxPool2d>(2, 2));
    net->push_back("conv2",
                   std::make_shared<nn::Conv2d>(8, 4, 3, 2, 1, 1, true, rng));
    net->push_back("flatten", std::make_shared<nn::Flatten>());
    net->push_back("fc", std::make_shared<nn::Linear>(4 * 2 * 2, 5, true,
                                                      rng));
    nets.push_back(net);
    xs.push_back(Tensor::randn({4, 3, 8, 8}, rng));
  }
  auto array = FusionPlan(kB).compile(nets, rng);
  expect_equivalent(*array, nets, xs);
}

TEST(FusionPlan, LayerNormStackMatchesIndependentModels) {
  Rng rng(3);
  std::vector<std::shared_ptr<nn::Module>> nets;
  std::vector<Tensor> xs;
  for (int64_t b = 0; b < kB; ++b) {
    auto net = std::make_shared<nn::Sequential>();
    net->push_back("fc1", std::make_shared<nn::Linear>(6, 12, true, rng));
    net->push_back("ln", std::make_shared<nn::LayerNorm>(Shape{12}, 1e-5f,
                                                         rng));
    net->push_back("gelu", std::make_shared<nn::GELU>());
    net->push_back("fc2", std::make_shared<nn::Linear>(12, 3, true, rng));
    nets.push_back(net);
    xs.push_back(Tensor::randn({7, 6}, rng));
  }
  auto array = FusionPlan(kB).compile(nets, rng);
  expect_equivalent(*array, nets, xs);
}

TEST(FusionPlan, Conv1dBatchNorm1dStackMatchesIndependentModels) {
  Rng rng(4);
  std::vector<std::shared_ptr<nn::Module>> nets;
  std::vector<Tensor> xs;
  for (int64_t b = 0; b < kB; ++b) {
    auto net = std::make_shared<nn::Sequential>();
    net->push_back("conv",
                   std::make_shared<nn::Conv1d>(3, 6, 1, 1, 0, 1, true, rng));
    net->push_back("bn", std::make_shared<nn::BatchNorm1d>(6));
    net->push_back("relu", std::make_shared<nn::ReLU>());
    net->push_back("gpool", std::make_shared<nn::GlobalMaxPool1d>());
    net->push_back("fc", std::make_shared<nn::Linear>(6, 2, true, rng));
    nets.push_back(net);
    xs.push_back(Tensor::randn({4, 3, 10}, rng));
  }
  auto array = FusionPlan(kB).compile(nets, rng);
  expect_equivalent(*array, nets, xs);
}

TEST(FusionPlan, RejectsStructuralHyperParameterMismatch) {
  Rng rng(5);
  std::vector<std::shared_ptr<nn::Module>> nets;
  for (int64_t b = 0; b < kB; ++b)
    nets.push_back(mlp(6, b == 1 ? 9 : 10, 4, rng));  // model 1 differs

  std::vector<const nn::Module*> raw;
  for (const auto& n : nets) raw.push_back(n.get());
  std::vector<FusionDiagnostic> diags = FusionPlan(kB).analyze(raw);
  ASSERT_FALSE(diags.empty());
  EXPECT_EQ(diags[0].path, "fc1");
  EXPECT_EQ(diags[0].model_index, 1);
  EXPECT_NE(diags[0].reason.find("out"), std::string::npos);

  try {
    FusionPlan(kB).compile(nets, rng);
    FAIL() << "compile must throw on incongruent models";
  } catch (const FusionError& e) {
    EXPECT_EQ(e.diagnostic.path, "fc1");
    EXPECT_EQ(e.diagnostic.model_index, 1);
    EXPECT_NE(std::string(e.what()).find("fc1"), std::string::npos);
  }
}

TEST(FusionPlan, RejectsKindNameMismatch) {
  Rng rng(6);
  std::vector<std::shared_ptr<nn::Module>> nets;
  for (int64_t b = 0; b < kB; ++b) {
    auto net = std::make_shared<nn::Sequential>();
    net->push_back("fc", std::make_shared<nn::Linear>(4, 4, true, rng));
    if (b == 2) {
      net->push_back("act", std::make_shared<nn::Tanh>());
    } else {
      net->push_back("act", std::make_shared<nn::ReLU>());
    }
    nets.push_back(net);
  }
  std::vector<const nn::Module*> raw;
  for (const auto& n : nets) raw.push_back(n.get());
  std::vector<FusionDiagnostic> diags = FusionPlan(kB).analyze(raw);
  ASSERT_FALSE(diags.empty());
  EXPECT_EQ(diags[0].path, "act");
  EXPECT_EQ(diags[0].model_index, 2);
  EXPECT_NE(diags[0].reason.find("kind mismatch"), std::string::npos);

  // The 1-D and 2-D instances of one rank template, with equal configs:
  // only the kind tells them apart. At kernel 1 the conv weights [4, 3, 1]
  // and [4, 3, 1, 1] hold the same numel, so the state walk would accept
  // either one.
  const std::vector<std::pair<std::shared_ptr<nn::Module>,
                              std::shared_ptr<nn::Module>>>
      pairs = {
          {std::make_shared<nn::Conv1d>(3, 4, 1, 1, 0, 1, true, rng),
           std::make_shared<nn::Conv2d>(3, 4, 1, 1, 0, 1, true, rng)},
          {std::make_shared<nn::ConvTranspose1d>(3, 4, 1, 1, 0, 0, 1, true,
                                                 rng),
           std::make_shared<nn::ConvTranspose2d>(3, 4, 1, 1, 0, 0, 1, true,
                                                 rng)},
          {std::make_shared<nn::BatchNorm1d>(4),
           std::make_shared<nn::BatchNorm2d>(4)},
      };
  for (const auto& [one_d, two_d] : pairs) {
    const std::string kind = two_d->kind_name();
    EXPECT_EQ(one_d->config().entries, two_d->config().entries) << kind;
    EXPECT_EQ(one_d->num_parameters(), two_d->num_parameters()) << kind;
    std::vector<FusionDiagnostic> d =
        FusionPlan(kB).analyze({one_d.get(), one_d.get(), two_d.get()});
    ASSERT_EQ(d.size(), 1u) << kind;
    EXPECT_EQ(d[0].model_index, 2) << kind;
    EXPECT_NE(d[0].reason.find("kind mismatch"), std::string::npos)
        << d[0].reason;
  }
}

TEST(FusionPlan, RejectsTopologyMismatch) {
  Rng rng(7);
  std::vector<std::shared_ptr<nn::Module>> nets;
  for (int64_t b = 0; b < kB; ++b) {
    auto net = std::make_shared<nn::Sequential>();
    net->push_back("fc", std::make_shared<nn::Linear>(4, 4, true, rng));
    if (b == 0) net->push_back("extra", std::make_shared<nn::ReLU>());
    nets.push_back(net);
  }
  std::vector<const nn::Module*> raw;
  for (const auto& n : nets) raw.push_back(n.get());
  std::vector<FusionDiagnostic> diags = FusionPlan(kB).analyze(raw);
  ASSERT_FALSE(diags.empty());
  EXPECT_NE(diags[0].reason.find("submodule count"), std::string::npos);
}

// A composite custom module without an array form.
class Doubler : public nn::Module {
 public:
  ag::Variable forward(const ag::Variable& x) override {
    return ag::mul_scalar(x, 2.f);
  }
  std::string kind_name() const override { return "test::Doubler"; }
};

TEST(FusionPlan, UnsupportedKindYieldsStructuredDiagnostic) {
  Rng rng(8);
  std::vector<std::shared_ptr<nn::Module>> nets;
  for (int64_t b = 0; b < kB; ++b) {
    auto net = std::make_shared<nn::Sequential>();
    net->push_back("fc", std::make_shared<nn::Linear>(4, 4, true, rng));
    net->push_back("dbl", std::make_shared<Doubler>());
    nets.push_back(net);
  }
  try {
    FusionPlan(kB).compile(nets, rng);
    FAIL() << "compile must throw on a kind without an array form";
  } catch (const FusionError& e) {
    EXPECT_EQ(e.diagnostic.path, "dbl");
    EXPECT_NE(e.diagnostic.reason.find("no fusion rule"), std::string::npos);
    EXPECT_NE(e.diagnostic.reason.find("test::Doubler"), std::string::npos);
  }
}

TEST(FusionPlan, UnfusedFallbackRunsUnsupportedKind) {
  Rng rng(9);
  std::vector<std::shared_ptr<nn::Module>> nets;
  std::vector<Tensor> xs;
  for (int64_t b = 0; b < kB; ++b) {
    auto net = std::make_shared<nn::Sequential>();
    net->push_back("fc1", std::make_shared<nn::Linear>(6, 8, true, rng));
    net->push_back("dbl", std::make_shared<Doubler>());
    net->push_back("fc2", std::make_shared<nn::Linear>(8, 3, true, rng));
    nets.push_back(net);
    xs.push_back(Tensor::randn({4, 6}, rng));
  }
  FusionOptions opts;
  opts.fuse_mask = {true, false, true};
  opts.output_layout = Layout::kModelMajor;
  auto array = FusionPlan(kB, opts).compile(nets, rng);
  EXPECT_FALSE(array->unit_fused(1));
  expect_equivalent(*array, nets, xs);
}

TEST(FusionPlan, FuseMaskPartialFusionRoundTrips) {
  Rng rng(10);
  std::vector<std::shared_ptr<nn::Module>> nets;
  std::vector<Tensor> xs;
  for (int64_t b = 0; b < kB; ++b) {
    nets.push_back(mlp(6, 10, 4, rng));
    xs.push_back(Tensor::randn({5, 6}, rng));
  }
  Tensor x = pack_channel_fused(xs);

  FusionOptions full_opts;
  full_opts.output_layout = Layout::kModelMajor;
  auto full = FusionPlan(kB, full_opts).compile(nets, rng);

  // Every 3-unit mask: the math must be identical regardless of which units
  // run fused and which run as B per-model replicas (Appendix H.4).
  for (int m = 0; m < 8; ++m) {
    FusionOptions opts;
    opts.output_layout = Layout::kModelMajor;
    opts.fuse_mask = {(m & 1) != 0, (m & 2) != 0, (m & 4) != 0};
    auto partial = FusionPlan(kB, opts).compile(nets, rng);
    for (int64_t u = 0; u < 3; ++u)
      EXPECT_EQ(partial->unit_fused(u), opts.fuse_mask[static_cast<size_t>(u)]);
    Tensor y_full = full->forward(ag::Variable(x)).value();
    Tensor y_part = partial->forward(ag::Variable(x)).value();
    expect_same_bits(y_full, y_part, "mask " + std::to_string(m));
  }
}

TEST(FusionPlan, FuseMaskSizeMismatchIsDiagnosed) {
  Rng rng(11);
  std::vector<std::shared_ptr<nn::Module>> nets;
  for (int64_t b = 0; b < kB; ++b) nets.push_back(mlp(4, 6, 2, rng));
  FusionOptions opts;
  opts.fuse_mask = {true, false};  // model has 3 units
  try {
    FusionPlan(kB, opts).compile(nets, rng);
    FAIL() << "compile must reject a wrong-sized fuse_mask";
  } catch (const FusionError& e) {
    EXPECT_NE(e.diagnostic.reason.find("fuse_mask"), std::string::npos);
  }
}

TEST(FusionPlan, FusedOptimizerRejectsAMaskedOffUnit) {
  // A masked-off unit's replicas each belong to one model. Reading a
  // replica parameter as B blocks would step half of model 1's fc2 with
  // model 0's lr (at lrs {0.1, 0} it moved), or, for a numel B does not
  // divide, fail with a confusing "not fused over B" error. The collector
  // refuses the array and names the unit instead.
  Rng rng(16);
  std::vector<std::shared_ptr<nn::Module>> nets;
  for (int64_t b = 0; b < 2; ++b) nets.push_back(mlp(4, 4, 4, rng));
  FusionOptions opts;
  opts.fuse_mask = {true, true, false};
  opts.output_layout = Layout::kModelMajor;
  auto array = FusionPlan(2, opts).compile(nets, rng);
  try {
    FusedSGD opt(collect_fused_parameters(*array, 2), 2, {.lr = {0.1, 0.0}});
    FAIL() << "collect_fused_parameters must reject a masked-off unit";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("unit 2 ('fc2')"), std::string::npos)
        << e.what();
  }
  // The same models fully fused still collect.
  auto full = FusionPlan(2).compile(nets, rng);
  EXPECT_EQ(collect_fused_parameters(*full, 2).size(), 4u);
}

TEST(FusionPlan, LoadModelReloadsFromNewDonors) {
  // Every fuse mask, so fused steps and unfused (cloned-replica) units are
  // reloaded in every combination.
  Rng rng(12);
  std::vector<std::shared_ptr<nn::Module>> nets, fresh;
  std::vector<Tensor> xs;
  for (int64_t b = 0; b < kB; ++b) {
    nets.push_back(mlp(6, 10, 4, rng));
    fresh.push_back(mlp(6, 10, 4, rng));  // different weights
    xs.push_back(Tensor::randn({5, 6}, rng));
  }
  for (int m = 0; m < 8; ++m) {
    FusionOptions opts;
    opts.output_layout = Layout::kModelMajor;
    opts.fuse_mask = {(m & 1) != 0, (m & 2) != 0, (m & 4) != 0};
    auto array = FusionPlan(kB, opts).compile(nets, rng);
    for (int64_t b = 0; b < kB; ++b)
      array->load_model(b, *fresh[static_cast<size_t>(b)]);
    SCOPED_TRACE("mask " + std::to_string(m));
    expect_equivalent(*array, fresh, xs);
  }
}

TEST(FusionPlan, UnfusedUnitsOwnClonedReplicas) {
  // Regression for the donor write-through footgun: unfused units used to
  // alias the donor models' own submodules, so load_model (and training)
  // silently mutated the donors. They now own Module::clone() replicas.
  Rng rng(20);
  std::vector<std::shared_ptr<nn::Module>> nets, fresh;
  std::vector<Tensor> xs;
  for (int64_t b = 0; b < kB; ++b) {
    nets.push_back(mlp(6, 10, 4, rng));
    fresh.push_back(mlp(6, 10, 4, rng));
    xs.push_back(Tensor::randn({5, 6}, rng));
  }
  FusionOptions opts;
  opts.output_layout = Layout::kModelMajor;
  opts.fuse_mask = {true, true, false};  // fc2 runs as B unfused replicas
  auto array = FusionPlan(kB, opts).compile(nets, rng);

  // The adapter's replicas are distinct objects, not the donors.
  auto adapter = std::dynamic_pointer_cast<UnfusedBlockAdapter>(
      array->steps().back().module);
  ASSERT_NE(adapter, nullptr);
  for (int64_t b = 0; b < kB; ++b) {
    const auto& donor_fc2 =
        static_cast<const nn::Sequential&>(*nets[static_cast<size_t>(b)])
            .at(2);
    EXPECT_NE(adapter->replicas()[static_cast<size_t>(b)].get(),
              donor_fc2.get())
        << "replica " << b << " aliases its donor";
  }

  // (1) load_model with new weights must not touch the donors.
  std::vector<Tensor> donor_before;
  for (const auto& n : nets)
    for (const auto& p : n->parameters())
      donor_before.push_back(p.value().clone());
  for (int64_t b = 0; b < kB; ++b)
    array->load_model(b, *fresh[static_cast<size_t>(b)]);
  size_t i = 0;
  for (const auto& n : nets)
    for (const auto& p : n->parameters())
      EXPECT_EQ(ops::max_abs_diff(donor_before[i++], p.value()), 0.f)
          << "load_model mutated a donor";

  // (2) mutating the array (an "optimizer step") must not touch the donors
  // either, and vice versa: donor edits must not change the array's output.
  Tensor x = pack_channel_fused(xs);
  for (auto& p : array->parameters()) {
    Tensor v = p.mutable_value();
    v.add_(Tensor::ones(v.shape()), 1e-2f);
  }
  i = 0;
  for (const auto& n : nets)
    for (const auto& p : n->parameters())
      EXPECT_EQ(ops::max_abs_diff(donor_before[i++], p.value()), 0.f)
          << "array mutation wrote through to a donor";
  Tensor y_before = array->forward(ag::Variable(x)).value();
  for (const auto& n : nets)
    for (auto& p : n->parameters()) {
      Tensor v = p.mutable_value();
      v.add_(Tensor::ones(v.shape()), 1.f);
    }
  Tensor y_after = array->forward(ag::Variable(x)).value();
  EXPECT_EQ(ops::max_abs_diff(y_before, y_after), 0.f)
      << "donor mutation changed the array";

  // (3) after reloading, the array still computes the fresh models exactly.
  for (int64_t b = 0; b < kB; ++b)
    array->load_model(b, *fresh[static_cast<size_t>(b)]);
  expect_equivalent(*array, fresh, xs);
}

// A stateful composite without an array form OR clone support.
class StatefulOpaque : public nn::Module {
 public:
  explicit StatefulOpaque(Rng& rng) {
    w = register_parameter("w", Tensor::randn({2}, rng));
  }
  ag::Variable forward(const ag::Variable& x) override { return x; }
  std::string kind_name() const override { return "test::StatefulOpaque"; }
  ag::Variable w;
};

TEST(FusionPlan, StatefulUncloneableUnfusedUnitIsDiagnosed) {
  // An unfused unit must own its replicas; a stateful kind that cannot be
  // cloned is a structured FusionError (which layer, why), not a crash.
  Rng rng(24);
  std::vector<std::shared_ptr<nn::Module>> nets;
  for (int64_t b = 0; b < kB; ++b) {
    auto net = std::make_shared<nn::Sequential>();
    net->push_back("fc", std::make_shared<nn::Linear>(4, 4, true, rng));
    net->push_back("op", std::make_shared<StatefulOpaque>(rng));
    nets.push_back(net);
  }
  FusionOptions opts;
  opts.fuse_mask = {true, false};
  try {
    FusionPlan(kB, opts).compile(nets, rng);
    FAIL() << "compile must reject a stateful, clone-less unfused unit";
  } catch (const FusionError& e) {
    EXPECT_EQ(e.diagnostic.path, "op");
    EXPECT_NE(e.diagnostic.reason.find("clone"), std::string::npos);
    EXPECT_NE(e.diagnostic.reason.find("test::StatefulOpaque"),
              std::string::npos);
  }
}

TEST(FusionPlan, FallbackSharesStatelessKinds) {
  // A stateless kind without an array form in a masked-off unit may be
  // shared rather than cloned — nothing to write through — and the compile
  // still round-trips.
  Rng rng(23);
  std::vector<std::shared_ptr<nn::Module>> nets;
  std::vector<Tensor> xs;
  for (int64_t b = 0; b < kB; ++b) {
    auto net = std::make_shared<nn::Sequential>();
    net->push_back("fc1", std::make_shared<nn::Linear>(6, 8, true, rng));
    net->push_back("dbl", std::make_shared<Doubler>());
    net->push_back("fc2", std::make_shared<nn::Linear>(8, 3, true, rng));
    nets.push_back(net);
    xs.push_back(Tensor::randn({4, 6}, rng));
  }
  FusionOptions opts;
  opts.fuse_mask = {true, false, true};
  opts.output_layout = Layout::kModelMajor;
  auto array = FusionPlan(kB, opts).compile(nets, rng);
  EXPECT_FALSE(array->unit_fused(1));
  auto adapter =
      std::dynamic_pointer_cast<UnfusedBlockAdapter>(array->steps()[1].module);
  ASSERT_NE(adapter, nullptr);
  for (int64_t b = 0; b < kB; ++b) {
    const size_t ub = static_cast<size_t>(b);
    EXPECT_EQ(adapter->replicas()[ub].get(),
              static_cast<const nn::Sequential&>(*nets[ub]).at(1).get())
        << "replica " << b;
  }
  expect_equivalent(*array, nets, xs);
}

TEST(FusionPlan, TransformerLMLowersToItsArrayForm) {
  Rng rng(13);
  models::TransformerConfig cfg = models::TransformerConfig::tiny();
  std::vector<std::shared_ptr<nn::Module>> lms;
  for (int64_t b = 0; b < kB; ++b)
    lms.push_back(std::make_shared<models::TransformerLM>(cfg, rng));
  auto array = FusionPlan(kB).compile(lms, rng);
  ASSERT_EQ(array->steps().size(), 1u);
  auto fused_lm = std::dynamic_pointer_cast<models::TransformerLM>(
      array->steps()[0].module);
  ASSERT_NE(fused_lm, nullptr);

  std::vector<Tensor> toks;
  for (int64_t b = 0; b < kB; ++b) {
    Tensor t({2, cfg.seq_len});
    for (int64_t i = 0; i < t.numel(); ++i)
      t.data()[i] = static_cast<float>(rng.uniform_int(cfg.vocab));
    toks.push_back(t);
  }
  Tensor yf = fused_lm->forward_tokens(pack_model_major(toks)).value();
  for (int64_t b = 0; b < kB; ++b) {
    const size_t ub = static_cast<size_t>(b);
    Tensor yb = static_cast<models::TransformerLM&>(*lms[ub])
                    .forward_tokens(toks[ub])
                    .value();
    expect_same_bits(yb, yf.slice(0, b, b + 1).reshape(yb.shape()),
                     "model " + std::to_string(b));
  }
}

TEST(FusionPlan, EncoderLayerStackLowersToItsArrayForm) {
  Rng rng(14);
  const int64_t E = 8, H = 2, FF = 16;
  std::vector<std::shared_ptr<nn::Module>> nets;
  std::vector<Tensor> xs;
  for (int64_t b = 0; b < kB; ++b) {
    auto net = std::make_shared<nn::Sequential>();
    net->push_back("enc0", std::make_shared<models::TransformerEncoderLayer>(
                               E, H, FF, 0.f, "relu", rng));
    net->push_back("enc1", std::make_shared<models::TransformerEncoderLayer>(
                               E, H, FF, 0.f, "gelu", rng));
    nets.push_back(net);
    xs.push_back(Tensor::randn({2, 5, E}, rng));  // [N, S, E]
  }
  auto array = FusionPlan(kB).compile(nets, rng);
  expect_equivalent(*array, nets, xs);
}

// ---- store_model / repack ---------------------------------------------------

// conv/BN/linear stack with one masked-off (unfused-adapter) unit: exercises
// fused block storers, the adapter's copy_state storer, and BN buffers.
std::shared_ptr<nn::Sequential> conv_bn_mlp(Rng& rng) {
  auto net = std::make_shared<nn::Sequential>();
  net->push_back("conv1",
                 std::make_shared<nn::Conv2d>(3, 8, 3, 1, 1, 1, true, rng));
  net->push_back("bn1", std::make_shared<nn::BatchNorm2d>(8));
  net->push_back("relu", std::make_shared<nn::ReLU>());
  net->push_back("pool", std::make_shared<nn::MaxPool2d>(2, 2));
  net->push_back("conv2",
                 std::make_shared<nn::Conv2d>(8, 4, 3, 2, 1, 1, true, rng));
  net->push_back("flatten", std::make_shared<nn::Flatten>());
  net->push_back("fc", std::make_shared<nn::Linear>(4 * 2 * 2, 5, true, rng));
  return net;
}

TEST(SaveModel, TrainSaveReloadRoundTripIsBitExact) {
  Rng rng(21);
  std::vector<std::shared_ptr<nn::Module>> nets;
  for (int64_t b = 0; b < kB; ++b) nets.push_back(conv_bn_mlp(rng));
  FusionOptions opts;
  opts.fuse_mask = {true, false, true, true, true, true, true};  // bn1 unfused
  opts.output_layout = Layout::kModelMajor;
  auto array = FusionPlan(kB, opts).compile(nets, rng);

  // Train a few steps so parameters AND BN running stats drift from init.
  // nn::SGD updates every parameter elementwise, which covers the unfused
  // adapter unit's owned replicas too (they are not FusedParams).
  nn::SGD opt(array->parameters(), {.lr = 0.05});
  Tensor x = Tensor::randn({2, 3, 8, 8}, rng);
  std::vector<Tensor> xs(static_cast<size_t>(kB), x);
  Tensor labels({kB, 2});
  for (int step = 0; step < 3; ++step) {
    opt.zero_grad();
    ag::Variable logits = array->forward(ag::Variable(pack_channel_fused(xs)));
    fused_cross_entropy(logits, labels, ag::Reduction::kMean).backward();
    opt.step();
  }

  // save -> reload into a second array; eval-mode forward (which consumes
  // the BN running stats) must agree to the last bit.
  std::vector<std::shared_ptr<nn::Module>> saved;
  for (int64_t b = 0; b < kB; ++b) {
    saved.push_back(nets[static_cast<size_t>(b)]->clone());
    array->store_model(b, *saved.back());
  }
  auto reloaded = FusionPlan(kB, opts).compile(saved, rng);
  array->eval();
  reloaded->eval();
  Tensor y1 = array->forward(ag::Variable(pack_channel_fused(xs))).value();
  Tensor y2 = reloaded->forward(ag::Variable(pack_channel_fused(xs))).value();
  EXPECT_DOUBLE_EQ(ops::max_abs_diff(y1, y2), 0.0);
}

TEST(SaveModel, CompositeEncoderLayerStoresLikeEveryKind) {
  // Store support used to be a per-kind hand-written lambda, and the
  // encoder layer shipped without one ("no store support"). With one
  // path-driven transfer for every array it works like every other kind:
  // store_model round-trips every parameter bit-exactly.
  Rng rng(22);
  const int64_t E = 8, H = 2, FF = 16;
  std::vector<std::shared_ptr<nn::Module>> nets;
  for (int64_t b = 0; b < kB; ++b) {
    auto net = std::make_shared<nn::Sequential>();
    net->push_back("enc", std::make_shared<models::TransformerEncoderLayer>(
                              E, H, FF, 0.f, "relu", rng));
    nets.push_back(net);
  }
  auto array = FusionPlan(kB).compile(nets, rng);
  for (int64_t b = 0; b < kB; ++b) {
    const std::shared_ptr<nn::Module> out = nets[b]->clone();
    // Scramble the clone so the comparison can only pass if store_model
    // actually wrote every tensor.
    for (auto& [name, p] : out->named_parameters())
      p.mutable_value().fill_(-7.5f);
    array->store_model(b, *out);
    const auto want = nets[b]->named_parameters();
    const auto got = out->named_parameters();
    ASSERT_EQ(want.size(), got.size());
    for (size_t i = 0; i < want.size(); ++i)
      EXPECT_EQ(ops::max_abs_diff(want[i].second.value(),
                                  got[i].second.value()),
                0.f)
          << want[i].first;
  }
}

TEST(Repack, SurvivorsContinueBitExactlyAfterHalving) {
  Rng rng(31);
  // Serial reference: three independent trainings with per-model lrs.
  std::vector<std::shared_ptr<nn::Module>> nets;
  std::vector<std::shared_ptr<nn::Module>> serial;
  std::vector<std::unique_ptr<nn::Adam>> serial_opts;
  const HyperVec lrs = {1e-2, 2e-2, 3e-2};
  for (int64_t b = 0; b < kB; ++b) {
    nets.push_back(mlp(6, 10, 4, rng));
    serial.push_back(nets.back()->clone());
    serial_opts.push_back(std::make_unique<nn::Adam>(
        serial.back()->parameters(),
        nn::Adam::Options{.lr = lrs[static_cast<size_t>(b)]}));
  }
  FusionOptions opts;
  opts.output_layout = Layout::kModelMajor;
  auto array = FusionPlan(kB, opts).compile(nets, rng);
  auto opt = std::make_unique<FusedAdam>(collect_fused_parameters(*array, kB),
                                         kB, FusedAdam::Options{.lr = lrs});

  Tensor x = Tensor::randn({5, 6}, rng);
  Tensor y({5});  // class-0 labels
  auto train_fused = [&](FusedArray& a, FusedOptimizer& o, int64_t B,
                         int steps) {
    std::vector<Tensor> xb(static_cast<size_t>(B), x);
    Tensor lb({B, 5});
    for (int s = 0; s < steps; ++s) {
      o.zero_grad();
      ag::Variable logits = a.forward(ag::Variable(pack_channel_fused(xb)));
      fused_cross_entropy(logits, lb, ag::Reduction::kMean).backward();
      o.step();
    }
  };
  auto train_serial = [&](size_t b, int steps) {
    for (int s = 0; s < steps; ++s) {
      serial_opts[b]->zero_grad();
      ag::cross_entropy(serial[b]->forward(ag::Variable(x)), y,
                        ag::Reduction::kMean)
          .backward();
      serial_opts[b]->step();
    }
  };

  train_fused(*array, *opt, kB, 4);
  for (size_t b = 0; b < static_cast<size_t>(kB); ++b) train_serial(b, 4);

  // Halve: keep models 2 and 0 (order scrambled on purpose); model 1 dies.
  const std::vector<int64_t> keep = {2, 0};
  const FusionPlan plan2(2, opts);
  const std::vector<RepackPick> picks = {{0, keep[0]}, {0, keep[1]}};
  auto array2 = plan2.repack_multi({array.get()}, picks, *nets[0], rng);
  auto opt2 = std::make_unique<FusedAdam>(
      collect_fused_parameters(*array2, 2), 2,
      FusedAdam::Options{.lr = {lrs[2], lrs[0]}});
  opt2->repack_state_from({opt.get()}, picks);

  train_fused(*array2, *opt2, 2, 3);
  train_serial(2, 3);
  train_serial(0, 3);

  // The repacked array's models must equal the surviving serial runs to the
  // last bit — parameters and forward outputs alike.
  Tensor yf = array2->forward(ag::Variable(pack_channel_fused(
                                  std::vector<Tensor>(2, x))))
                  .value();
  for (size_t j = 0; j < keep.size(); ++j) {
    const size_t b = static_cast<size_t>(keep[j]);
    Tensor yb = serial[b]->forward(ag::Variable(x)).value();
    expect_same_bits(
        yb,
        yf.slice(0, static_cast<int64_t>(j), static_cast<int64_t>(j) + 1)
            .reshape(yb.shape()),
        "survivor " + std::to_string(j));
    auto tree = nets[0]->clone();
    array2->store_model(static_cast<int64_t>(j), *tree);
    const auto got = tree->named_parameters();
    const auto want = serial[b]->named_parameters();
    ASSERT_EQ(got.size(), want.size());
    for (size_t i = 0; i < got.size(); ++i)
      expect_same_bits(want[i].second.value(), got[i].second.value(),
                       got[i].first);
  }
}

// ---- per-kind state round-trip ------------------------------------------------

// The per-kind factories live in kind_factories.h, shared with
// step_program_test so every kind with an array form is covered by BOTH
// the state round-trip here and the capture/replay bit-exactness suite.
using tests::KindFactory;
using tests::kind_factories;

// One training-mode forward and backward of `array` against each donor on
// the same per-model data, through a per-model probe: the output, the
// input gradient and every per-model parameter-gradient block must equal
// the donor's bit for bit.
void expect_step_matches_donors(
    const std::string& kind, FusedArray& array,
    const std::vector<std::shared_ptr<nn::Module>>& donors, Rng& rng) {
  const int64_t B = static_cast<int64_t>(donors.size());
  if (kind == "Dropout" || kind == "Dropout2d") {
    // A fused dropout draws one mask stream over the fused tensor, not the
    // B per-model streams, so only its eval-mode identity is comparable.
    array.eval();
    for (const auto& d : donors) d->eval();
  }
  std::vector<Tensor> xs;
  for (int64_t b = 0; b < B; ++b)
    xs.push_back(tests::kind_input(kind, 2, rng));
  ag::Variable xf(pack_channel_fused(xs), /*requires_grad=*/true);
  ag::Variable yf = array.forward(xf);
  const Tensor probe = Tensor::randn(yf.shape(), rng);
  ag::sum_all(ag::mul(yf, ag::constant(probe))).backward();
  const auto gx_per = unpack_channel_fused(xf.grad(), B);
  for (int64_t b = 0; b < B; ++b) {
    const size_t ub = static_cast<size_t>(b);
    const std::string tag = kind + " model " + std::to_string(b);
    ag::Variable xb(xs[ub], /*requires_grad=*/true);
    ag::Variable yb = donors[ub]->forward(xb);
    expect_same_bits(yb.value(),
                     yf.value().slice(0, b, b + 1).reshape(yb.shape()),
                     tag + " y");
    ag::sum_all(ag::mul(yb, ag::constant(probe.slice(0, b, b + 1)
                                             .reshape(yb.shape()))))
        .backward();
    expect_same_bits(xb.grad(), gx_per[ub], tag + " x grad");
    std::map<std::string, ag::Variable> want;
    for (const auto& [name, p] : donors[ub]->named_parameters())
      want.emplace(name, p);
    for (const FusedArray::Step& s : array.steps()) {
      for (const auto& [name, fused_param] : s.module->named_parameters()) {
        const std::string path = s.path.empty() ? name : s.path + "." + name;
        ag::Variable p = want.at(path), fused_p = fused_param;
        ASSERT_TRUE(fused_p.grad().defined()) << tag << " " << path;
        expect_same_bits(p.grad(),
                         unfuse_blocks(fused_p.grad(), B, p.shape())[ub],
                         tag + " " + path + " grad");
      }
    }
  }
}

// Adds the kind_name() of every module in `m`'s tree that has an array
// form at B = 2.
void collect_array_kinds(const nn::Module& m, Rng& rng,
                         std::set<std::string>* kinds) {
  if (m.make_array(2, rng) != nullptr) kinds->insert(m.kind_name());
  for (const auto& [name, child] : m.named_children())
    collect_array_kinds(*child, rng, kinds);
}

TEST(ArrayState, EveryRegisteredKindRoundTripsSaveLoadBitExactly) {
  // Parameterized over every kind with an array form, at B = 1 (where
  // make_array doubles as clone() and the tuner compiles one-model arrays)
  // and at kB: compile B congruent replicas of each kind, train one step of
  // the array and of each donor side by side (fused == serial, forward and
  // backward, bit for bit), then save every model back out into a
  // scrambled clone and demand bit equality for all parameters and
  // buffers. The companion guarantee is at compile time — an array form
  // that misses any per-model tensor throws a structured FusionError
  // (IncompleteArrayStateFailsTheCompile). The coverage guard
  // below checks that every factory builds the kind it is keyed by, and
  // makes a kind that gains an array form fail THIS test until a factory
  // is added: it collects every module of the library's models whose
  // make_array(2) is non-null. The token kinds take ids, not features;
  // models_test and attention_training_test cover their fused == serial
  // steps.
  const std::map<std::string, KindFactory> factories = kind_factories();
  {
    Rng rng(3);
    for (const auto& [kind, make] : factories)
      ASSERT_EQ(make(rng)->kind_name(), kind);
    std::set<std::string> kinds;
    const std::vector<std::shared_ptr<nn::Module>> models = {
        std::make_shared<models::ResNet18>(models::ResNetConfig::tiny(), rng),
        std::make_shared<models::MobileNetV3>(
            models::MobileNetV3Config::tiny(), rng),
        std::make_shared<models::PointNetCls>(models::PointNetConfig::tiny(),
                                              rng),
        std::make_shared<models::DCGANGenerator>(models::DCGANConfig::tiny(),
                                                 rng),
        std::make_shared<models::DCGANDiscriminator>(
            models::DCGANConfig::tiny(), rng),
        std::make_shared<models::TransformerLM>(
            models::TransformerConfig::tiny(), rng),
        std::make_shared<models::BertModel>(models::BertConfig::tiny(), rng),
    };
    for (const auto& m : models) collect_array_kinds(*m, rng, &kinds);
    for (const std::string& kind : kinds) {
      EXPECT_TRUE(factories.count(kind))
          << "kind '" << kind
          << "' has an array form but no round-trip factory — add one to "
             "kind_factories()";
    }
  }
  Rng rng(77);
  FusionOptions opts;
  opts.output_layout = Layout::kModelMajor;
  for (const int64_t B : {int64_t{1}, kB}) {
    for (const auto& [kind, make] : factories) {
      const std::string tag = kind + " B=" + std::to_string(B);
      std::vector<std::shared_ptr<nn::Module>> donors;
      for (int64_t b = 0; b < B; ++b) donors.push_back(make(rng));
      std::shared_ptr<FusedArray> array;
      ASSERT_NO_THROW(array = FusionPlan(B, opts).compile(donors, rng))
          << tag;
      if (!tests::takes_tokens(kind))
        expect_step_matches_donors(kind, *array, donors, rng);
      for (int64_t b = 0; b < B; ++b) {
        const size_t ub = static_cast<size_t>(b);
        std::shared_ptr<nn::Module> out = donors[ub]->clone();
        ASSERT_NE(out, nullptr) << tag << " has no clone support";
        for (auto& [name, p] : out->named_parameters())
          p.mutable_value().fill_(-7.5f);
        for (auto& [name, t] : nn::named_buffers_recursive(*out)) {
          Tensor handle = t;
          handle.fill_(-7.5f);
        }
        array->store_model(b, *out);
        const std::string model = " model " + std::to_string(b);
        const auto wp = donors[ub]->named_parameters();
        const auto gp = out->named_parameters();
        ASSERT_EQ(wp.size(), gp.size()) << tag;
        for (size_t i = 0; i < wp.size(); ++i)
          expect_same_bits(wp[i].second.value(), gp[i].second.value(),
                           tag + " param " + wp[i].first + model);
        const auto wb = nn::named_buffers_recursive(*donors[ub]);
        const auto gb = nn::named_buffers_recursive(*out);
        ASSERT_EQ(wb.size(), gb.size()) << tag;
        for (size_t i = 0; i < wb.size(); ++i)
          expect_same_bits(wb[i].second, gb[i].second,
                           tag + " buffer " + wb[i].first + model);
      }
    }
  }
}

TEST(ArrayState, IncompleteArrayStateFailsTheCompile) {
  // A kind whose array form leaves part of its state at per-model width
  // (a child built without B) must be rejected at lowering time with a
  // structured diagnostic.
  struct HalfMapped : nn::Module {
    ag::Variable w;
    HalfMapped() {
      w = register_parameter("w", Tensor::zeros({2}));  // forgets B
    }
    ag::Variable forward(const ag::Variable& x) override { return x; }
  };
  struct PlainPair : nn::Module {
    PlainPair() { register_parameter("w", Tensor::zeros({2})); }
    ag::Variable forward(const ag::Variable& x) override { return x; }
    std::string kind_name() const override { return "test::PlainPair"; }
    std::shared_ptr<nn::Module> make_array(int64_t, Rng&) const override {
      return std::make_shared<HalfMapped>();
    }
  };
  Rng rng(5);
  std::vector<std::shared_ptr<nn::Module>> nets;
  for (int64_t b = 0; b < kB; ++b) nets.push_back(std::make_shared<PlainPair>());
  try {
    FusionPlan(kB).compile(nets, rng);
    FAIL() << "expected FusionError";
  } catch (const FusionError& e) {
    EXPECT_NE(e.diagnostic.reason.find("state"), std::string::npos);
    EXPECT_NE(e.diagnostic.reason.find("'w'"), std::string::npos);
  }
}

// ---- optimizer-state repack, every update rule ------------------------------

// One update rule, as a fused optimizer over B models and as the serial
// optimizer of one model. SGD runs with momentum so that it has state to
// carry.
struct RepackRule {
  std::string name;
  double base_lr;
  std::function<std::unique_ptr<FusedOptimizer>(std::vector<FusedParam>,
                                                int64_t, HyperVec)>
      fused;
  std::function<std::unique_ptr<FusedOptimizer>(std::vector<ag::Variable>,
                                                double)>
      serial;
};

void PrintTo(const RepackRule& rule, std::ostream* os) { *os << rule.name; }

std::vector<RepackRule> repack_rules() {
  return {
      {"SGD", 0.05,
       [](std::vector<FusedParam> p, int64_t B, HyperVec lr)
           -> std::unique_ptr<FusedOptimizer> {
         return std::make_unique<FusedSGD>(
             std::move(p), B,
             FusedSGD::Options{.lr = std::move(lr), .momentum = {0.9}});
       },
       [](std::vector<ag::Variable> p,
          double lr) -> std::unique_ptr<FusedOptimizer> {
         return std::make_unique<nn::SGD>(
             std::move(p), nn::SGD::Options{.lr = lr, .momentum = 0.9});
       }},
      {"Adam", 1e-2,
       [](std::vector<FusedParam> p, int64_t B, HyperVec lr)
           -> std::unique_ptr<FusedOptimizer> {
         return std::make_unique<FusedAdam>(
             std::move(p), B, FusedAdam::Options{.lr = std::move(lr)});
       },
       [](std::vector<ag::Variable> p,
          double lr) -> std::unique_ptr<FusedOptimizer> {
         return std::make_unique<nn::Adam>(std::move(p),
                                           nn::Adam::Options{.lr = lr});
       }},
      {"Adadelta", 1.0,
       [](std::vector<FusedParam> p, int64_t B, HyperVec lr)
           -> std::unique_ptr<FusedOptimizer> {
         return std::make_unique<FusedAdadelta>(
             std::move(p), B, FusedAdadelta::Options{.lr = std::move(lr)});
       },
       [](std::vector<ag::Variable> p,
          double lr) -> std::unique_ptr<FusedOptimizer> {
         return std::make_unique<nn::Adadelta>(
             std::move(p), nn::Adadelta::Options{.lr = lr});
       }},
  };
}

class RepackState : public ::testing::TestWithParam<RepackRule> {
 protected:
  // One training step of a fused array on the shared batch: the fused
  // per-model-mean CE, so each model's gradient equals its serial twin's.
  void step(FusedArray& a, FusedOptimizer& o) {
    const int64_t B = o.array_size();
    Tensor lb({B, 5});
    for (int64_t b = 0; b < B; ++b)
      for (int64_t n = 0; n < 5; ++n) lb.at({b, n}) = y_.at({n});
    o.zero_grad();
    ag::Variable logits = a.forward(ag::Variable(
        pack_channel_fused(std::vector<Tensor>(static_cast<size_t>(B), x_))));
    fused_cross_entropy(logits, lb, ag::Reduction::kMean).backward();
    o.step();
  }
  void step(nn::Module& net, FusedOptimizer& o) {
    o.zero_grad();
    ag::cross_entropy(net.forward(ag::Variable(x_)), y_, ag::Reduction::kMean)
        .backward();
    o.step();
  }
  std::unique_ptr<FusedOptimizer> fused(const RepackRule& rule,
                                        FusedArray& a, HyperVec lr) {
    const int64_t B = static_cast<int64_t>(lr.size());
    return rule.fused(collect_fused_parameters(a, B), B, std::move(lr));
  }

  Rng rng_{53};
  Tensor x_ = Tensor::randn({5, 6}, rng_);
  Tensor y_ = Tensor::from_data({5}, {0.f, 3.f, 1.f, 2.f, 1.f});
  FusionOptions opts_ = [] {
    FusionOptions o;
    o.output_layout = Layout::kModelMajor;
    return o;
  }();
};

// The chunked-rung merge for every rule: two B = 3 arrays train, four
// survivors from both merge into one B = 4 array through repack_multi and
// repack_state_from, and the merged array keeps training bit-exactly
// against the six serial twins: its logits and every parameter.
TEST_P(RepackState, SurvivorsOfTwoArraysContinueBitExactly) {
  const RepackRule& rule = GetParam();
  std::vector<std::shared_ptr<nn::Module>> nets, serial;
  std::vector<std::unique_ptr<FusedOptimizer>> serial_opts;
  HyperVec lrs;
  for (size_t b = 0; b < 6; ++b) {
    lrs.push_back(rule.base_lr * static_cast<double>(b + 1) / 6.0);
    nets.push_back(mlp(6, 10, 4, rng_));
    serial.push_back(nets.back()->clone());
    serial_opts.push_back(rule.serial(serial.back()->parameters(), lrs[b]));
  }
  auto arrayA =
      FusionPlan(kB, opts_).compile({nets[0], nets[1], nets[2]}, rng_);
  auto arrayB =
      FusionPlan(kB, opts_).compile({nets[3], nets[4], nets[5]}, rng_);
  auto optA = fused(rule, *arrayA, {lrs[0], lrs[1], lrs[2]});
  auto optB = fused(rule, *arrayB, {lrs[3], lrs[4], lrs[5]});
  for (int s = 0; s < 4; ++s) {
    step(*arrayA, *optA);
    step(*arrayB, *optB);
    for (size_t b = 0; b < 6; ++b) step(*serial[b], *serial_opts[b]);
  }

  // Survivors: models 2 and 1 of array B interleaved with models 0 and 2
  // of array A, in an array of another size than either source.
  const std::vector<RepackPick> picks = {{1, 2}, {0, 0}, {1, 1}, {0, 2}};
  const std::vector<size_t> survivors = {5, 0, 4, 2};
  const int64_t B2 = static_cast<int64_t>(picks.size());
  auto merged = FusionPlan(B2, opts_).repack_multi(
      {arrayA.get(), arrayB.get()}, picks, *nets[0], rng_);
  auto opt2 = fused(rule, *merged, {lrs[5], lrs[0], lrs[4], lrs[2]});
  opt2->repack_state_from({optA.get(), optB.get()}, picks);
  EXPECT_EQ(opt2->steps(), 4);

  for (int s = 0; s < 3; ++s) {
    step(*merged, *opt2);
    for (size_t b : survivors) step(*serial[b], *serial_opts[b]);
  }
  const Tensor logits =
      merged
          ->forward(ag::Variable(pack_channel_fused(
              std::vector<Tensor>(static_cast<size_t>(B2), x_))))
          .value();
  for (size_t j = 0; j < survivors.size(); ++j) {
    const int64_t jb = static_cast<int64_t>(j);
    const Tensor yb = serial[survivors[j]]->forward(ag::Variable(x_)).value();
    expect_same_bits(yb, logits.slice(0, jb, jb + 1).reshape(yb.shape()),
                     "survivor " + std::to_string(j) + " logits");
    auto tree = nets[0]->clone();
    merged->store_model(jb, *tree);
    const auto got = tree->named_parameters();
    const auto want = serial[survivors[j]]->named_parameters();
    ASSERT_EQ(got.size(), want.size());
    for (size_t i = 0; i < got.size(); ++i)
      expect_same_bits(want[i].second.value(), got[i].second.value(),
                       "survivor " + std::to_string(j) + " " + got[i].first);
  }
}

// Sources that cannot merge are rejected: another update rule, unequal step
// counts, and state defined in one source but not in the other.
TEST_P(RepackState, RejectsSourcesThatCannotMerge) {
  const RepackRule& rule = GetParam();
  std::vector<std::shared_ptr<nn::Module>> netsA, netsB;
  for (int64_t b = 0; b < 2; ++b) {
    netsA.push_back(mlp(6, 10, 4, rng_));
    netsB.push_back(mlp(6, 10, 4, rng_));
  }
  auto arrayA = FusionPlan(2, opts_).compile(netsA, rng_);
  auto arrayB = FusionPlan(2, opts_).compile(netsB, rng_);
  const HyperVec lr = {rule.base_lr};
  const std::vector<RepackPick> picks = {{0, 0}, {1, 1}};
  auto merged = FusionPlan(2, opts_).repack_multi(
      {arrayA.get(), arrayB.get()}, picks, *netsA[0], rng_);
  auto expect_rejected = [&](const FusedOptimizer& a, const FusedOptimizer& b,
                             const std::string& why) {
    auto dst = fused(rule, *merged, {lr[0], lr[0]});
    try {
      dst->repack_state_from({&a, &b}, picks);
      FAIL() << "expected a repack error: " << why;
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find(why), std::string::npos)
          << e.what();
    }
  };

  auto optA = fused(rule, *arrayA, {lr[0], lr[0]});
  step(*arrayA, *optA);
  for (const RepackRule& other : repack_rules()) {
    if (other.name == rule.name) continue;
    auto optB = fused(other, *arrayB, {other.base_lr, other.base_lr});
    step(*arrayB, *optB);
    expect_rejected(*optA, *optB, "source runs " + other.name);
  }

  auto ahead = fused(rule, *arrayB, {lr[0], lr[0]});
  step(*arrayB, *ahead);
  step(*arrayB, *ahead);
  expect_rejected(*optA, *ahead, "step count");

  // A step without gradients counts but leaves every state lazy.
  auto fresh = FusionPlan(2, opts_).compile(netsB, rng_);
  auto lazy = fused(rule, *fresh, {lr[0], lr[0]});
  lazy->zero_grad();
  lazy->step();
  ASSERT_EQ(lazy->steps(), optA->steps());
  expect_rejected(*optA, *lazy, "defined in some sources only");
}

INSTANTIATE_TEST_SUITE_P(
    EveryRule, RepackState, ::testing::ValuesIn(repack_rules()),
    [](const ::testing::TestParamInfo<RepackRule>& info) {
      return info.param.name;
    });

TEST(FusionPlan, DescribeListsUnitsAndLayouts) {
  Rng rng(15);
  std::vector<std::shared_ptr<nn::Module>> nets;
  for (int64_t b = 0; b < kB; ++b) nets.push_back(mlp(4, 6, 2, rng));
  FusionOptions opts;
  opts.fuse_mask = {true, true, false};
  auto array = FusionPlan(kB, opts).compile(nets, rng);
  const std::string d = array->describe();
  EXPECT_NE(d.find("unit 0"), std::string::npos);
  EXPECT_NE(d.find("Linear"), std::string::npos);
  EXPECT_NE(d.find("unfused"), std::string::npos);
  EXPECT_NE(d.find("model-major"), std::string::npos);
}

}  // namespace
}  // namespace hfta::fused
