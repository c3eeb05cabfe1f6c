// Module::clone() coverage: structural congruence of the clone, weight and
// buffer equality without shared storage, train/eval mode carry-over, deep
// nesting (Sequential stacks, ResNet BasicBlock, full models), and the
// composite kinds the fusion planner lowers, cloned through the Module base.
#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <vector>

#include "hfta/fusion.h"
#include "models/bert.h"
#include "models/mobilenetv3.h"
#include "models/pointnet.h"
#include "models/resnet.h"
#include "models/transformer.h"
#include "nn/layers.h"
#include "nn/norm.h"
#include "tensor/ops.h"

#include "same_bits.h"

namespace hfta::nn {
namespace {

// Structural congruence via the planner's own congruence checker: a clone
// and its source must be fusible as a 2-model array.
void expect_congruent(const Module& a, const Module& b) {
  auto diags = fused::FusionPlan(2).analyze({&a, &b});
  for (const auto& d : diags) ADD_FAILURE() << d.str();
}

void expect_equal_state(const Module& a, const Module& b) {
  auto pa = a.named_parameters();
  auto pb = b.named_parameters();
  ASSERT_EQ(pa.size(), pb.size());
  for (size_t i = 0; i < pa.size(); ++i) {
    EXPECT_EQ(pa[i].first, pb[i].first);
    tests::expect_same_bits(pa[i].second.value(), pb[i].second.value(),
                            pa[i].first);
  }
  auto ba = named_buffers_recursive(a);
  auto bb = named_buffers_recursive(b);
  ASSERT_EQ(ba.size(), bb.size());
  for (size_t i = 0; i < ba.size(); ++i)
    tests::expect_same_bits(ba[i].second, bb[i].second, ba[i].first);
}

// Mutating every parameter/buffer of `m` must leave `other` untouched.
void expect_independent(Module& m, const Module& other) {
  std::vector<Tensor> before;
  for (const auto& p : other.parameters()) before.push_back(p.value().clone());
  for (auto& p : m.parameters()) {
    Tensor v = p.mutable_value();
    v.add_(Tensor::ones(v.shape()), 1.f);
  }
  for (auto& [name, buf] : named_buffers_recursive(m))
    buf.add_(Tensor::ones(buf.shape()), 1.f);
  const auto after = other.parameters();
  for (size_t i = 0; i < before.size(); ++i)
    EXPECT_EQ(ops::max_abs_diff(before[i], after[i].value()), 0.f)
        << "parameter " << i << " of the original changed";
}

TEST(ModuleClone, LinearCongruentEqualAndIndependent) {
  Rng rng(1);
  Linear src(6, 4, true, rng);
  std::shared_ptr<Module> c = src.clone();
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->kind_name(), "Linear");
  expect_congruent(src, *c);
  expect_equal_state(src, *c);
  expect_independent(*c, src);

  Tensor x = Tensor::randn({3, 6}, rng);
  Linear src2(6, 4, true, rng);
  auto c2 = src2.clone();
  EXPECT_EQ(ops::max_abs_diff(src2.forward(ag::Variable(x)).value(),
                              c2->forward(ag::Variable(x)).value()),
            0.f);
}

TEST(ModuleClone, SequentialConvBatchNormDeepClone) {
  Rng rng(2);
  auto net = std::make_shared<Sequential>();
  net->push_back("conv", std::make_shared<Conv2d>(3, 8, 3, 1, 1, 1, true,
                                                  rng));
  net->push_back("bn", std::make_shared<BatchNorm2d>(8));
  net->push_back("relu", std::make_shared<ReLU>());
  net->push_back("flatten", std::make_shared<Flatten>());
  net->push_back("fc", std::make_shared<Linear>(8 * 6 * 6, 5, true, rng));

  // Advance BN running stats so buffers are non-trivial.
  net->forward(ag::Variable(Tensor::randn({2, 3, 6, 6}, rng)));

  std::shared_ptr<Module> c = net->clone();
  ASSERT_NE(c, nullptr);
  expect_congruent(*net, *c);
  expect_equal_state(*net, *c);

  Tensor x = Tensor::randn({2, 3, 6, 6}, rng);
  net->eval();
  c->eval();
  EXPECT_EQ(ops::max_abs_diff(net->forward(ag::Variable(x)).value(),
                              c->forward(ag::Variable(x)).value()),
            0.f);
  expect_independent(*c, *net);
}

TEST(ModuleClone, EvalModeCarriesOver) {
  Rng rng(3);
  auto net = std::make_shared<Sequential>();
  net->push_back("fc", std::make_shared<Linear>(4, 4, true, rng));
  net->push_back("drop", std::make_shared<Dropout>(0.5f));
  net->eval();
  std::shared_ptr<Module> c = net->clone();
  ASSERT_NE(c, nullptr);
  EXPECT_FALSE(c->is_training());
  Tensor x = Tensor::randn({2, 4}, rng);
  EXPECT_EQ(ops::max_abs_diff(net->forward(ag::Variable(x)).value(),
                              c->forward(ag::Variable(x)).value()),
            0.f);
}

TEST(ModuleClone, DropoutCloneReplaysTheSameMaskStream) {
  // A dropout's clone copies the mask rng's CURRENT state, so clone and
  // source draw identical masks from the clone point on.
  Dropout drop(0.5f);
  Dropout2d drop2d(0.5f);
  for (Module* src : std::vector<Module*>{&drop, &drop2d}) {
    const std::string kind = src->kind_name();
    src->forward(ag::Variable(Tensor::ones({2, 4, 2, 2})));  // advance
    auto c = src->clone();
    ASSERT_NE(c, nullptr) << kind;
    Tensor x = Tensor::ones({2, 8, 4, 4});
    for (int i = 0; i < 3; ++i) {
      EXPECT_EQ(ops::max_abs_diff(src->forward(ag::Variable(x)).value(),
                                  c->forward(ag::Variable(x)).value()),
                0.f)
          << kind << " draw " << i;
    }
  }
}

TEST(ModuleClone, ReconstructedCompositeCarriesDropoutStream) {
  // Composite clones rebuild via their constructor (fresh Dropout at stream
  // position 0), so copy_state must re-sync the mask rng streams — clone
  // and source have to replay identical masks even mid-stream.
  Rng rng(40);
  models::PointNetConfig cfg = models::PointNetConfig::tiny();
  cfg.dropout_p = 0.5f;
  models::PointNetCls src(cfg, rng);
  Tensor warm = Tensor::randn({2, 3, cfg.num_points}, rng);
  src.forward(ag::Variable(warm));  // advance the dropout stream
  auto c = src.clone();
  ASSERT_NE(c, nullptr);
  Tensor x = Tensor::randn({2, 3, cfg.num_points}, rng);
  for (int i = 0; i < 2; ++i) {
    EXPECT_EQ(ops::max_abs_diff(src.forward(ag::Variable(x)).value(),
                                c->forward(ag::Variable(x)).value()),
              0.f)
        << "draw " << i;
  }
}

TEST(ModuleClone, BasicBlockClonesThroughTheBase) {
  // A composite kind the planner lowers: an unfused unit clones it through
  // the virtual Module::clone(), so the base-class call must reach
  // BasicBlock's own override.
  Rng rng(5);
  models::BasicBlock src(4, 8, 2, rng);  // strided: includes the down path
  src.forward(ag::Variable(Tensor::randn({2, 4, 8, 8}, rng)));  // BN stats
  const Module& as_base = src;
  std::shared_ptr<Module> c = as_base.clone();
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->kind_name(), "models::BasicBlock");
  expect_congruent(src, *c);
  expect_equal_state(src, *c);

  src.eval();
  c->eval();
  Tensor x = Tensor::randn({2, 4, 8, 8}, rng);
  EXPECT_EQ(ops::max_abs_diff(src.forward(ag::Variable(x)).value(),
                              c->forward(ag::Variable(x)).value()),
            0.f);
  expect_independent(*c, src);
}

TEST(ModuleClone, BlocksAtBTimesWidthCloneAtTheSameWidth) {
  // A layer or block built with B > 1 is the fused form of B of them (what
  // the planner lowers B of them to). Its clone rebuilds at the same B, bit
  // for bit, and both report the per-model config.
  Rng rng(9);
  const int64_t B = 3;
  const models::MobileNetV3Config mcfg = models::MobileNetV3Config::tiny();
  const models::BneckSpec& se_row = models::mobilenetv3_large_table()[3];
  ASSERT_TRUE(se_row.se);
  models::PointNetConfig pcfg = models::PointNetConfig::tiny();
  pcfg.input_transform = true;
  struct Case {
    std::shared_ptr<Module> wide, plain;
    Shape input;  // the wide module's input; empty = no forward
  };
  const std::vector<Case> cases = {
      {std::make_shared<models::BasicBlock>(4, 8, 2, rng, B),
       std::make_shared<models::BasicBlock>(4, 8, 2, rng), {2, B * 4, 8, 8}},
      {std::make_shared<models::Bneck>(8, se_row, mcfg, rng, B),
       std::make_shared<models::Bneck>(8, se_row, mcfg, rng),
       {2, B * 8, 6, 6}},
      {std::make_shared<Linear>(4, 5, true, rng, B),
       std::make_shared<Linear>(4, 5, true, rng), {B, 2, 4}},
      {std::make_shared<LayerNorm>(Shape{6}, 1e-5f, rng, B),
       std::make_shared<LayerNorm>(Shape{6}, 1e-5f, rng), {B, 2, 6}},
      {std::make_shared<Embedding>(7, 4, rng, B),
       std::make_shared<Embedding>(7, 4, rng), {}},
      {std::make_shared<models::TransformerEncoderLayer>(8, 2, 16, 0.f, "gelu",
                                                         rng, B),
       std::make_shared<models::TransformerEncoderLayer>(8, 2, 16, 0.f, "gelu",
                                                         rng),
       {B, 2, 5, 8}},
      {std::make_shared<models::PointNetTrunk>(pcfg, rng, B),
       std::make_shared<models::PointNetTrunk>(pcfg, rng),
       {2, B * 3, pcfg.num_points}},
  };
  for (const Case& c : cases) {
    const std::string kind = c.plain->kind_name();
    if (!c.input.empty())  // BN stats
      c.wide->forward(ag::Variable(Tensor::randn(c.input, rng)));
    std::shared_ptr<Module> copy = c.wide->clone();
    ASSERT_NE(copy, nullptr) << kind;
    EXPECT_EQ(copy->kind_name(), kind);
    EXPECT_EQ(copy->num_parameters(), B * c.plain->num_parameters()) << kind;
    expect_equal_state(*c.wide, *copy);
    for (const Module* m : {c.wide.get(), copy.get()}) {
      EXPECT_EQ(m->config().entries, c.plain->config().entries) << kind;
    }
    expect_independent(*copy, *c.wide);
  }
}

TEST(ModuleClone, RegisteredEncoderLayerClonesThroughTheBase) {
  Rng rng(6);
  models::TransformerEncoderLayer src(8, 2, 16, 0.f, "gelu", rng);
  const Module& as_base = src;
  std::shared_ptr<Module> c = as_base.clone();
  ASSERT_NE(c, nullptr);
  expect_congruent(src, *c);
  expect_equal_state(src, *c);
  Tensor x = Tensor::randn({2, 5, 8}, rng);
  EXPECT_EQ(ops::max_abs_diff(src.forward(ag::Variable(x)).value(),
                              c->forward(ag::Variable(x)).value()),
            0.f);
}

TEST(ModuleClone, DeepNestedModelsClone) {
  Rng rng(7);
  // ResNet-18: Sequential of composite blocks of conv/bn leaves.
  models::ResNetConfig rcfg = models::ResNetConfig::tiny();
  rcfg.image_size = 8;
  models::ResNet18 resnet(rcfg, rng);
  auto rc = resnet.clone();
  ASSERT_NE(rc, nullptr);
  expect_equal_state(resnet, *rc);
  resnet.eval();
  rc->eval();
  Tensor x = Tensor::randn({2, 3, 8, 8}, rng);
  EXPECT_EQ(ops::max_abs_diff(resnet.forward(ag::Variable(x)).value(),
                              rc->forward(ag::Variable(x)).value()),
            0.f);
  expect_independent(*rc, resnet);

  // PointNet trunk: input-transform STN plus the Conv1d/BN stack.
  models::PointNetConfig pcfg = models::PointNetConfig::tiny();
  pcfg.input_transform = true;
  models::PointNetTrunk trunk(pcfg, rng);
  trunk.forward(ag::Variable(Tensor::randn({2, 3, pcfg.num_points}, rng)));
  std::shared_ptr<Module> tc = static_cast<const Module&>(trunk).clone();
  ASSERT_NE(tc, nullptr);
  EXPECT_EQ(tc->kind_name(), "models::PointNetTrunk");
  expect_congruent(trunk, *tc);
  expect_equal_state(trunk, *tc);
  trunk.eval();
  tc->eval();
  Tensor pts = Tensor::randn({2, 3, pcfg.num_points}, rng);
  EXPECT_EQ(ops::max_abs_diff(trunk.forward(ag::Variable(pts)).value(),
                              tc->forward(ag::Variable(pts)).value()),
            0.f);
  expect_independent(*tc, trunk);

  // Transformer LM: embedding, encoder stack and decoder, driven through
  // forward_tokens.
  models::TransformerLM lm(models::TransformerConfig::tiny(), rng);
  std::shared_ptr<Module> lc = static_cast<const Module&>(lm).clone();
  ASSERT_NE(lc, nullptr);
  EXPECT_EQ(lc->kind_name(), "models::TransformerLM");
  expect_congruent(lm, *lc);
  expect_equal_state(lm, *lc);
  Tensor lm_toks({2, lm.cfg.seq_len});
  for (int64_t i = 0; i < lm_toks.numel(); ++i)
    lm_toks.data()[i] = static_cast<float>(rng.uniform_int(lm.cfg.vocab));
  EXPECT_EQ(ops::max_abs_diff(
                lm.forward_tokens(lm_toks).value(),
                static_cast<models::TransformerLM&>(*lc).forward_tokens(lm_toks)
                    .value()),
            0.f);
  expect_independent(*lc, lm);

  // MobileNetV3: bnecks with depthwise convs and squeeze-excite.
  models::MobileNetV3 mobile(models::MobileNetV3Config::tiny(), rng);
  auto mc = mobile.clone();
  ASSERT_NE(mc, nullptr);
  expect_equal_state(mobile, *mc);

  // BERT: embeddings + encoder stack, driven through forward_tokens.
  models::BertModel bert(models::BertConfig::tiny(), rng);
  auto bc = bert.clone();
  ASSERT_NE(bc, nullptr);
  expect_equal_state(bert, *bc);
  Tensor toks({2, bert.cfg.seq_len});
  for (int64_t i = 0; i < toks.numel(); ++i)
    toks.data()[i] = static_cast<float>(rng.uniform_int(bert.cfg.vocab));
  EXPECT_EQ(ops::max_abs_diff(
                bert.forward_tokens(toks).value(),
                static_cast<models::BertModel&>(*bc).forward_tokens(toks)
                    .value()),
            0.f);
}

class Opaque : public Module {
 public:
  Opaque(Rng& rng) {
    w = register_parameter("w", Tensor::randn({2, 2}, rng));
  }
  ag::Variable forward(const ag::Variable& x) override { return x; }
  std::string kind_name() const override { return "test::Opaque"; }
  ag::Variable w;
};

TEST(ModuleClone, UnsupportedStatefulKindReturnsNull) {
  Rng rng(8);
  Opaque m(rng);
  EXPECT_EQ(m.clone(), nullptr);
  EXPECT_TRUE(has_state(m));
}

// A tensor "a" and one more whose name the caller picks.
class NamedPair : public Module {
 public:
  NamedPair(const std::string& name, float value) {
    register_parameter("a", Tensor::full({2}, value));
    register_parameter(name, Tensor::full({3}, value));
  }
  ag::Variable forward(const ag::Variable& x) override { return x; }
};

TEST(ModuleClone, CopyStateRejectsTreesThatDifferInOnePath) {
  // Same counts and shapes, one path renamed: a positional copy would pair
  // 'w' with 'v' silently. copy_state is the path walk at B = 1, so it
  // throws naming the tensor without a twin, in both directions, and
  // writes nothing.
  NamedPair src("w", 1.f), dst("v", 2.f);
  for (const auto& [from, to, name] :
       {std::make_tuple(&src, &dst, "v"), std::make_tuple(&dst, &src, "w")}) {
    try {
      copy_state(*from, *to);
      ADD_FAILURE() << "expected an Error naming '" << name << "'";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find(std::string("'") + name + "'"),
                std::string::npos)
          << e.what();
    }
  }
  EXPECT_EQ(src.named_parameters()[0].second.value().at({0}), 1.f);
  EXPECT_EQ(dst.named_parameters()[0].second.value().at({0}), 2.f);
}

}  // namespace
}  // namespace hfta::nn
