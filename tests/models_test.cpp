// Model-level fusion equivalence: for every one of the paper's six model
// families, the fused array of B models with distinct weights must produce
// per-model outputs bitwise identical to the B plain models.
#include <gtest/gtest.h>

#include "hfta/fused_ops.h"
#include "models/bert.h"
#include "models/dcgan.h"
#include "models/mobilenetv3.h"
#include "models/pointnet.h"
#include "models/resnet.h"
#include "models/transformer.h"
#include "tensor/ops.h"

#include "same_bits.h"

namespace hfta::models {
namespace {

using tests::expect_same_bits;

constexpr int64_t kB = 3;

// The planner-compiled array of the B per-model graphs, model-major output.
std::shared_ptr<fused::FusedArray> compile_model_major(
    const std::vector<std::shared_ptr<nn::Module>>& nets, Rng& rng,
    std::vector<bool> fuse_mask = {}) {
  fused::FusionOptions opts;
  opts.output_layout = fused::Layout::kModelMajor;
  opts.fuse_mask = std::move(fuse_mask);
  return fused::FusionPlan(kB, opts).compile(nets, rng);
}

TEST(PointNetModel, ClsForwardShapes) {
  Rng rng(1);
  PointNetConfig cfg = PointNetConfig::tiny();
  PointNetCls model(cfg, rng);
  ag::Variable x(Tensor::randn({2, 3, cfg.num_points}, rng));
  EXPECT_EQ(model.forward(x).shape(), (Shape{2, cfg.num_classes}));
}

TEST(PointNetModel, FusedClsMatchesSerial) {
  Rng rng(2);
  PointNetConfig cfg = PointNetConfig::tiny();
  std::vector<std::shared_ptr<PointNetCls>> plain;
  std::vector<std::shared_ptr<nn::Module>> nets;
  std::vector<Tensor> xs;
  for (int64_t b = 0; b < kB; ++b) {
    plain.push_back(std::make_shared<PointNetCls>(cfg, rng));
    nets.push_back(plain.back()->net);
    xs.push_back(Tensor::randn({4, 3, cfg.num_points}, rng));
  }
  auto fused = compile_model_major(nets, rng);
  Tensor yf =
      fused->forward(ag::Variable(fused::pack_channel_fused(xs))).value();
  for (int64_t b = 0; b < kB; ++b) {
    Tensor yb = plain[static_cast<size_t>(b)]
                    ->forward(ag::Variable(xs[static_cast<size_t>(b)]))
                    .value();
    expect_same_bits(yb, yf.slice(0, b, b + 1).reshape(yb.shape()),
                     "model " + std::to_string(b));
  }
}

TEST(PointNetModel, FusedClsWithInputTransformMatchesSerial) {
  Rng rng(3);
  PointNetConfig cfg = PointNetConfig::tiny();
  cfg.input_transform = true;
  std::vector<std::shared_ptr<PointNetCls>> plain;
  std::vector<std::shared_ptr<nn::Module>> nets;
  std::vector<Tensor> xs;
  for (int64_t b = 0; b < kB; ++b) {
    plain.push_back(std::make_shared<PointNetCls>(cfg, rng));
    nets.push_back(plain.back()->net);
    xs.push_back(Tensor::randn({2, 3, cfg.num_points}, rng));
  }
  auto fused = compile_model_major(nets, rng);
  Tensor yf =
      fused->forward(ag::Variable(fused::pack_channel_fused(xs))).value();
  for (int64_t b = 0; b < kB; ++b) {
    Tensor yb = plain[static_cast<size_t>(b)]
                    ->forward(ag::Variable(xs[static_cast<size_t>(b)]))
                    .value();
    expect_same_bits(yb, yf.slice(0, b, b + 1).reshape(yb.shape()),
                     "model " + std::to_string(b));
  }
}

TEST(PointNetModel, FusedSegMatchesSerial) {
  Rng rng(4);
  PointNetConfig cfg = PointNetConfig::tiny();
  PointNetSeg fused(cfg, rng, kB);
  std::vector<std::shared_ptr<PointNetSeg>> plain;
  std::vector<Tensor> xs;
  for (int64_t b = 0; b < kB; ++b) {
    plain.push_back(std::make_shared<PointNetSeg>(cfg, rng));
    hfta::fused::load_model(fused, kB, b, *plain.back());
    xs.push_back(Tensor::randn({2, 3, cfg.num_points}, rng));
  }
  Tensor yf =
      fused.forward(ag::Variable(fused::pack_channel_fused(xs))).value();
  auto per = fused::unpack_channel_fused(yf, kB);
  for (int64_t b = 0; b < kB; ++b) {
    Tensor yb = plain[static_cast<size_t>(b)]
                    ->forward(ag::Variable(xs[static_cast<size_t>(b)]))
                    .value();
    expect_same_bits(yb, per[static_cast<size_t>(b)],
                     "model " + std::to_string(b));
  }
}

TEST(DCGANModel, GeneratorShapesAndRange) {
  Rng rng(5);
  DCGANConfig cfg = DCGANConfig::tiny();
  DCGANGenerator gen(cfg, rng);
  ag::Variable z(Tensor::randn({2, cfg.nz, 1, 1}, rng));
  Tensor img = gen.forward(z).value();
  EXPECT_EQ(img.shape(), (Shape{2, cfg.nc, cfg.image_size, cfg.image_size}));
  for (int64_t i = 0; i < img.numel(); ++i) {
    EXPECT_GE(img.data()[i], -1.f);
    EXPECT_LE(img.data()[i], 1.f);
  }
  DCGANDiscriminator disc(cfg, rng);
  EXPECT_EQ(disc.forward(ag::Variable(img)).shape(), (Shape{2}));
}

TEST(DCGANModel, FusedGeneratorAndDiscriminatorMatchSerial) {
  Rng rng(6);
  DCGANConfig cfg = DCGANConfig::tiny();
  std::vector<std::shared_ptr<DCGANGenerator>> gens;
  std::vector<std::shared_ptr<DCGANDiscriminator>> discs;
  std::vector<std::shared_ptr<nn::Module>> gnets, dnets;
  std::vector<Tensor> zs;
  for (int64_t b = 0; b < kB; ++b) {
    gens.push_back(std::make_shared<DCGANGenerator>(cfg, rng));
    discs.push_back(std::make_shared<DCGANDiscriminator>(cfg, rng));
    gnets.push_back(gens.back()->net);
    dnets.push_back(discs.back()->net);
    zs.push_back(Tensor::randn({2, cfg.nz, 1, 1}, rng));
  }
  auto fgen = fused::FusionPlan(kB).compile(gnets, rng);
  auto fdisc = compile_model_major(dnets, rng);
  Tensor imgs =
      fgen->forward(ag::Variable(fused::pack_channel_fused(zs))).value();
  Tensor logits = fdisc->forward(ag::Variable(imgs)).value();  // [B, N, 1]
  auto img_per = fused::unpack_channel_fused(imgs, kB);
  for (int64_t b = 0; b < kB; ++b) {
    const size_t ub = static_cast<size_t>(b);
    Tensor img_b = gens[ub]->forward(ag::Variable(zs[ub])).value();
    expect_same_bits(img_b, img_per[ub], "generator " + std::to_string(b));
    Tensor logit_b = discs[ub]->forward(ag::Variable(img_b)).value();
    expect_same_bits(logit_b, logits.slice(0, b, b + 1).reshape({2}),
                     "discriminator " + std::to_string(b));
  }
}

// How many of `net`'s direct children have a name starting with `prefix`.
size_t count_children(const nn::Module& net, const std::string& prefix) {
  size_t n = 0;
  for (const auto& [name, child] : net.named_children())
    n += name.rfind(prefix, 0) == 0;
  return n;
}

TEST(ResNetModel, ForwardShapes) {
  Rng rng(7);
  ResNetConfig cfg = ResNetConfig::tiny();
  ResNet18 model(cfg, rng);
  EXPECT_EQ(count_children(*model.net, "layer"), 8u);
  ag::Variable x(Tensor::randn({2, 3, cfg.image_size, cfg.image_size}, rng));
  EXPECT_EQ(model.forward(x).shape(), (Shape{2, cfg.num_classes}));
}

TEST(ResNetModel, FusedMatchesSerial) {
  Rng rng(8);
  ResNetConfig cfg = ResNetConfig::tiny();
  std::vector<std::shared_ptr<ResNet18>> plain;
  std::vector<std::shared_ptr<nn::Module>> nets;
  std::vector<Tensor> xs;
  for (int64_t b = 0; b < kB; ++b) {
    plain.push_back(std::make_shared<ResNet18>(cfg, rng));
    nets.push_back(plain.back()->net);
    xs.push_back(Tensor::randn({2, 3, cfg.image_size, cfg.image_size}, rng));
  }
  auto fused = compile_model_major(nets, rng);
  Tensor yf =
      fused->forward(ag::Variable(fused::pack_channel_fused(xs))).value();
  for (int64_t b = 0; b < kB; ++b) {
    const size_t ub = static_cast<size_t>(b);
    Tensor yb = plain[ub]->forward(ag::Variable(xs[ub])).value();
    expect_same_bits(yb, yf.slice(0, b, b + 1).reshape(yb.shape()),
                     "model " + std::to_string(b));
  }
}

class PartialFusionTest : public ::testing::TestWithParam<int64_t> {};

TEST_P(PartialFusionTest, PartiallyUnfusedResNetMatchesSerial) {
  // The partial-fusion study's correctness precondition (Appendix H.4):
  // whatever subset of blocks is fused, the math is unchanged.
  const int64_t unfused_units = GetParam();
  Rng rng(9);
  ResNetConfig cfg = ResNetConfig::tiny();
  auto mask = ResNetFusionMask::partially_unfused(unfused_units);
  EXPECT_EQ(mask.fused_units(), 10 - unfused_units);
  std::vector<std::shared_ptr<ResNet18>> plain;
  std::vector<std::shared_ptr<nn::Module>> nets;
  std::vector<Tensor> xs;
  for (int64_t b = 0; b < kB; ++b) {
    plain.push_back(std::make_shared<ResNet18>(cfg, rng));
    nets.push_back(plain.back()->net);
    xs.push_back(Tensor::randn({2, 3, cfg.image_size, cfg.image_size}, rng));
  }
  auto fused = compile_model_major(nets, rng, mask.to_fuse_mask());
  Tensor yf =
      fused->forward(ag::Variable(fused::pack_channel_fused(xs))).value();
  for (int64_t b = 0; b < kB; ++b) {
    const size_t ub = static_cast<size_t>(b);
    Tensor yb = plain[ub]->forward(ag::Variable(xs[ub])).value();
    expect_same_bits(yb, yf.slice(0, b, b + 1).reshape(yb.shape()),
                     "model " + std::to_string(b));
  }
}

INSTANTIATE_TEST_SUITE_P(UnfusedUnits, PartialFusionTest,
                         ::testing::Values(0, 1, 5, 10));

TEST(MobileNetModel, ForwardShapesAndBlockCount) {
  Rng rng(10);
  MobileNetV3Config cfg = MobileNetV3Config::tiny();
  MobileNetV3 model(cfg, rng);
  EXPECT_EQ(count_children(*model.net, "bneck"),
            static_cast<size_t>(cfg.num_blocks));
  ag::Variable x(Tensor::randn({2, 3, cfg.image_size, cfg.image_size}, rng));
  EXPECT_EQ(model.forward(x).shape(), (Shape{2, cfg.num_classes}));
}

// B MobileNetV3 graphs of `cfg`, planner-compiled, vs the B plain models.
void expect_mobilenet_fuses_exactly(const MobileNetV3Config& cfg, Rng& rng) {
  std::vector<std::shared_ptr<MobileNetV3>> plain;
  std::vector<std::shared_ptr<nn::Module>> nets;
  std::vector<Tensor> xs;
  for (int64_t b = 0; b < kB; ++b) {
    plain.push_back(std::make_shared<MobileNetV3>(cfg, rng));
    nets.push_back(plain.back()->net);
    xs.push_back(Tensor::randn({2, 3, cfg.image_size, cfg.image_size}, rng));
  }
  auto fused = compile_model_major(nets, rng);
  Tensor yf =
      fused->forward(ag::Variable(fused::pack_channel_fused(xs))).value();
  for (int64_t b = 0; b < kB; ++b) {
    const size_t ub = static_cast<size_t>(b);
    Tensor yb = plain[ub]->forward(ag::Variable(xs[ub])).value();
    expect_same_bits(yb, yf.slice(0, b, b + 1).reshape(yb.shape()),
                     "model " + std::to_string(b));
  }
}

TEST(MobileNetModel, FusedMatchesSerial) {
  Rng rng(11);
  expect_mobilenet_fuses_exactly(MobileNetV3Config::tiny(), rng);
}

TEST(MobileNetModel, V2FusedMatchesSerial) {
  // The infusible "version" hyper-parameter (Table 12): MobileNetV2's
  // inverted residuals (ReLU6, no SE) fuse just like V3's bnecks.
  Rng rng(30);
  MobileNetV3Config cfg = MobileNetV3Config::tiny_v2();
  EXPECT_EQ(cfg.version, 2);
  expect_mobilenet_fuses_exactly(cfg, rng);
}

TEST(MobileNetModel, V2AndV3AreDifferentArchitectures) {
  // V2 and V3 sets of operator shapes differ -> the hyper-parameter is
  // genuinely infusible (different parameter structure).
  Rng rng(31);
  MobileNetV3 v3(MobileNetV3Config::tiny(), rng);
  MobileNetV3 v2(MobileNetV3Config::tiny_v2(), rng);
  EXPECT_NE(v3.num_parameters(), v2.num_parameters());
  EXPECT_EQ(mobilenetv2_table().size(), 17u);
  for (const auto& row : mobilenetv2_table()) {
    EXPECT_FALSE(row.se);      // V2 has no squeeze-excite
    EXPECT_FALSE(row.hswish);  // ...and no hard-swish
    EXPECT_TRUE(row.relu6);
  }
}

TEST(TransformerModel, LMForwardShapes) {
  Rng rng(12);
  TransformerConfig cfg = TransformerConfig::tiny();
  TransformerLM model(cfg, rng);
  Tensor tokens({2, cfg.seq_len});
  for (int64_t i = 0; i < tokens.numel(); ++i)
    tokens.data()[i] = static_cast<float>(rng.uniform_int(cfg.vocab));
  EXPECT_EQ(model.forward_tokens(tokens).shape(),
            (Shape{2, cfg.seq_len, cfg.vocab}));
}

TEST(TransformerModel, CausalMaskBlocksFuture) {
  // Changing a future token must not change earlier positions' logits.
  Rng rng(13);
  TransformerConfig cfg = TransformerConfig::tiny();
  TransformerLM model(cfg, rng);
  model.eval();
  Tensor tokens({1, cfg.seq_len});
  for (int64_t i = 0; i < tokens.numel(); ++i)
    tokens.data()[i] = static_cast<float>(rng.uniform_int(cfg.vocab));
  Tensor y1 = model.forward_tokens(tokens).value();
  tokens.at({0, cfg.seq_len - 1}) =
      static_cast<float>((static_cast<int64_t>(tokens.at({0, cfg.seq_len - 1})) + 1) %
                         cfg.vocab);
  Tensor y2 = model.forward_tokens(tokens).value();
  // positions 0..S-2 unchanged
  Tensor y1_head = y1.slice(1, 0, cfg.seq_len - 1);
  Tensor y2_head = y2.slice(1, 0, cfg.seq_len - 1);
  EXPECT_LT(ops::max_abs_diff(y1_head, y2_head), 1e-5f);
  // last position changed
  EXPECT_GT(ops::max_abs_diff(y1.slice(1, cfg.seq_len - 1, cfg.seq_len),
                              y2.slice(1, cfg.seq_len - 1, cfg.seq_len)),
            1e-4f);
}

TEST(TransformerModel, FusedMatchesSerial) {
  Rng rng(14);
  TransformerConfig cfg = TransformerConfig::tiny();
  TransformerLM fused(cfg, rng, kB);
  std::vector<std::shared_ptr<TransformerLM>> plain;
  std::vector<Tensor> toks;
  for (int64_t b = 0; b < kB; ++b) {
    plain.push_back(std::make_shared<TransformerLM>(cfg, rng));
    hfta::fused::load_model(fused, kB, b, *plain.back());
    Tensor t({2, cfg.seq_len});
    for (int64_t i = 0; i < t.numel(); ++i)
      t.data()[i] = static_cast<float>(rng.uniform_int(cfg.vocab));
    toks.push_back(t);
  }
  Tensor yf = fused.forward_tokens(fused::pack_model_major(toks)).value();
  for (int64_t b = 0; b < kB; ++b) {
    const size_t ub = static_cast<size_t>(b);
    Tensor yb = plain[ub]->forward_tokens(toks[ub]).value();
    expect_same_bits(yb, yf.slice(0, b, b + 1).reshape(yb.shape()),
                     "model " + std::to_string(b));
  }
}

TEST(BertModel, FusedMatchesSerial) {
  Rng rng(15);
  BertConfig cfg = BertConfig::tiny();
  BertModel fused(cfg, rng, kB);
  std::vector<std::shared_ptr<BertModel>> plain;
  std::vector<Tensor> toks;
  for (int64_t b = 0; b < kB; ++b) {
    plain.push_back(std::make_shared<BertModel>(cfg, rng));
    hfta::fused::load_model(fused, kB, b, *plain.back());
    Tensor t({2, cfg.seq_len});
    for (int64_t i = 0; i < t.numel(); ++i)
      t.data()[i] = static_cast<float>(rng.uniform_int(cfg.vocab));
    toks.push_back(t);
  }
  Tensor yf = fused.forward_tokens(fused::pack_model_major(toks)).value();
  for (int64_t b = 0; b < kB; ++b) {
    const size_t ub = static_cast<size_t>(b);
    Tensor yb = plain[ub]->forward_tokens(toks[ub]).value();
    expect_same_bits(yb, yf.slice(0, b, b + 1).reshape(yb.shape()),
                     "model " + std::to_string(b));
  }
}

TEST(BertModel, MlmHeadSharesEncoderShapes) {
  Rng rng(16);
  BertConfig cfg = BertConfig::tiny();
  BertModel model(cfg, rng);
  Tensor tokens({2, cfg.seq_len});
  EXPECT_EQ(model.forward_tokens(tokens).shape(),
            (Shape{2, cfg.seq_len, cfg.vocab}));
}

}  // namespace
}  // namespace hfta::models
