// Fusion-rule equivalence property tests (paper Appendix B, Table 6).
//
// For every fused operator, sweeping the array size B: the fused op applied
// to the packed inputs of B models with distinct weights must equal the B
// unfused ops applied per model — forward AND backward (input and parameter
// gradients) — bitwise. The fused op is the plain nn:: layer itself: at
// B x width for convs, BatchNorm, pooling and dropout, and built with array
// size B for Linear, LayerNorm and Embedding. This is the
// mathematical-equivalence guarantee HFTA's convergence claim rests on.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <string>

#include "hfta/fused_ops.h"
#include "hfta/fusion.h"
#include "models/resnet.h"
#include "models/transformer.h"
#include "nn/norm.h"
#include "tensor/ops.h"
#include "same_bits.h"

namespace hfta::fused {
namespace {

class FusionB : public ::testing::TestWithParam<int64_t> {};

// Sums y*probe for a deterministic scalar to backprop (probe fixed).
ag::Variable probe_loss(const ag::Variable& y, const Tensor& probe) {
  return ag::sum_all(ag::mul(y, ag::constant(probe)));
}

using tests::expect_same_bits;

TEST_P(FusionB, LayoutRoundTrip) {
  const int64_t B = GetParam();
  Rng rng(100 + B);
  std::vector<Tensor> xs;
  for (int64_t b = 0; b < B; ++b) xs.push_back(Tensor::randn({2, 3, 4}, rng));
  Tensor packed = pack_channel_fused(xs);  // [2, B*3, 4]
  EXPECT_EQ(packed.shape(), (Shape{2, B * 3, 4}));
  auto back = unpack_channel_fused(packed, B);
  for (int64_t b = 0; b < B; ++b)
    EXPECT_EQ(ops::max_abs_diff(back[static_cast<size_t>(b)],
                                xs[static_cast<size_t>(b)]),
              0.f);
  // channel-fused -> model-major -> channel-fused round trip.
  ag::Variable mm = to_model_major(ag::constant(packed), B);
  EXPECT_EQ(mm.shape(), (Shape{B, 2, 3, 4}));
  for (int64_t b = 0; b < B; ++b) {
    Tensor per = mm.value().slice(0, b, b + 1).reshape({2, 3, 4});
    EXPECT_EQ(ops::max_abs_diff(per, xs[static_cast<size_t>(b)]), 0.f);
  }
  ag::Variable cf = to_channel_fused(mm);
  EXPECT_EQ(ops::max_abs_diff(cf.value(), packed), 0.f);
}

TEST_P(FusionB, Conv2dForwardAndBackward) {
  const int64_t B = GetParam();
  Rng rng(200 + B);
  const int64_t N = 2, Cin = 3, Cout = 5, H = 7, W = 7, k = 3;
  std::vector<std::shared_ptr<nn::Conv2d>> plain;
  std::vector<Tensor> xs, probes;
  nn::Conv2d fused(B * Cin, B * Cout, k, /*stride=*/2, /*pad=*/1,
                   /*groups=*/B, /*bias=*/true, rng);
  for (int64_t b = 0; b < B; ++b) {
    plain.push_back(std::make_shared<nn::Conv2d>(Cin, Cout, k, 2, 1, 1, true,
                                                 rng));
    load_model(fused, B, b, *plain.back());
    xs.push_back(Tensor::randn({N, Cin, H, W}, rng));
  }
  ag::Variable xf(pack_channel_fused(xs), /*requires_grad=*/true);
  ag::Variable yf = fused.forward(xf);
  Tensor probe_f = Tensor::randn(yf.shape(), rng);
  probe_loss(yf, probe_f).backward();
  auto probes_per = unpack_channel_fused(probe_f, B);
  const auto gx_per = unpack_channel_fused(xf.grad(), B);

  for (int64_t b = 0; b < B; ++b) {
    const size_t ub = static_cast<size_t>(b);
    const std::string tag = "model " + std::to_string(b);
    ag::Variable xb(xs[ub], /*requires_grad=*/true);
    ag::Variable yb = plain[ub]->forward(xb);
    // forward equivalence
    Tensor yf_b = unpack_channel_fused(yf.value(), B)[ub];
    expect_same_bits(yb.value(), yf_b, tag + " y");
    // backward equivalence (input, weight and bias grads)
    probe_loss(yb, probes_per[ub]).backward();
    expect_same_bits(xb.grad(), gx_per[ub], tag + " x grad");
    Tensor gw_f = unfuse_blocks(fused.weight.grad(), B,
                                plain[ub]->weight.shape())[ub];
    expect_same_bits(plain[ub]->weight.grad(), gw_f, tag + " weight grad");
    Tensor gb_f =
        unfuse_blocks(fused.bias.grad(), B, plain[ub]->bias.shape())[ub];
    expect_same_bits(plain[ub]->bias.grad(), gb_f, tag + " bias grad");
  }
}

TEST_P(FusionB, Conv2dGroupedBecomesBTimesGroups) {
  // Per-model grouped conv (g=2) fuses into B*2 groups.
  const int64_t B = GetParam();
  Rng rng(300 + B);
  const int64_t Cin = 4, Cout = 6, g = 2;
  nn::Conv2d fused(B * Cin, B * Cout, 3, 1, 1, B * g, true, rng);
  EXPECT_EQ(fused.args.groups, B * g);
  std::vector<std::shared_ptr<nn::Conv2d>> plain;
  std::vector<Tensor> xs;
  for (int64_t b = 0; b < B; ++b) {
    plain.push_back(
        std::make_shared<nn::Conv2d>(Cin, Cout, 3, 1, 1, g, true, rng));
    load_model(fused, B, b, *plain.back());
    xs.push_back(Tensor::randn({2, Cin, 5, 5}, rng));
  }
  Tensor yf = fused.forward(ag::Variable(pack_channel_fused(xs))).value();
  auto yf_per = unpack_channel_fused(yf, B);
  for (int64_t b = 0; b < B; ++b) {
    const size_t ub = static_cast<size_t>(b);
    Tensor yb = plain[ub]->forward(ag::Variable(xs[ub])).value();
    expect_same_bits(yb, yf_per[ub], "model " + std::to_string(b));
  }
}

TEST_P(FusionB, Conv1dEquivalence) {
  const int64_t B = GetParam();
  Rng rng(400 + B);
  const int64_t Cin = 3, Cout = 4, L = 12;
  nn::Conv1d fused(B * Cin, B * Cout, 3, 1, 1, B, true, rng);
  std::vector<std::shared_ptr<nn::Conv1d>> plain;
  std::vector<Tensor> xs;
  for (int64_t b = 0; b < B; ++b) {
    plain.push_back(
        std::make_shared<nn::Conv1d>(Cin, Cout, 3, 1, 1, 1, true, rng));
    load_model(fused, B, b, *plain.back());
    xs.push_back(Tensor::randn({2, Cin, L}, rng));
  }
  Tensor yf = fused.forward(ag::Variable(pack_channel_fused(xs))).value();
  auto yf_per = unpack_channel_fused(yf, B);
  for (int64_t b = 0; b < B; ++b) {
    const size_t ub = static_cast<size_t>(b);
    Tensor yb = plain[ub]->forward(ag::Variable(xs[ub])).value();
    expect_same_bits(yb, yf_per[ub], "model " + std::to_string(b));
  }
}

TEST_P(FusionB, ConvTranspose2dEquivalence) {
  const int64_t B = GetParam();
  Rng rng(500 + B);
  const int64_t Cin = 6, Cout = 4;
  nn::ConvTranspose2d fused(B * Cin, B * Cout, 4, 2, 1, 0, B, true, rng);
  std::vector<std::shared_ptr<nn::ConvTranspose2d>> plain;
  std::vector<Tensor> xs;
  for (int64_t b = 0; b < B; ++b) {
    plain.push_back(std::make_shared<nn::ConvTranspose2d>(Cin, Cout, 4, 2, 1,
                                                          0, 1, true, rng));
    load_model(fused, B, b, *plain.back());
    xs.push_back(Tensor::randn({2, Cin, 5, 5}, rng));
  }
  ag::Variable xf(pack_channel_fused(xs), /*requires_grad=*/true);
  ag::Variable yf_v = fused.forward(xf);
  Tensor probe = Tensor::randn(yf_v.shape(), rng);
  probe_loss(yf_v, probe).backward();
  auto yf_per = unpack_channel_fused(yf_v.value(), B);
  auto probes = unpack_channel_fused(probe, B);
  const auto gx_per = unpack_channel_fused(xf.grad(), B);
  for (int64_t b = 0; b < B; ++b) {
    const size_t ub = static_cast<size_t>(b);
    const std::string tag = "model " + std::to_string(b);
    ag::Variable xb(xs[ub], /*requires_grad=*/true);
    ag::Variable yb = plain[ub]->forward(xb);
    expect_same_bits(yb.value(), yf_per[ub], tag + " y");
    probe_loss(yb, probes[ub]).backward();
    expect_same_bits(xb.grad(), gx_per[ub], tag + " x grad");
    Tensor gw_f = unfuse_blocks(fused.weight.grad(), B,
                                plain[ub]->weight.shape())[ub];
    expect_same_bits(plain[ub]->weight.grad(), gw_f, tag + " weight grad");
    Tensor gb_f =
        unfuse_blocks(fused.bias.grad(), B, plain[ub]->bias.shape())[ub];
    expect_same_bits(plain[ub]->bias.grad(), gb_f, tag + " bias grad");
  }
}

// B linears fused into one nn::Linear at array size B vs B plain ones.
// Block b of the fused weight is the plain [out, in] weight, and each block
// runs the plain layer's own GEMMs, so output and every gradient are
// bitwise equal.
TEST_P(FusionB, LinearEquivalenceAtArraySize) {
  const int64_t B = GetParam();
  Rng rng(600 + B);
  const int64_t N = 4, in = 5, out = 3;
  nn::Linear fused(in, out, true, rng, B);
  std::vector<std::shared_ptr<nn::Linear>> plain;
  std::vector<Tensor> xs;
  for (int64_t b = 0; b < B; ++b) {
    plain.push_back(std::make_shared<nn::Linear>(in, out, true, rng));
    load_model(fused, B, b, *plain.back());
    xs.push_back(Tensor::randn({N, in}, rng));
  }
  ag::Variable xf(pack_model_major(xs), /*requires_grad=*/true);
  ag::Variable yf = fused.forward(xf);
  Tensor probe = Tensor::randn(yf.shape(), rng);
  probe_loss(yf, probe).backward();
  const auto gw_per = unfuse_blocks(fused.weight.grad(), B, {out, in});
  const auto gb_per = unfuse_blocks(fused.bias.grad(), B, {out});
  for (int64_t b = 0; b < B; ++b) {
    const size_t ub = static_cast<size_t>(b);
    ag::Variable xb(xs[ub], /*requires_grad=*/true);
    ag::Variable yb = plain[ub]->forward(xb);
    probe_loss(yb, probe.slice(0, b, b + 1).reshape({N, out})).backward();
    const std::string tag = "model " + std::to_string(b);
    expect_same_bits(yb.value(),
                     yf.value().slice(0, b, b + 1).reshape({N, out}),
                     tag + " y");
    expect_same_bits(xb.grad(), xf.grad().slice(0, b, b + 1).reshape({N, in}),
                     tag + " x grad");
    expect_same_bits(plain[ub]->weight.grad(), gw_per[ub],
                     tag + " weight grad");
    expect_same_bits(plain[ub]->bias.grad(), gb_per[ub], tag + " bias grad");
  }
}

TEST_P(FusionB, LinearWeightRoundTrip) {
  const int64_t B = GetParam();
  Rng rng(650 + B);
  nn::Linear fused(4, 3, true, rng, B);
  nn::Linear src(4, 3, true, rng), dst(4, 3, true, rng);
  load_model(fused, B, B - 1, src);
  store_model(fused, B, B - 1, dst);
  EXPECT_EQ(ops::max_abs_diff(src.weight.value(), dst.weight.value()), 0.f);
  EXPECT_EQ(ops::max_abs_diff(src.bias.value(), dst.bias.value()), 0.f);
}

TEST_P(FusionB, StateTransferRejectsModelIndexOutsideArray) {
  // Model indices outside [0, B) must throw, not read or write past the
  // fused blocks — on a leaf and on a composite alike.
  const int64_t B = GetParam();
  Rng rng(660 + B);
  nn::Conv2d conv(B * 3, B * 4, 3, 1, 1, B, true, rng);
  nn::Conv2d plain_conv(3, 4, 3, 1, 1, 1, true, rng);
  models::BasicBlock block(4, 8, 2, rng, B);
  models::BasicBlock plain_block(4, 8, 2, rng);
  for (const int64_t b : {int64_t{-1}, B}) {
    EXPECT_THROW(load_model(conv, B, b, plain_conv), Error)
        << "b = " << b;
    EXPECT_THROW(store_model(conv, B, b, plain_conv), Error)
        << "b = " << b;
    EXPECT_THROW(load_model(block, B, b, plain_block), Error)
        << "b = " << b;
    EXPECT_THROW(store_model(block, B, b, plain_block), Error)
        << "b = " << b;
  }
}

// Runs `transfer`, expecting an Error whose message names `path`.
template <typename Fn>
void expect_error_naming(const Fn& transfer, const std::string& path) {
  try {
    transfer();
    ADD_FAILURE() << "expected an Error naming '" << path << "'";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("'" + path + "'"),
              std::string::npos)
        << e.what();
  }
}

TEST(StateTransfer, RejectsAChildLeftAtPerModelWidth) {
  // A hand-built array of B = 3 whose fc2 was built without B: its tensors
  // hold one model's numel, not B x, so no block b exists to copy.
  const int64_t B = 3;
  Rng rng(670);
  nn::Sequential array, model;
  array.push_back("fc1", std::make_shared<nn::Linear>(4, 5, true, rng, B));
  array.push_back("fc2", std::make_shared<nn::Linear>(5, 3, true, rng));
  model.push_back("fc1", std::make_shared<nn::Linear>(4, 5, true, rng));
  model.push_back("fc2", std::make_shared<nn::Linear>(5, 3, true, rng));
  for (const int64_t b : {int64_t{0}, B - 1}) {
    expect_error_naming([&] { load_model(array, B, b, model); },
                        "fc2.weight");
    expect_error_naming([&] { store_model(array, B, b, model); },
                        "fc2.weight");
  }
}

TEST(StateTransfer, RejectsAPerModelTreeMissingAnArrayPath) {
  const int64_t B = 3;
  Rng rng(680);
  nn::Sequential array, model;
  array.push_back("fc1", std::make_shared<nn::Linear>(4, 5, true, rng, B));
  array.push_back("fc2", std::make_shared<nn::Linear>(5, 3, true, rng, B));
  model.push_back("fc1", std::make_shared<nn::Linear>(4, 5, true, rng));
  expect_error_naming([&] { load_model(array, B, 1, model); }, "fc2.weight");
  expect_error_naming([&] { store_model(array, B, 1, model); }, "fc2.weight");
}

TEST(StateTransfer, RejectsAPerModelTensorMissingFromTheArray) {
  // The mirror case: the per-model tree holds a tensor (bias) that the
  // array has no path for. A one-way walk would drop it on load and leave
  // it stale on store; the walk consumes every per-model tensor, so both
  // directions throw, name it, and write nothing.
  const int64_t B = 2;
  Rng rng(690);
  nn::Linear array(4, 3, /*bias=*/false, rng, B);
  nn::Linear model(4, 3, /*bias=*/true, rng);
  const Tensor array_before = array.weight.value().clone();
  const Tensor model_before = model.weight.value().clone();
  expect_error_naming([&] { load_model(array, B, 1, model); }, "bias");
  expect_error_naming([&] { store_model(array, B, 1, model); }, "bias");
  EXPECT_EQ(ops::max_abs_diff(array.weight.value(), array_before), 0.f);
  EXPECT_EQ(ops::max_abs_diff(model.weight.value(), model_before), 0.f);
}

// B BatchNorms fused as one over B*C channels vs B plain ones, one training
// step then one eval step. Per model, the output, the x, weight and bias
// grads and the running stats must be bitwise equal: fused BN runs each
// model's channels through the same per-channel chains as the plain layer.
template <typename Plain>
void expect_batch_norm_fuses_exactly(int64_t B, const Shape& shape,
                                     Rng& rng) {
  const int64_t C = shape[1];
  Plain fused(B * C);
  std::vector<std::shared_ptr<Plain>> plain;
  std::vector<Tensor> xs;
  for (int64_t b = 0; b < B; ++b) {
    plain.push_back(std::make_shared<Plain>(C));
    plain.back()->weight.mutable_value().copy_(Tensor::randn({C}, rng));
    plain.back()->bias.mutable_value().copy_(Tensor::randn({C}, rng));
    plain.back()->running_mean.copy_(Tensor::randn({C}, rng));
    plain.back()->running_var.copy_(Tensor::rand({C}, rng, 0.5f, 2.f));
    load_model(fused, B, b, *plain.back());
    xs.push_back(Tensor::randn(shape, rng));
  }
  for (const bool training : {true, false}) {
    fused.train(training);
    fused.zero_grad();
    ag::Variable xf(pack_channel_fused(xs), /*requires_grad=*/true);
    ag::Variable yf = fused.forward(xf);
    const Tensor probe = Tensor::randn(yf.shape(), rng);
    probe_loss(yf, probe).backward();
    const auto y_per = unpack_channel_fused(yf.value(), B);
    const auto gx_per = unpack_channel_fused(xf.grad(), B);
    const auto probe_per = unpack_channel_fused(probe, B);
    const auto gw_per = unfuse_blocks(fused.weight.grad(), B, {C});
    const auto gb_per = unfuse_blocks(fused.bias.grad(), B, {C});
    const auto rm_per = unfuse_blocks(fused.running_mean, B, {C});
    const auto rv_per = unfuse_blocks(fused.running_var, B, {C});
    for (int64_t b = 0; b < B; ++b) {
      const size_t ub = static_cast<size_t>(b);
      Plain& p = *plain[ub];
      p.train(training);
      p.zero_grad();
      ag::Variable xb(xs[ub], /*requires_grad=*/true);
      ag::Variable yb = p.forward(xb);
      probe_loss(yb, probe_per[ub]).backward();
      const std::string tag = shape_str(shape) +
                              (training ? " train" : " eval") + " model " +
                              std::to_string(b);
      expect_same_bits(yb.value(), y_per[ub], tag + " y");
      expect_same_bits(xb.grad(), gx_per[ub], tag + " x grad");
      expect_same_bits(p.weight.grad(), gw_per[ub], tag + " weight grad");
      expect_same_bits(p.bias.grad(), gb_per[ub], tag + " bias grad");
      expect_same_bits(p.running_mean, rm_per[ub], tag + " running_mean");
      expect_same_bits(p.running_var, rv_per[ub], tag + " running_var");
    }
  }
}

TEST_P(FusionB, BatchNorm2dTrainingAndEval) {
  const int64_t B = GetParam();
  Rng rng(700 + B);
  expect_batch_norm_fuses_exactly<nn::BatchNorm2d>(B, {4, 3, 5, 5}, rng);
}

TEST_P(FusionB, BatchNorm1dOn2dAnd3dInputs) {
  const int64_t B = GetParam();
  Rng rng(800 + B);
  expect_batch_norm_fuses_exactly<nn::BatchNorm1d>(B, {6, 4}, rng);
  expect_batch_norm_fuses_exactly<nn::BatchNorm1d>(B, {3, 4, 7}, rng);
}

TEST_P(FusionB, LayerNormPerModelAffine) {
  // Model b's rows run through the same per-row chains as its plain layer,
  // with its own affine row: output and all three grads are bitwise equal.
  const int64_t B = GetParam();
  Rng rng(900 + B);
  const int64_t N = 3, E = 5;
  nn::LayerNorm fused(Shape{E}, 1e-5f, rng, B);
  std::vector<std::shared_ptr<nn::LayerNorm>> plain;
  std::vector<Tensor> xs;
  for (int64_t b = 0; b < B; ++b) {
    plain.push_back(std::make_shared<nn::LayerNorm>(Shape{E}, 1e-5f, rng));
    plain.back()->weight.mutable_value().copy_(Tensor::randn({E}, rng));
    plain.back()->bias.mutable_value().copy_(Tensor::randn({E}, rng));
    load_model(fused, B, b, *plain.back());
    xs.push_back(Tensor::randn({N, E}, rng));
  }
  ag::Variable xf(pack_model_major(xs), /*requires_grad=*/true);
  ag::Variable yf = fused.forward(xf);
  Tensor probe = Tensor::randn(yf.shape(), rng);
  probe_loss(yf, probe).backward();
  const auto gw_per = unfuse_blocks(fused.weight.grad(), B, {E});
  const auto gb_per = unfuse_blocks(fused.bias.grad(), B, {E});
  for (int64_t b = 0; b < B; ++b) {
    const size_t ub = static_cast<size_t>(b);
    ag::Variable xb(xs[ub], /*requires_grad=*/true);
    ag::Variable yb = plain[ub]->forward(xb);
    probe_loss(yb, probe.slice(0, b, b + 1).reshape({N, E})).backward();
    const std::string tag = "model " + std::to_string(b);
    expect_same_bits(yb.value(), yf.value().slice(0, b, b + 1).reshape({N, E}),
                     tag + " y");
    expect_same_bits(xb.grad(), xf.grad().slice(0, b, b + 1).reshape({N, E}),
                     tag + " x grad");
    expect_same_bits(plain[ub]->weight.grad(), gw_per[ub], tag + " w grad");
    expect_same_bits(plain[ub]->bias.grad(), gb_per[ub], tag + " b grad");
  }
}

TEST_P(FusionB, LayerNormRejectsWrongTrailingShape) {
  // A [B, N, 1] input must not broadcast against normalized_shape {6}.
  const int64_t B = GetParam();
  Rng rng(950 + B);
  nn::LayerNorm fused(Shape{6}, 1e-5f, rng, B);
  EXPECT_THROW(fused.forward(ag::Variable(Tensor::randn({B, 3, 1}, rng))),
               Error);
  EXPECT_THROW(fused.forward(ag::Variable(Tensor::randn({B, 6, 5}, rng))),
               Error);
  EXPECT_NO_THROW(fused.forward(ag::Variable(Tensor::randn({B, 3, 6}, rng))));
}

TEST_P(FusionB, EmbeddingWithIndexOffsets) {
  const int64_t B = GetParam();
  Rng rng(1000 + B);
  const int64_t V = 7, E = 4, L = 5;
  nn::Embedding fused(V, E, rng, B);
  std::vector<std::shared_ptr<nn::Embedding>> plain;
  std::vector<Tensor> idxs;
  for (int64_t b = 0; b < B; ++b) {
    plain.push_back(std::make_shared<nn::Embedding>(V, E, rng));
    load_model(fused, B, b, *plain.back());
    Tensor idx({L});
    for (int64_t i = 0; i < L; ++i)
      idx.data()[i] = static_cast<float>(rng.uniform_int(V));
    idxs.push_back(idx);
  }
  Tensor fused_idx = pack_model_major(idxs);  // [B, L]
  ag::Variable yf = fused.lookup(fused_idx);  // [B, L, E]
  Tensor probe = Tensor::randn(yf.shape(), rng);
  probe_loss(yf, probe).backward();
  for (int64_t b = 0; b < B; ++b) {
    const size_t ub = static_cast<size_t>(b);
    ag::Variable yb = plain[ub]->lookup(idxs[ub]);
    const std::string tag = "model " + std::to_string(b);
    Tensor yf_b = yf.value().slice(0, b, b + 1).reshape({L, E});
    expect_same_bits(yb.value(), yf_b, tag + " y");
    probe_loss(yb, probe.slice(0, b, b + 1).reshape({L, E})).backward();
    Tensor gw_f = unfuse_blocks(fused.weight.grad(), B, {V, E})[ub];
    expect_same_bits(plain[ub]->weight.grad(), gw_f, tag + " weight grad");
  }
  // An id past the per-model vocab throws, as nn::Embedding does, instead
  // of reading the next model's block of the stacked table.
  Tensor bad = fused_idx.clone();
  bad.data()[0] = static_cast<float>(V);
  EXPECT_THROW(plain[0]->lookup(Tensor::full({1}, static_cast<float>(V))),
               std::exception);
  EXPECT_THROW(fused.lookup(bad), std::exception);
  EXPECT_THROW(ops::embedding_backward(Tensor::zeros({B, L, E}), bad, B * V, B),
               std::exception);
}

TEST_P(FusionB, PoolingOnFusedLayout) {
  const int64_t B = GetParam();
  Rng rng(1100 + B);
  std::vector<Tensor> xs;
  for (int64_t b = 0; b < B; ++b)
    xs.push_back(Tensor::randn({2, 3, 8, 8}, rng));
  Tensor xf = pack_channel_fused(xs);
  // The same layer runs the array on the channel-fused layout and each
  // model on its own input.
  auto expect_fuses = [&](nn::Module& pool, const std::string& name) {
    Tensor yf = pool.forward(ag::Variable(xf)).value();
    auto per = unpack_channel_fused(yf, B);
    for (int64_t b = 0; b < B; ++b) {
      const size_t ub = static_cast<size_t>(b);
      expect_same_bits(pool.forward(ag::Variable(xs[ub])).value(), per[ub],
                       name + " model " + std::to_string(b));
    }
  };
  nn::MaxPool2d max_pool(2, 2);
  expect_fuses(max_pool, "MaxPool2d");
  nn::AdaptiveAvgPool2d avg_pool(2, 2);
  expect_fuses(avg_pool, "AdaptiveAvgPool2d");
}

TEST_P(FusionB, DropoutEvalIdentityOnFusedLayout) {
  const int64_t B = GetParam();
  Rng rng(1200 + B);
  Tensor x = Tensor::randn({2, B * 3, 4, 4}, rng);
  nn::Dropout2d drop(0.5f, 0xd20);
  drop.eval();
  EXPECT_EQ(ops::max_abs_diff(drop.forward(ag::Variable(x)).value(), x), 0.f);
  drop.train();
  Tensor y = drop.forward(ag::Variable(x)).value();
  // channel-granular: each (n, fused channel) plane all-zero or x*2
  for (int64_t n = 0; n < 2; ++n)
    for (int64_t c = 0; c < B * 3; ++c) {
      const bool dropped = y.at({n, c, 0, 0}) == 0.f && x.at({n, c, 0, 0}) != 0.f;
      for (int64_t h = 0; h < 4; ++h)
        for (int64_t w = 0; w < 4; ++w) {
          if (dropped) {
            EXPECT_EQ(y.at({n, c, h, w}), 0.f);
          } else {
            EXPECT_NEAR(y.at({n, c, h, w}), 2.f * x.at({n, c, h, w}), 1e-5f);
          }
        }
    }
}

TEST_P(FusionB, UnfusedBlockAdapterMatchesFusion) {
  // Partial-fusion adapter: per-model replicas on the fused layout produce
  // the same values as the fused op (the math is fusion-invariant).
  const int64_t B = GetParam();
  Rng rng(1300 + B);
  const int64_t Cin = 3, Cout = 4;
  nn::Conv2d fused(B * Cin, B * Cout, 3, 1, 1, B, true, rng);
  std::vector<std::shared_ptr<nn::Module>> reps;
  std::vector<Tensor> xs;
  for (int64_t b = 0; b < B; ++b) {
    auto conv = std::make_shared<nn::Conv2d>(Cin, Cout, 3, 1, 1, 1, true, rng);
    load_model(fused, B, b, *conv);
    reps.push_back(conv);
    xs.push_back(Tensor::randn({2, Cin, 6, 6}, rng));
  }
  UnfusedBlockAdapter adapter(B, reps);
  Tensor xf = pack_channel_fused(xs);
  Tensor y_fused = fused.forward(ag::Variable(xf)).value();
  Tensor y_adapter = adapter.forward(ag::Variable(xf)).value();
  expect_same_bits(y_fused, y_adapter, "adapter");
}

TEST_P(FusionB, CollectFusedParametersValidates) {
  const int64_t B = GetParam();
  Rng rng(1400 + B);
  nn::Conv2d fused(B * 3, B * 4, 3, 1, 1, B, true, rng);
  auto fps = collect_fused_parameters(fused, B);
  EXPECT_EQ(fps.size(), 2u);
  for (const auto& fp : fps) EXPECT_EQ(fp.array_size, B);
}

INSTANTIATE_TEST_SUITE_P(ArraySizes, FusionB, ::testing::Values(1, 2, 3, 5, 8));

// ---- attention / transformer fusion (compared against an inline plain
// reference built from the same autograd primitives) --------------------------

ag::Variable plain_mha(const ag::Variable& x, const ag::Variable& wi,
                       const ag::Variable& bi, const ag::Variable& wo,
                       const ag::Variable& bo, int64_t H) {
  // x: [N, S, E]; wi: [3E, E] (one block of the fused weight),
  // bi: [3E].
  const int64_t N = x.size(0), S = x.size(1), E = x.size(2);
  const int64_t Dh = E / H;
  ag::Variable flat = ag::reshape(x, {N * S, E});
  ag::Variable qkv = ag::linear(flat, wi, bi);  // [N*S, 3E]
  auto parts = ag::chunk(qkv, 3, 1);
  auto heads = [&](const ag::Variable& t) {
    ag::Variable r = ag::reshape(t, {N, S, H, Dh});
    r = ag::permute(r, {0, 2, 1, 3});
    return ag::reshape(r, {N * H, S, Dh});
  };
  ag::Variable q = heads(parts[0]), k = heads(parts[1]), v = heads(parts[2]);
  ag::Variable scores = ag::mul_scalar(
      ag::matmul(q, k, true), 1.f / std::sqrt(static_cast<float>(Dh)));
  ag::Variable ctx = ag::matmul(ag::softmax(scores, -1), v);
  ctx = ag::reshape(ctx, {N, H, S, Dh});
  ctx = ag::permute(ctx, {0, 2, 1, 3});
  ctx = ag::reshape(ctx, {N * S, E});
  ag::Variable out = ag::linear(ctx, wo, bo);
  return ag::reshape(out, {N, S, E});
}

TEST_P(FusionB, MultiheadAttentionEquivalence) {
  const int64_t B = GetParam();
  Rng rng(1500 + B);
  const int64_t N = 2, S = 4, E = 8, H = 2;
  models::MultiheadAttention fused(E, H, rng, B);
  std::vector<Tensor> xs;
  for (int64_t b = 0; b < B; ++b) xs.push_back(Tensor::randn({N, S, E}, rng));
  ag::Variable yf = fused.forward(ag::Variable(pack_model_major(xs)));
  // Model b's projection weights are block b of the fused ones.
  const auto wis = unfuse_blocks(fused.in_proj->weight.value(), B, {3 * E, E});
  const auto bis = unfuse_blocks(fused.in_proj->bias.value(), B, {3 * E});
  const auto wos = unfuse_blocks(fused.out_proj->weight.value(), B, {E, E});
  const auto bos = unfuse_blocks(fused.out_proj->bias.value(), B, {E});
  for (int64_t b = 0; b < B; ++b) {
    const size_t ub = static_cast<size_t>(b);
    const Tensor &wi = wis[ub], &bi = bis[ub], &wo = wos[ub], &bo = bos[ub];
    ag::Variable yb =
        plain_mha(ag::Variable(xs[ub]), ag::Variable(wi), ag::Variable(bi),
                  ag::Variable(wo), ag::Variable(bo), H);
    Tensor yf_b = yf.value().slice(0, b, b + 1).reshape({N, S, E});
    expect_same_bits(yb.value(), yf_b, "model " + std::to_string(b));
  }
}

TEST_P(FusionB, TransformerEncoderLayerRunsAndIsModelSeparable) {
  // Cross-model independence: perturbing model 0's input must not change
  // any other model's output (the fused encoder has no cross-model paths).
  const int64_t B = GetParam();
  if (B < 2) GTEST_SKIP() << "needs at least two models";
  Rng rng(1600 + B);
  const int64_t N = 2, S = 3, E = 8;
  models::TransformerEncoderLayer layer(E, 2, 16, /*dropout=*/0.f, "relu", rng,
                                       B);
  std::vector<Tensor> xs;
  for (int64_t b = 0; b < B; ++b) xs.push_back(Tensor::randn({N, S, E}, rng));
  Tensor y1 = layer.forward(ag::Variable(pack_model_major(xs))).value();
  xs[0].add_(Tensor::full(xs[0].shape(), 0.5f));
  Tensor y2 = layer.forward(ag::Variable(pack_model_major(xs))).value();
  // model 0 changed
  EXPECT_GT(ops::max_abs_diff(y1.slice(0, 0, 1), y2.slice(0, 0, 1)), 1e-4f);
  // all other models unchanged
  for (int64_t b = 1; b < B; ++b)
    EXPECT_LT(ops::max_abs_diff(y1.slice(0, b, b + 1), y2.slice(0, b, b + 1)),
              1e-6f);
}

}  // namespace
}  // namespace hfta::fused
