// Shared per-kind test fixtures: one congruent per-model module factory for
// every kind with an array form (nn::Module::make_array), plus a matching
// training input. Used by fusion_plan_test (fused == serial steps and state
// round-trips over every such kind), step_program_test (capture/replay
// bit-exactness) and thread_invariance_test (1 vs 8 threads).
// fusion_plan_test fails when a module of the library's models gains an
// array form without a factory here, or when a factory builds a module
// whose kind_name() is not its key.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>

#include "core/rng.h"
#include "models/bert.h"
#include "models/mobilenetv3.h"
#include "models/pointnet.h"
#include "models/resnet.h"
#include "models/transformer.h"
#include "nn/layers.h"
#include "nn/norm.h"
#include "tensor/tensor.h"

namespace hfta::tests {

// One congruent per-model module per array-capable kind (fresh weights per
// call, so B calls give B distinct-but-congruent replicas).
using KindFactory = std::function<std::shared_ptr<nn::Module>(Rng&)>;

inline std::map<std::string, KindFactory> kind_factories() {
  using std::make_shared;
  std::map<std::string, KindFactory> f;
  f["Linear"] = [](Rng& r) { return make_shared<nn::Linear>(4, 3, true, r); };
  f["LayerNorm"] = [](Rng& r) {
    return make_shared<nn::LayerNorm>(Shape{5}, 1e-5f, r);
  };
  f["Flatten"] = [](Rng&) { return make_shared<nn::Flatten>(); };
  f["Embedding"] = [](Rng& r) { return make_shared<nn::Embedding>(7, 4, r); };
  f["Conv2d"] = [](Rng& r) {
    return make_shared<nn::Conv2d>(3, 4, 3, 1, 1, 1, true, r);
  };
  f["Conv1d"] = [](Rng& r) {
    return make_shared<nn::Conv1d>(3, 4, 1, 1, 0, 1, true, r);
  };
  f["ConvTranspose2d"] = [](Rng& r) {
    return make_shared<nn::ConvTranspose2d>(4, 3, 4, 2, 1, 0, 1, true, r);
  };
  f["ConvTranspose1d"] = [](Rng& r) {
    return make_shared<nn::ConvTranspose1d>(4, 3, 4, 2, 1, 0, 1, true, r);
  };
  f["BatchNorm2d"] = [](Rng&) { return make_shared<nn::BatchNorm2d>(4); };
  f["BatchNorm1d"] = [](Rng&) { return make_shared<nn::BatchNorm1d>(4); };
  f["MaxPool2d"] = [](Rng&) { return make_shared<nn::MaxPool2d>(2, 2); };
  f["AdaptiveAvgPool2d"] = [](Rng&) {
    return make_shared<nn::AdaptiveAvgPool2d>(1, 1);
  };
  f["Dropout"] = [](Rng&) { return make_shared<nn::Dropout>(0.5f); };
  f["Dropout2d"] = [](Rng&) { return make_shared<nn::Dropout2d>(0.5f); };
  f["GlobalMaxPool1d"] = [](Rng&) {
    return make_shared<nn::GlobalMaxPool1d>();
  };
  f["ReLU"] = [](Rng&) { return make_shared<nn::ReLU>(); };
  f["ReLU6"] = [](Rng&) { return make_shared<nn::ReLU6>(); };
  f["LeakyReLU"] = [](Rng&) { return make_shared<nn::LeakyReLU>(0.2f); };
  f["Tanh"] = [](Rng&) { return make_shared<nn::Tanh>(); };
  f["Sigmoid"] = [](Rng&) { return make_shared<nn::Sigmoid>(); };
  f["Hardswish"] = [](Rng&) { return make_shared<nn::Hardswish>(); };
  f["GELU"] = [](Rng&) { return make_shared<nn::GELU>(); };
  f["models::PointNetTrunk"] = [](Rng& r) {
    models::PointNetConfig cfg = models::PointNetConfig::tiny();
    cfg.input_transform = true;  // cover the STN subtree
    return make_shared<models::PointNetTrunk>(cfg, r);
  };
  f["models::BasicBlock"] = [](Rng& r) {
    // in != out: covers the downsample branch
    return make_shared<models::BasicBlock>(4, 8, 2, r);
  };
  f["models::TransformerEncoderLayer"] = [](Rng& r) {
    return make_shared<models::TransformerEncoderLayer>(8, 2, 16, 0.f,
                                                        "gelu", r);
  };
  f["models::TransformerLM"] = [](Rng& r) {
    return make_shared<models::TransformerLM>(models::TransformerConfig::tiny(),
                                              r);
  };
  f["models::SqueezeExcite"] = [](Rng& r) {
    return make_shared<models::SqueezeExcite>(8, r);
  };
  f["models::Bneck"] = [](Rng& r) {
    // A row with expansion AND squeeze-excite, so every branch has state.
    return make_shared<models::Bneck>(8, models::mobilenetv3_large_table()[3],
                                      models::MobileNetV3Config::tiny(), r);
  };
  f["models::BertModel"] = [](Rng& r) {
    return make_shared<models::BertModel>(models::BertConfig::tiny(), r);
  };
  return f;
}

// The kinds that read integer ids through lookup()/forward_tokens() rather
// than features through forward().
inline bool takes_tokens(const std::string& kind) {
  return kind == "Embedding" || kind == "models::TransformerLM" ||
         kind == "models::BertModel";
}

// A per-model training batch of `n` samples whose trailing dims match the
// factory's module configuration above. Token kinds get integer ids in
// [0, vocab); everything else gets gaussian features.
inline Tensor kind_input(const std::string& kind, int64_t n, Rng& rng) {
  auto ids = [&](int64_t seq, int64_t vocab) {
    Tensor t({n, seq});
    for (int64_t i = 0; i < t.numel(); ++i)
      t.data()[i] = static_cast<float>(rng.uniform_int(vocab));
    return t;
  };
  if (kind == "Embedding") return ids(3, 7);
  if (kind == "models::TransformerLM") {
    const models::TransformerConfig cfg = models::TransformerConfig::tiny();
    return ids(cfg.seq_len, cfg.vocab);
  }
  if (kind == "models::BertModel") {
    const models::BertConfig cfg = models::BertConfig::tiny();
    return ids(cfg.seq_len, cfg.vocab);
  }
  static const std::map<std::string, Shape> kTrailing = {
      {"Linear", {4}},
      {"LayerNorm", {5}},
      {"Flatten", {3, 2}},
      {"Conv2d", {3, 6, 6}},
      {"Conv1d", {3, 5}},
      {"ConvTranspose2d", {4, 5, 5}},
      {"ConvTranspose1d", {4, 5}},
      {"BatchNorm2d", {4, 3, 3}},
      {"BatchNorm1d", {4}},
      {"MaxPool2d", {3, 4, 4}},
      {"AdaptiveAvgPool2d", {3, 5, 5}},
      {"Dropout", {6}},
      {"Dropout2d", {3, 4, 4}},
      {"GlobalMaxPool1d", {3, 7}},
      {"ReLU", {5}},
      {"ReLU6", {5}},
      {"LeakyReLU", {5}},
      {"Tanh", {5}},
      {"Sigmoid", {5}},
      {"Hardswish", {5}},
      {"GELU", {5}},
      {"models::PointNetTrunk", {3, 64}},
      {"models::BasicBlock", {4, 6, 6}},
      {"models::TransformerEncoderLayer", {4, 8}},
      {"models::SqueezeExcite", {8, 4, 4}},
      {"models::Bneck", {8, 6, 6}},
  };
  Shape shape = {n};
  const Shape& trailing = kTrailing.at(kind);
  shape.insert(shape.end(), trailing.begin(), trailing.end());
  return Tensor::randn(shape, rng);
}

// forward() for ordinary modules; the token kinds route through lookup or
// forward_tokens (their Variable overload deliberately throws).
inline ag::Variable kind_forward(nn::Module& m, const std::string& kind,
                                 const Tensor& x) {
  if (kind == "Embedding") return static_cast<nn::Embedding&>(m).lookup(x);
  if (kind == "models::TransformerLM")
    return static_cast<models::TransformerLM&>(m).forward_tokens(x);
  if (kind == "models::BertModel")
    return static_cast<models::BertModel&>(m).forward_tokens(x);
  return m.forward(ag::Variable(x));
}

}  // namespace hfta::tests
