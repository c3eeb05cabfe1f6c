#include "models/transformer.h"

#include <cmath>

#include "tensor/ops.h"

namespace hfta::models {

MultiheadAttention::MultiheadAttention(int64_t embed_dim, int64_t num_heads,
                                       Rng& rng, int64_t B)
    : embed_dim(embed_dim), num_heads(num_heads) {
  HFTA_CHECK(embed_dim % num_heads == 0, "embed_dim % num_heads != 0");
  in_proj = register_module(
      "in_proj", std::make_shared<nn::Linear>(embed_dim, 3 * embed_dim, true,
                                              rng, B));
  out_proj = register_module(
      "out_proj", std::make_shared<nn::Linear>(embed_dim, embed_dim, true,
                                               rng, B));
}

ag::Variable MultiheadAttention::forward(const ag::Variable& x) {
  return forward_masked(x, Tensor());
}

ag::Variable MultiheadAttention::forward_masked(const ag::Variable& x,
                                                const Tensor& mask) {
  // With B > 1 the B*N sequences of the array are one attention problem:
  // model b's sequence n is row (b, n) of the [B, N, S, 3E] projection.
  ag::Variable qkv = in_proj->forward(x);  // [..., S, 3E]
  return out_proj->forward(ag::attention(qkv, num_heads, mask));
}

TransformerEncoderLayer::TransformerEncoderLayer(int64_t embed_dim,
                                                 int64_t num_heads,
                                                 int64_t ff_dim,
                                                 float dropout_p,
                                                 const std::string& activation,
                                                 Rng& rng, int64_t B)
    : use_gelu(activation == "gelu"), array_size(B) {
  HFTA_CHECK(activation == "relu" || activation == "gelu",
             "activation must be relu or gelu, got ", activation);
  self_attn = register_module(
      "self_attn",
      std::make_shared<MultiheadAttention>(embed_dim, num_heads, rng, B));
  linear1 = register_module(
      "linear1", std::make_shared<nn::Linear>(embed_dim, ff_dim, true, rng, B));
  linear2 = register_module(
      "linear2", std::make_shared<nn::Linear>(ff_dim, embed_dim, true, rng, B));
  norm1 = register_module("norm1", std::make_shared<nn::LayerNorm>(
                                       Shape{embed_dim}, 1e-5f, rng, B));
  norm2 = register_module("norm2", std::make_shared<nn::LayerNorm>(
                                       Shape{embed_dim}, 1e-5f, rng, B));
  drop = register_module("drop", std::make_shared<nn::Dropout>(dropout_p));
}

ag::Variable TransformerEncoderLayer::forward(const ag::Variable& x) {
  return forward_masked(x, Tensor());
}

ag::Variable TransformerEncoderLayer::forward_masked(const ag::Variable& x,
                                                     const Tensor& mask) {
  ag::Variable a = self_attn->forward_masked(x, mask);
  ag::Variable h = norm1->forward(ag::add(x, drop->forward(a)));
  ag::Variable f = linear1->forward(h);
  f = use_gelu ? ag::gelu(f) : ag::relu(f);
  f = linear2->forward(drop->forward(f));
  return norm2->forward(ag::add(h, drop->forward(f)));
}

nn::ModuleConfig TransformerEncoderLayer::config() const {
  nn::ModuleConfig c;
  c.set("embed_dim", self_attn->embed_dim);
  c.set("num_heads", self_attn->num_heads);
  c.set("ff_dim", linear1->out_features);
  c.set("gelu", static_cast<int64_t>(use_gelu));
  c.set("dropout_p", static_cast<double>(drop->p));
  return c;
}

// B congruent encoder layers -> one layer at B on the model-major layout
// ([B, N, S, E]).
std::shared_ptr<nn::Module> TransformerEncoderLayer::make_array(
    int64_t B, Rng& rng) const {
  return std::make_shared<TransformerEncoderLayer>(
      self_attn->embed_dim, self_attn->num_heads, linear1->out_features,
      drop->p, use_gelu ? "gelu" : "relu", rng, B * array_size);
}

Tensor sinusoidal_positions(int64_t seq_len, int64_t embed_dim) {
  Tensor pe({seq_len, embed_dim});
  for (int64_t s = 0; s < seq_len; ++s) {
    for (int64_t e = 0; e < embed_dim; e += 2) {
      const double freq =
          std::exp(-std::log(10000.0) * static_cast<double>(e) /
                   static_cast<double>(embed_dim));
      pe.at({s, e}) = static_cast<float>(std::sin(s * freq));
      if (e + 1 < embed_dim)
        pe.at({s, e + 1}) = static_cast<float>(std::cos(s * freq));
    }
  }
  return pe;
}

Tensor causal_mask(int64_t seq_len) {
  Tensor m({seq_len, seq_len});
  for (int64_t i = 0; i < seq_len; ++i)
    for (int64_t j = i + 1; j < seq_len; ++j) m.at({i, j}) = -1e9f;
  return m;
}

TransformerLM::TransformerLM(const TransformerConfig& cfg, Rng& rng,
                             int64_t B)
    : cfg(cfg), array_size(B) {
  embed = register_module("embed", std::make_shared<nn::Embedding>(
                                       cfg.vocab, cfg.embed_dim, rng, B));
  for (int64_t l = 0; l < cfg.num_layers; ++l)
    layers.push_back(register_module(
        "layer" + std::to_string(l),
        std::make_shared<TransformerEncoderLayer>(cfg.embed_dim, cfg.num_heads,
                                                  cfg.ff_dim, cfg.dropout_p,
                                                  "relu", rng, B)));
  decoder = register_module(
      "decoder",
      std::make_shared<nn::Linear>(cfg.embed_dim, cfg.vocab, true, rng, B));
}

ag::Variable TransformerLM::forward(const ag::Variable&) {
  HFTA_CHECK(false, "TransformerLM: use forward_tokens(tokens)");
  return ag::Variable();
}

ag::Variable TransformerLM::forward_tokens(const Tensor& tokens) {
  HFTA_CHECK(tokens.dim() == (array_size > 1 ? 3 : 2),
             "TransformerLM: tokens must be ",
             array_size > 1 ? "[B, N, S]" : "[N, S]", ", got ",
             shape_str(tokens.shape()));
  const int64_t S = tokens.size(-1);
  ag::Variable h = embed->lookup(tokens);  // [..., S, E]
  h = ag::mul_scalar(h, std::sqrt(static_cast<float>(cfg.embed_dim)));
  h = ag::add(h, ag::constant(sinusoidal_positions(S, cfg.embed_dim)));
  const Tensor mask = causal_mask(S);
  for (auto& l : layers) h = l->forward_masked(h, mask);
  return decoder->forward(h);  // [..., S, V]
}

nn::ModuleConfig TransformerLM::config() const {
  nn::ModuleConfig c;
  c.set("vocab", cfg.vocab);
  c.set("embed_dim", cfg.embed_dim);
  c.set("num_heads", cfg.num_heads);
  c.set("num_layers", cfg.num_layers);
  c.set("ff_dim", cfg.ff_dim);
  c.set("dropout_p", static_cast<double>(cfg.dropout_p));
  return c;
}

// The LM at B is driven through forward_tokens, so its plan is a single
// unit rather than a chain.
std::shared_ptr<nn::Module> TransformerLM::make_array(int64_t B,
                                                      Rng& rng) const {
  return std::make_shared<TransformerLM>(cfg, rng, B * array_size);
}

}  // namespace hfta::models
