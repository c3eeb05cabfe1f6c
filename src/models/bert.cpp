#include "models/bert.h"

#include "tensor/ops.h"

namespace hfta::models {

BertModel::BertModel(const BertConfig& cfg, Rng& rng, int64_t B)
    : cfg(cfg), array_size(B) {
  tok_embed = register_module(
      "tok_embed",
      std::make_shared<nn::Embedding>(cfg.vocab, cfg.hidden, rng, B));
  pos_embed = register_module(
      "pos_embed",
      std::make_shared<nn::Embedding>(cfg.seq_len, cfg.hidden, rng, B));
  embed_norm = register_module(
      "embed_norm",
      std::make_shared<nn::LayerNorm>(Shape{cfg.hidden}, 1e-5f, rng, B));
  for (int64_t l = 0; l < cfg.num_layers; ++l)
    layers.push_back(register_module(
        "layer" + std::to_string(l),
        std::make_shared<TransformerEncoderLayer>(cfg.hidden, cfg.num_heads,
                                                  cfg.ff_dim, cfg.dropout_p,
                                                  "gelu", rng, B)));
  mlm_head = register_module(
      "mlm_head",
      std::make_shared<nn::Linear>(cfg.hidden, cfg.vocab, true, rng, B));
}

ag::Variable BertModel::forward(const ag::Variable&) {
  HFTA_CHECK(false, "BertModel: use forward_tokens(tokens)");
  return ag::Variable();
}

ag::Variable BertModel::forward_tokens(const Tensor& tokens) {
  HFTA_CHECK(tokens.dim() == (array_size > 1 ? 3 : 2),
             "BertModel: tokens must be ",
             array_size > 1 ? "[B, N, S]" : "[N, S]", ", got ",
             shape_str(tokens.shape()));
  const int64_t S = tokens.size(-1);
  Tensor positions(tokens.shape());
  for (int64_t i = 0; i < tokens.numel() / S; ++i)
    for (int64_t s = 0; s < S; ++s)
      positions.data()[i * S + s] = static_cast<float>(s);
  ag::Variable h = ag::add(tok_embed->lookup(tokens),
                           pos_embed->lookup(positions));  // [..., S, E]
  h = embed_norm->forward(h);
  for (auto& l : layers) h = l->forward(h);  // bidirectional: no mask
  return mlm_head->forward(h);
}

// Token-driven, so a single planner unit, like models::TransformerLM.
std::shared_ptr<nn::Module> BertModel::make_array(int64_t B, Rng& rng) const {
  return std::make_shared<BertModel>(cfg, rng, B * array_size);
}

nn::ModuleConfig BertModel::config() const {
  nn::ModuleConfig c;
  c.set("vocab", cfg.vocab);
  c.set("hidden", cfg.hidden);
  c.set("num_heads", cfg.num_heads);
  c.set("num_layers", cfg.num_layers);
  c.set("ff_dim", cfg.ff_dim);
  c.set("seq_len", cfg.seq_len);
  c.set("dropout_p", static_cast<double>(cfg.dropout_p));
  return c;
}

}  // namespace hfta::models
