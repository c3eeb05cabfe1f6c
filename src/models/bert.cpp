#include "models/bert.h"

#include "hfta/fusion.h"
#include "tensor/ops.h"

namespace hfta::models {

BertModel::BertModel(const BertConfig& cfg, Rng& rng) : cfg(cfg) {
  tok_embed = register_module(
      "tok_embed", std::make_shared<nn::Embedding>(cfg.vocab, cfg.hidden, rng));
  pos_embed = register_module(
      "pos_embed",
      std::make_shared<nn::Embedding>(cfg.seq_len, cfg.hidden, rng));
  embed_norm = register_module(
      "embed_norm",
      std::make_shared<nn::LayerNorm>(Shape{cfg.hidden}, 1e-5f, rng));
  for (int64_t l = 0; l < cfg.num_layers; ++l)
    layers.push_back(register_module(
        "layer" + std::to_string(l),
        std::make_shared<TransformerEncoderLayer>(cfg.hidden, cfg.num_heads,
                                                  cfg.ff_dim, cfg.dropout_p,
                                                  "gelu", rng)));
  mlm_head = register_module(
      "mlm_head", std::make_shared<nn::Linear>(cfg.hidden, cfg.vocab, true,
                                               rng));
}

ag::Variable BertModel::forward(const ag::Variable&) {
  HFTA_CHECK(false, "BertModel: use forward_tokens(tokens)");
  return ag::Variable();
}

ag::Variable BertModel::forward_tokens(const Tensor& tokens) {
  const int64_t N = tokens.size(0), S = tokens.size(1);
  Tensor positions({N, S});
  for (int64_t n = 0; n < N; ++n)
    for (int64_t s = 0; s < S; ++s)
      positions.at({n, s}) = static_cast<float>(s);
  ag::Variable h = ag::add(tok_embed->lookup(tokens),
                           pos_embed->lookup(positions));  // [N, S, E]
  h = embed_norm->forward(h);
  for (auto& l : layers) h = l->forward(h);  // bidirectional: no mask
  return mlm_head->forward(h);
}

std::shared_ptr<nn::Module> BertModel::clone() const {
  Rng rng(0);
  return cloned(*this, std::make_shared<BertModel>(cfg, rng));
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

// Planner lowering for the whole model (token-driven, so a single unit,
// like models::TransformerLM); load/store derive from the fused model's
// StateMap, which mirrors the per-model child names.
static const fused::LoweringRegistrar kBertModelLowering(
    "models::BertModel", [](const fused::LoweringContext& ctx) {
      const auto& ref = static_cast<const BertModel&>(ctx.reference());
      auto m = std::make_shared<FusedBertModel>(ctx.array_size, ref.cfg,
                                                *ctx.rng);
      return fused::Lowered{m, fused::Layout::kAny, fused::Layout::kAny};
    });

// Hand-fused BERT, driven through forward_tokens like FusedTransformerLM.
FusedBertModel::FusedBertModel(int64_t B, const BertConfig& cfg, Rng& rng)
    : fused::FusedModule(B), cfg(cfg) {
  tok_embed = register_module(
      "tok_embed",
      std::make_shared<fused::FusedEmbedding>(B, cfg.vocab, cfg.hidden, rng));
  pos_embed = register_module(
      "pos_embed", std::make_shared<fused::FusedEmbedding>(B, cfg.seq_len,
                                                           cfg.hidden, rng));
  embed_norm = register_module(
      "embed_norm", std::make_shared<fused::FusedLayerNorm>(
                        B, Shape{cfg.hidden}, 1e-5f, rng));
  for (int64_t l = 0; l < cfg.num_layers; ++l)
    layers.push_back(register_module(
        "layer" + std::to_string(l),
        std::make_shared<fused::FusedTransformerEncoderLayer>(
            B, cfg.hidden, cfg.num_heads, cfg.ff_dim, cfg.dropout_p, "gelu",
            rng)));
  mlm_head = register_module(
      "mlm_head", std::make_shared<fused::FusedLinear>(B, cfg.hidden,
                                                       cfg.vocab, true, rng));
}

ag::Variable FusedBertModel::forward(const ag::Variable&) {
  HFTA_CHECK(false, "FusedBertModel: use forward_tokens(tokens)");
  return ag::Variable();
}

ag::Variable FusedBertModel::forward_tokens(const Tensor& tokens) {
  HFTA_CHECK(tokens.dim() == 3 && tokens.size(0) == array_size_,
             "FusedBertModel: tokens must be [B, N, S]");
  const int64_t B = array_size_, N = tokens.size(1), S = tokens.size(2);
  Tensor positions({B, N, S});
  for (int64_t i = 0; i < B * N; ++i)
    for (int64_t s = 0; s < S; ++s)
      positions.data()[i * S + s] = static_cast<float>(s);
  ag::Variable h = ag::add(tok_embed->lookup(tokens),
                           pos_embed->lookup(positions));  // [B, N, S, E]
  h = embed_norm->forward(h);
  for (auto& l : layers) h = l->forward(h);
  ag::Variable flat = ag::reshape(h, {B, N * S, cfg.hidden});
  return ag::reshape(mlm_head->forward(flat), {B, N, S, cfg.vocab});
}

}  // namespace hfta::models
