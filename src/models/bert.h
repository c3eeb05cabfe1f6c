// BERT (Devlin et al. 2019) in the compact variants of Turc et al. 2019 —
// the paper benchmarks BERT-Medium (8 layers, hidden 512, 8 heads) on the
// masked-LM task over WikiText-2. Token + learned position embeddings,
// GELU encoder stack, linear MLM head.
#pragma once

#include "models/transformer.h"

namespace hfta::models {

struct BertConfig {
  int64_t vocab = 60;
  int64_t hidden = 16;
  int64_t num_heads = 2;
  int64_t num_layers = 2;
  int64_t ff_dim = 32;
  int64_t seq_len = 16;
  float dropout_p = 0.f;

  static BertConfig tiny() { return {}; }
  /// BERT-Medium (Turc et al.): L=8, H=512, A=8, FF=2048; paper: seq 32.
  static BertConfig medium() {
    return {30522, 512, 8, 8, 2048, 32, 0.1f};
  }
};

/// Takes an array size B last, like models::TransformerLM: B > 1 is the
/// fused form of B models on [B, N, S] tokens (what make_array builds).
class BertModel : public nn::Module {
 public:
  BertModel(const BertConfig& cfg, Rng& rng, int64_t B = 1);
  ag::Variable forward(const ag::Variable&) override;
  /// tokens: [N, S] -> MLM logits [N, S, V] ([B, N, S] -> [B, N, S, V]
  /// with B > 1).
  ag::Variable forward_tokens(const Tensor& tokens);
  std::shared_ptr<nn::Module> make_array(int64_t B, Rng& rng) const override;
  std::string kind_name() const override { return "models::BertModel"; }
  nn::ModuleConfig config() const override;

  std::shared_ptr<nn::Embedding> tok_embed, pos_embed;
  std::shared_ptr<nn::LayerNorm> embed_norm;
  std::vector<std::shared_ptr<TransformerEncoderLayer>> layers;
  std::shared_ptr<nn::Linear> mlm_head;
  BertConfig cfg;  // per model
  int64_t array_size;
};

}  // namespace hfta::models
