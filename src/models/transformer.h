// Transformer language model (Vaswani et al. 2017) following the PyTorch
// word-LM example the paper benchmarks: token embedding + sinusoidal
// positions, a post-norm encoder stack with a causal mask, and a linear
// decoder. The paper's variant: 2 layers, 2 heads, hidden 128 (BERT-Tiny
// sized), WikiText-2, batch = seq = 32.
#pragma once

#include "hfta/fusion.h"
#include "nn/norm.h"

namespace hfta::models {

// Every module here takes an array size `B` last, the way nn::Linear does
// (nn/layers.h): B > 1 builds B independent models side by side on the
// model-major layout [B, N, S, E], which is exactly the fused form of B
// such models (paper Appendix B, "the fused multihead attention layer and
// the fused Transformer encoder layer"). The forward is the same at every
// B; config() reports the per-model constructor arguments.

/// Multi-head self-attention over [N, S, E] ([B, N, S, E] with B > 1).
class MultiheadAttention : public nn::Module {
 public:
  MultiheadAttention(int64_t embed_dim, int64_t num_heads, Rng& rng,
                     int64_t B = 1);
  ag::Variable forward(const ag::Variable& x) override;
  /// Optional additive mask [S, S] (e.g. the causal mask).
  ag::Variable forward_masked(const ag::Variable& x, const Tensor& mask);

  std::shared_ptr<nn::Linear> in_proj;   // E -> 3E
  std::shared_ptr<nn::Linear> out_proj;  // E -> E
  int64_t embed_dim, num_heads;
};

/// Post-norm encoder layer (as nn.TransformerEncoderLayer). Its array form
/// is a model-major planner step, so stacks of encoder layers fuse
/// automatically.
class TransformerEncoderLayer : public nn::Module {
 public:
  /// activation: "relu" or "gelu" (BERT).
  TransformerEncoderLayer(int64_t embed_dim, int64_t num_heads, int64_t ff_dim,
                          float dropout_p, const std::string& activation,
                          Rng& rng, int64_t B = 1);
  ag::Variable forward(const ag::Variable& x) override;
  ag::Variable forward_masked(const ag::Variable& x, const Tensor& mask);
  std::string kind_name() const override {
    return "models::TransformerEncoderLayer";
  }
  nn::ModuleConfig config() const override;
  std::shared_ptr<nn::Module> make_array(int64_t B, Rng& rng) const override;
  nn::ArrayLayout array_layout() const override {
    return nn::ArrayLayout::kModelMajor;
  }

  std::shared_ptr<MultiheadAttention> self_attn;
  std::shared_ptr<nn::Linear> linear1, linear2;
  std::shared_ptr<nn::LayerNorm> norm1, norm2;
  std::shared_ptr<nn::Dropout> drop;  // with B > 1, one mask stream
  bool use_gelu;
  int64_t array_size;
};

struct TransformerConfig {
  int64_t vocab = 50;
  int64_t embed_dim = 16;
  int64_t num_heads = 2;
  int64_t num_layers = 2;
  int64_t ff_dim = 32;
  int64_t seq_len = 16;
  float dropout_p = 0.f;

  static TransformerConfig tiny() { return {}; }
  /// Paper §H.1: 2 encoder layers, 2 heads, hidden 128, seq 32.
  static TransformerConfig paper() {
    return {33278, 128, 2, 2, 128, 32, 0.2f};
  }
};

/// Sinusoidal positional table [S, E].
Tensor sinusoidal_positions(int64_t seq_len, int64_t embed_dim);
/// Causal attention mask [S, S]: 0 on/below diagonal, -1e9 above.
Tensor causal_mask(int64_t seq_len);

/// Its array form is the LM at B, so B per-model LMs compile to a
/// single-step FusedArray holding one TransformerLM at B (token input makes
/// the LM a unit, not a chain).
class TransformerLM : public nn::Module {
 public:
  TransformerLM(const TransformerConfig& cfg, Rng& rng, int64_t B = 1);
  ag::Variable forward(const ag::Variable&) override;
  /// tokens: [N, S] integer ids -> logits [N, S, V] ([B, N, S] ->
  /// [B, N, S, V] with B > 1).
  ag::Variable forward_tokens(const Tensor& tokens);
  std::string kind_name() const override { return "models::TransformerLM"; }
  nn::ModuleConfig config() const override;
  std::shared_ptr<nn::Module> make_array(int64_t B, Rng& rng) const override;

  std::shared_ptr<nn::Embedding> embed;
  std::vector<std::shared_ptr<TransformerEncoderLayer>> layers;
  std::shared_ptr<nn::Linear> decoder;
  TransformerConfig cfg;  // per model
  int64_t array_size;
};

// The end-to-end benchmark names the fused LM by this type; it goes with
// the benchmark's next change.
using FusedTransformerLM = TransformerLM;

}  // namespace hfta::models
