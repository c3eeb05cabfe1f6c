// Fused multi-head attention and fused Transformer encoder layer, built on
// the Appendix-B fusion rules (the paper: "Building on top of these fusion
// rules, we further develop the fused multihead attention layer and the
// fused Transformer encoder layer").
//
// Layout: model-major [B, N, S, E] (N = batch, S = sequence, E = embed).
#pragma once

#include "hfta/fused_norm.h"
#include "hfta/fused_ops.h"

namespace hfta::fused {

class FusedMultiheadAttention : public FusedModule {
 public:
  FusedMultiheadAttention(int64_t B, int64_t embed_dim, int64_t num_heads,
                          Rng& rng);
  /// x: [B, N, S, E] -> [B, N, S, E]. Optional additive mask [S, S]
  /// (e.g. causal mask with -inf above the diagonal).
  ag::Variable forward(const ag::Variable& x) override;
  ag::Variable forward_masked(const ag::Variable& x, const Tensor& mask);

  std::shared_ptr<FusedLinear> in_proj;   // E -> 3E
  std::shared_ptr<FusedLinear> out_proj;  // E -> E
  int64_t embed_dim, num_heads;
};

class FusedTransformerEncoderLayer : public FusedModule {
 public:
  /// activation: "relu" or "gelu" (BERT).
  FusedTransformerEncoderLayer(int64_t B, int64_t embed_dim, int64_t num_heads,
                               int64_t ff_dim, float dropout_p,
                               const std::string& activation, Rng& rng);
  /// x: [B, N, S, E]; post-norm residual structure (as nn.TransformerEncoderLayer).
  ag::Variable forward(const ag::Variable& x) override;
  ag::Variable forward_masked(const ag::Variable& x, const Tensor& mask);

  std::shared_ptr<FusedMultiheadAttention> self_attn;
  std::shared_ptr<FusedLinear> linear1, linear2;
  std::shared_ptr<FusedLayerNorm> norm1, norm2;
  std::shared_ptr<nn::Dropout> drop;  // one mask stream over the array
  bool use_gelu;
};

}  // namespace hfta::fused
