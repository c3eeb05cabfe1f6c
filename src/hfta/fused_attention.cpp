#include "hfta/fused_attention.h"

namespace hfta::fused {

FusedMultiheadAttention::FusedMultiheadAttention(int64_t B, int64_t embed_dim,
                                                 int64_t num_heads, Rng& rng)
    : FusedModule(B), embed_dim(embed_dim), num_heads(num_heads) {
  HFTA_CHECK(embed_dim % num_heads == 0,
             "FusedMultiheadAttention: embed_dim % num_heads != 0");
  in_proj = register_module(
      "in_proj", std::make_shared<FusedLinear>(B, embed_dim, 3 * embed_dim,
                                               /*bias=*/true, rng));
  out_proj = register_module(
      "out_proj", std::make_shared<FusedLinear>(B, embed_dim, embed_dim,
                                                /*bias=*/true, rng));
}

ag::Variable FusedMultiheadAttention::forward(const ag::Variable& x) {
  return forward_masked(x, Tensor());
}

ag::Variable FusedMultiheadAttention::forward_masked(const ag::Variable& x,
                                                     const Tensor& mask) {
  HFTA_CHECK(x.dim() == 4 && x.size(0) == array_size_ &&
                 x.size(3) == embed_dim,
             "FusedMultiheadAttention: expected [B, N, S, E], got ",
             shape_str(x.shape()));
  const int64_t B = array_size_, N = x.size(1), S = x.size(2);
  const int64_t E = embed_dim;
  // The B*N sequences of the array are one attention problem: model b's
  // sequence n is row b*N + n of the [B*N, S, 3E] view of the projection.
  ag::Variable qkv = in_proj->forward(ag::reshape(x, {B, N * S, E}));
  ag::Variable ctx =
      ag::attention(ag::reshape(qkv, {B * N, S, 3 * E}), num_heads, mask);
  ag::Variable out = out_proj->forward(ag::reshape(ctx, {B, N * S, E}));
  return ag::reshape(out, {B, N, S, E});
}

FusedTransformerEncoderLayer::FusedTransformerEncoderLayer(
    int64_t B, int64_t embed_dim, int64_t num_heads, int64_t ff_dim,
    float dropout_p, const std::string& activation, Rng& rng)
    : FusedModule(B), use_gelu(activation == "gelu") {
  HFTA_CHECK(activation == "relu" || activation == "gelu",
             "activation must be relu or gelu, got ", activation);
  self_attn = register_module(
      "self_attn",
      std::make_shared<FusedMultiheadAttention>(B, embed_dim, num_heads, rng));
  linear1 = register_module(
      "linear1", std::make_shared<FusedLinear>(B, embed_dim, ff_dim, true, rng));
  linear2 = register_module(
      "linear2", std::make_shared<FusedLinear>(B, ff_dim, embed_dim, true, rng));
  norm1 = register_module(
      "norm1", std::make_shared<FusedLayerNorm>(B, Shape{embed_dim}, 1e-5f, rng));
  norm2 = register_module(
      "norm2", std::make_shared<FusedLayerNorm>(B, Shape{embed_dim}, 1e-5f, rng));
  drop = register_module("drop",
                         std::make_shared<nn::Dropout>(dropout_p, 0xd0));
}

ag::Variable FusedTransformerEncoderLayer::forward(const ag::Variable& x) {
  return forward_masked(x, Tensor());
}

ag::Variable FusedTransformerEncoderLayer::forward_masked(
    const ag::Variable& x, const Tensor& mask) {
  const int64_t B = array_size_, N = x.size(1), S = x.size(2);
  const int64_t E = x.size(3);
  ag::Variable a = self_attn->forward_masked(x, mask);
  ag::Variable h = norm1->forward(ag::add(x, drop->forward(a)));
  ag::Variable flat = ag::reshape(h, {B, N * S, E});
  ag::Variable f = linear1->forward(flat);
  f = use_gelu ? ag::gelu(f) : ag::relu(f);
  f = linear2->forward(drop->forward(f));
  f = ag::reshape(f, {B, N, S, E});
  return norm2->forward(ag::add(h, drop->forward(f)));
}

}  // namespace hfta::fused
