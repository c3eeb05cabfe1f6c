#include "hfta/fused_ops.h"

#include "hfta/fusion.h"
#include "tensor/ops.h"

namespace hfta::fused {

std::vector<FusedParam> collect_fused_parameters(nn::Module& root,
                                                 int64_t array_size) {
  // All fused modules pack model blocks along dim 0, so any parameter in the
  // tree can be treated as a FusedParam of the tree's array size as long as
  // its numel divides evenly — validated here. A masked-off unit's replicas
  // are not fused: each belongs to one model, so reading one as B blocks
  // would step parts of it with the other models' hyper-parameters.
  const auto* array = dynamic_cast<const FusedArray*>(&root);
  if (array != nullptr && array_size > 1) {
    for (const FusedArray::Step& s : array->steps()) {
      HFTA_CHECK(s.fused, "collect_fused_parameters: unit ", s.unit, " ('",
                 s.path, "') is masked off, so its parameters are not fused "
                 "over B=", array_size, " — step this array with a one-model "
                 "optimizer over parameters() (uniform hyper-parameters), "
                 "or fuse the unit");
    }
  }
  std::vector<FusedParam> out;
  for (auto& [name, p] : root.named_parameters()) {
    HFTA_CHECK(p.numel() % array_size == 0, "parameter ", name, " (numel ",
               p.numel(), ") is not fused over B=", array_size);
    out.push_back(FusedParam{p, array_size});
  }
  return out;
}

// ---- layout converters ---------------------------------------------------------

ag::Variable to_model_major(const ag::Variable& x, int64_t B) {
  HFTA_CHECK(x.dim() >= 2 && x.size(1) % B == 0,
             "to_model_major: dim1 not divisible by B");
  const int64_t N = x.size(0);
  const int64_t C = x.size(1) / B;
  Shape mid = {N, B, C};
  for (int64_t i = 2; i < x.dim(); ++i) mid.push_back(x.size(i));
  // With one model the permute only moves a size-1 dim: a reshape.
  if (B == 1) {
    std::swap(mid[0], mid[1]);
    return ag::reshape(x, mid);
  }
  ag::Variable r = ag::reshape(x, mid);
  std::vector<int64_t> perm(static_cast<size_t>(r.dim()));
  perm[0] = 1;
  perm[1] = 0;
  for (int64_t i = 2; i < r.dim(); ++i) perm[static_cast<size_t>(i)] = i;
  return ag::permute(r, perm);
}

ag::Variable to_channel_fused(const ag::Variable& x) {
  HFTA_CHECK(x.dim() >= 3, "to_channel_fused: needs [B, N, C, ...]");
  if (x.size(0) == 1) {
    Shape out(x.shape().begin() + 1, x.shape().end());
    return ag::reshape(x, out);
  }
  std::vector<int64_t> perm(static_cast<size_t>(x.dim()));
  perm[0] = 1;
  perm[1] = 0;
  for (int64_t i = 2; i < x.dim(); ++i) perm[static_cast<size_t>(i)] = i;
  ag::Variable p = ag::permute(x, perm);  // [N, B, C, ...]
  Shape out = {p.size(0), p.size(1) * p.size(2)};
  for (int64_t i = 3; i < p.dim(); ++i) out.push_back(p.size(i));
  return ag::reshape(p, out);
}

Tensor pack_channel_fused(const std::vector<Tensor>& xs) {
  HFTA_CHECK(!xs.empty(), "pack_channel_fused: empty");
  return ops::concat(xs, 1);
}

std::vector<Tensor> unpack_channel_fused(const Tensor& x, int64_t B) {
  HFTA_CHECK(x.size(1) % B == 0, "unpack_channel_fused: dim1 % B != 0");
  return ops::chunk(x, B, 1);
}

Tensor pack_model_major(const std::vector<Tensor>& xs) {
  HFTA_CHECK(!xs.empty(), "pack_model_major: empty");
  std::vector<Tensor> un;
  un.reserve(xs.size());
  for (const Tensor& t : xs) un.push_back(t.unsqueeze(0));
  return ops::concat(un, 0);
}

}  // namespace hfta::fused
