#include "hfta/fused_ops.h"

#include <map>

#include "tensor/ops.h"

namespace hfta::fused {

namespace {

/// Every parameter and buffer of `m` as a storage-sharing handle keyed by
/// dotted path. Built once per transfer, so a whole model (MobileNet, BERT:
/// 100+ tensors) moves in O(T), not O(T^2).
std::map<std::string, Tensor> named_tensors(const nn::Module& m) {
  std::map<std::string, Tensor> out;
  for (const auto& [name, var] : m.named_parameters())
    out.emplace(name, var.value());
  for (const auto& [name, t] : nn::named_buffers_recursive(m))
    out.emplace(name, t);
  return out;
}

/// Calls copy(array block b, per-model tensor, block numel) for every
/// parameter and buffer of `array`, after the checks load_model/store_model
/// document.
template <typename Copy>
void for_each_block(const nn::Module& array, int64_t B, int64_t b,
                    const nn::Module& per_model, const Copy& copy) {
  HFTA_CHECK(b >= 0 && b < B, "state transfer: model index ", b,
             " outside [0, ", B, ")");
  const std::map<std::string, Tensor> per = named_tensors(per_model);
  auto visit = [&](const std::string& path, Tensor arr) {
    const auto it = per.find(path);
    HFTA_CHECK(it != per.end(), "state transfer: per-model tensor '", path,
               "' not found in the per-model tree");
    Tensor pm = it->second;
    HFTA_CHECK(arr.numel() == B * pm.numel(), "state transfer: '", path,
               "' holds ", arr.numel(), " elements, not B(", B,
               ") x per-model ", pm.numel());
    copy(arr.data() + b * pm.numel(), pm.data(), pm.numel());
  };
  for (const auto& [path, var] : array.named_parameters())
    visit(path, var.value());
  for (const auto& [path, t] : nn::named_buffers_recursive(array))
    visit(path, t);
}

}  // namespace

void load_model(nn::Module& array, int64_t B, int64_t b,
                const nn::Module& per_model) {
  for_each_block(array, B, b, per_model,
                 [](float* block, const float* pm, int64_t n) {
                   std::copy(pm, pm + n, block);
                 });
}

void store_model(const nn::Module& array, int64_t B, int64_t b,
                 nn::Module& per_model) {
  for_each_block(array, B, b, per_model,
                 [](const float* block, float* pm, int64_t n) {
                   std::copy(block, block + n, pm);
                 });
}

std::vector<FusedParam> collect_fused_parameters(nn::Module& root,
                                                 int64_t array_size) {
  // All fused modules pack model blocks along dim 0, so any parameter in the
  // tree can be treated as a FusedParam of the tree's array size as long as
  // its numel divides evenly — validated here.
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
