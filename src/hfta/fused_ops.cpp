#include "hfta/fused_ops.h"

#include <map>

#include "tensor/ops.h"

namespace hfta::fused {

namespace {

// Writes `src` into the b-th of B equal blocks along dim 0 of `dst`.
void copy_into_block(Tensor& dst, const Tensor& src, int64_t b, int64_t B) {
  const int64_t block = dst.numel() / B;
  HFTA_CHECK(src.numel() == block, "fused block copy: numel mismatch ",
             src.numel(), " vs ", block);
  std::copy(src.data(), src.data() + block, dst.data() + b * block);
}

void copy_from_block(const Tensor& src, Tensor& dst, int64_t b, int64_t B) {
  const int64_t block = src.numel() / B;
  HFTA_CHECK(dst.numel() == block, "fused block copy: numel mismatch ",
             dst.numel(), " vs ", block);
  std::copy(src.data() + b * block, src.data() + (b + 1) * block, dst.data());
}

}  // namespace

// ---- state schema -----------------------------------------------------------

StateMap state_map(const nn::Module& fused) {
  StateMap out;
  for (const auto& [name, var] : fused.named_parameters())
    out.push_back(param_entry(name, var));
  for (const auto& [name, buf] : nn::named_buffers_recursive(fused))
    out.push_back(buffer_entry(name, buf));
  return out;
}

void FusedModule::load_model(int64_t b, const nn::Module& m) {
  load_state(state_map(*this), array_size_, b, m);
}

void FusedModule::store_model(int64_t b, nn::Module& m) const {
  store_state(state_map(*this), array_size_, b, m);
}

namespace {

/// One pass over the per-model tree: every parameter and buffer as a
/// storage-sharing handle keyed by dotted path. Built once per
/// load_state/store_state call so whole-model schemas (MobileNet, BERT:
/// 100+ entries) stay O(T), not O(T^2).
std::map<std::string, Tensor> collect_per_model_tensors(
    const nn::Module& root) {
  std::map<std::string, Tensor> out;
  for (const auto& [name, var] : root.named_parameters())
    out.emplace(name, var.value());
  for (const auto& [name, t] : nn::named_buffers_recursive(root))
    out.emplace(name, t);
  return out;
}

Tensor find_per_model_tensor(const std::map<std::string, Tensor>& tensors,
                             const std::string& path) {
  const auto it = tensors.find(path);
  HFTA_CHECK(it != tensors.end(), "state transfer: per-model tensor '", path,
             "' not found in the per-model tree");
  return it->second;
}

/// Moves model b's block between the fused tensor and the per-model one,
/// in either direction.
void transfer_slice(const StateEntry& e, int64_t B, int64_t b,
                    Tensor per_model, bool to_fused) {
  // StateEntry holds handles; copying re-opens mutable access to storage.
  Tensor fused = e.is_buffer() ? e.fused_buffer
                               : ag::Variable(e.fused_param).mutable_value();
  if (to_fused) {
    copy_into_block(fused, per_model, b, B);
  } else {
    copy_from_block(fused, per_model, b, B);
  }
}

void check_model_index(int64_t B, int64_t b) {
  HFTA_CHECK(b >= 0 && b < B, "state transfer: model index ", b,
             " outside [0, ", B, ")");
}

}  // namespace

void load_state(const StateMap& map, int64_t B, int64_t b,
                const nn::Module& src) {
  check_model_index(B, b);
  if (map.empty()) return;
  const std::map<std::string, Tensor> tensors = collect_per_model_tensors(src);
  for (const StateEntry& e : map)
    transfer_slice(e, B, b, find_per_model_tensor(tensors, e.path),
                   /*to_fused=*/true);
}

void store_state(const StateMap& map, int64_t B, int64_t b, nn::Module& dst) {
  check_model_index(B, b);
  if (map.empty()) return;
  const std::map<std::string, Tensor> tensors = collect_per_model_tensors(dst);
  for (const StateEntry& e : map)
    transfer_slice(e, B, b, find_per_model_tensor(tensors, e.path),
                   /*to_fused=*/false);
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
