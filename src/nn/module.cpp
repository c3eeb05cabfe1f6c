#include "nn/module.h"

#include <algorithm>
#include <map>

#include "nn/layers.h"

namespace hfta::nn {

std::vector<std::pair<std::string, Tensor>> named_buffers_recursive(
    const Module& m) {
  std::vector<std::pair<std::string, Tensor>> out;
  for (const auto& kv : m.named_buffers()) out.push_back(kv);
  for (const auto& [name, child] : m.named_children())
    for (auto& kv : named_buffers_recursive(*child))
      out.emplace_back(name + "." + kv.first, kv.second);
  return out;
}

namespace {

// Dropout's mask rng is neither a parameter nor a buffer; carry its CURRENT
// stream state over so a copy replays the source's masks (the clone
// contract, DESIGN.md §5). Walks structurally parallel trees.
template <typename D>
void assign_keeping_mode(const Module& src, Module& dst) {
  const auto* s = dynamic_cast<const D*>(&src);
  auto* d = dynamic_cast<D*>(&dst);
  if (s == nullptr || d == nullptr) return;
  const bool mode = d->is_training();  // train/eval is not copy_state's job
  *d = *s;
  d->train(mode);
}

void sync_mask_streams(const Module& src, Module& dst) {
  assign_keeping_mode<Dropout>(src, dst);
  assign_keeping_mode<Dropout2d>(src, dst);
  const auto& sc = src.named_children();
  const auto& dc = dst.named_children();
  for (size_t i = 0; i < sc.size() && i < dc.size(); ++i)
    sync_mask_streams(*sc[i].second, *dc[i].second);
}

[[noreturn]] void transfer_error(const std::string& path,
                                 const std::string& why) {
  throw Error("state transfer: '" + path + "' " + why);
}

/// The one state walk (load_model/store_model): pairs block b of every
/// array tensor with the per-model tensor at the same path, checks both
/// directions, then calls copy(array block b, per-model tensor, numel) for
/// each pair. The path map is built once per call, so a whole model
/// (MobileNet, BERT: 100+ tensors) moves in O(T log T), not O(T^2).
template <typename Copy>
void walk_blocks(const Module& array, int64_t B, int64_t b,
                 const Module& per_model, const Copy& copy) {
  HFTA_CHECK(b >= 0 && b < B, "state transfer: model index ", b,
             " outside [0, ", B, ")");
  struct Twin {
    Tensor tensor;
    bool visited = false;
  };
  std::map<std::string, Twin> twins;
  for (const auto& [path, var] : per_model.named_parameters())
    twins.emplace(path, Twin{var.value()});
  for (const auto& [path, t] : named_buffers_recursive(per_model))
    twins.emplace(path, Twin{t});

  std::vector<std::pair<Tensor, Tensor>> pairs;  // (array, per-model)
  auto visit = [&](const std::string& path, const Tensor& arr) {
    const auto it = twins.find(path);
    if (it == twins.end())
      transfer_error(path, "is in the array but not in the per-model tree");
    Twin& twin = it->second;
    if (twin.visited) transfer_error(path, "is visited twice in the array");
    twin.visited = true;
    if (arr.numel() != B * twin.tensor.numel()) {
      transfer_error(path, "holds " + std::to_string(arr.numel()) +
                               " elements, not B(" + std::to_string(B) +
                               ") x per-model " +
                               std::to_string(twin.tensor.numel()));
    }
    pairs.emplace_back(arr, twin.tensor);
  };
  for (const auto& [path, var] : array.named_parameters())
    visit(path, var.value());
  for (const auto& [path, t] : named_buffers_recursive(array)) visit(path, t);
  for (const auto& [path, twin] : twins)
    if (!twin.visited)
      transfer_error(path, "is in the per-model tree but not in the array");

  for (auto& [arr, pm] : pairs)
    copy(arr.data() + b * pm.numel(), pm.data(), pm.numel());
}

}  // namespace

void load_model(Module& array, int64_t B, int64_t b,
                const Module& per_model) {
  walk_blocks(array, B, b, per_model,
              [](float* block, float* pm, int64_t n) {
                std::copy(pm, pm + n, block);
              });
}

void store_model(const Module& array, int64_t B, int64_t b,
                 Module& per_model) {
  walk_blocks(array, B, b, per_model,
              [](float* block, float* pm, int64_t n) {
                std::copy(block, block + n, pm);
              });
}

void copy_state(const Module& src, Module& dst) {
  load_model(dst, 1, 0, src);
  sync_mask_streams(src, dst);
}

bool has_state(const Module& m) {
  return !m.named_parameters().empty() || !named_buffers_recursive(m).empty();
}

const Module* Module::find(const std::string& path) const {
  if (path.empty()) return this;
  const size_t dot = path.find('.');
  const std::string head = path.substr(0, dot);
  const std::string rest = dot == std::string::npos ? "" : path.substr(dot + 1);
  for (const auto& [name, child] : children_)
    if (name == head) return child->find(rest);
  return nullptr;
}

Module* Module::find(const std::string& path) {
  return const_cast<Module*>(
      static_cast<const Module*>(this)->find(path));
}

std::vector<ag::Variable> Module::parameters() const {
  std::vector<ag::Variable> out;
  for (auto& [name, v] : named_parameters()) out.push_back(v);
  return out;
}

std::vector<std::pair<std::string, ag::Variable>> Module::named_parameters()
    const {
  std::vector<std::pair<std::string, ag::Variable>> out;
  collect("", &out);
  return out;
}

void Module::collect(
    const std::string& prefix,
    std::vector<std::pair<std::string, ag::Variable>>* out) const {
  for (const auto& [name, v] : params_) out->emplace_back(prefix + name, v);
  for (const auto& [name, child] : children_)
    child->collect(prefix + name + ".", out);
}

int64_t Module::num_parameters() const {
  int64_t n = 0;
  for (const auto& p : parameters()) n += p.numel();
  return n;
}

void Module::zero_grad() {
  for (auto& p : parameters()) p.zero_grad();
}

void Module::train(bool mode) {
  training_ = mode;
  for (auto& [name, child] : children_) child->train(mode);
}

ag::Variable& Module::register_parameter(std::string name, Tensor value) {
  params_.emplace_back(std::move(name),
                       ag::Variable(std::move(value), /*requires_grad=*/true));
  return params_.back().second;
}

Tensor& Module::register_buffer(std::string name, Tensor value) {
  buffers_.emplace_back(std::move(name), std::move(value));
  return buffers_.back().second;
}

std::shared_ptr<Module> Module::clone() const {
  Rng rng(0);  // seeds an init that copy_state overwrites
  std::shared_ptr<Module> m = make_array(1, rng);
  if (m != nullptr) {
    copy_state(*this, *m);
    m->train(is_training());
  }
  return m;
}

Sequential::Sequential(std::vector<std::shared_ptr<Module>> mods) {
  for (size_t i = 0; i < mods.size(); ++i) push_back(mods[i]);
}

void Sequential::push_back(std::shared_ptr<Module> m) {
  push_back(std::to_string(mods_.size()), std::move(m));
}

void Sequential::push_back(std::string name, std::shared_ptr<Module> m) {
  register_module(std::move(name), m);
  mods_.push_back(std::move(m));
}

ag::Variable Sequential::forward(const ag::Variable& x) {
  ag::Variable h = x;
  for (auto& m : mods_) h = m->forward(h);
  return h;
}

std::shared_ptr<Module> Sequential::clone() const {
  auto out = std::make_shared<Sequential>();
  for (const auto& [name, child] : named_children()) {
    std::shared_ptr<Module> c = child->clone();
    if (c == nullptr) return nullptr;
    out->push_back(name, std::move(c));
  }
  out->train(is_training());
  return out;
}

}  // namespace hfta::nn
