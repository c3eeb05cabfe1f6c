#include "nn/module.h"

#include "nn/layers.h"

namespace hfta::nn {

const char* layer_kind_name(LayerKind kind) {
  switch (kind) {
    case LayerKind::kCustom: return "Custom";
    case LayerKind::kSequential: return "Sequential";
    case LayerKind::kLinear: return "Linear";
    case LayerKind::kConv1d: return "Conv1d";
    case LayerKind::kConv2d: return "Conv2d";
    case LayerKind::kConvTranspose1d: return "ConvTranspose1d";
    case LayerKind::kConvTranspose2d: return "ConvTranspose2d";
    case LayerKind::kEmbedding: return "Embedding";
    case LayerKind::kBatchNorm1d: return "BatchNorm1d";
    case LayerKind::kBatchNorm2d: return "BatchNorm2d";
    case LayerKind::kLayerNorm: return "LayerNorm";
    case LayerKind::kMaxPool2d: return "MaxPool2d";
    case LayerKind::kAdaptiveAvgPool2d: return "AdaptiveAvgPool2d";
    case LayerKind::kDropout: return "Dropout";
    case LayerKind::kDropout2d: return "Dropout2d";
    case LayerKind::kFlatten: return "Flatten";
    case LayerKind::kGlobalMaxPool1d: return "GlobalMaxPool1d";
    case LayerKind::kReLU: return "ReLU";
    case LayerKind::kReLU6: return "ReLU6";
    case LayerKind::kLeakyReLU: return "LeakyReLU";
    case LayerKind::kTanh: return "Tanh";
    case LayerKind::kSigmoid: return "Sigmoid";
    case LayerKind::kHardswish: return "Hardswish";
    case LayerKind::kGELU: return "GELU";
  }
  return "Unknown";
}

int64_t ModuleConfig::get_int(const std::string& name, int64_t fallback) const {
  for (const auto& [k, v] : ints)
    if (k == name) return v;
  return fallback;
}

double ModuleConfig::get_float(const std::string& name, double fallback) const {
  for (const auto& [k, v] : floats)
    if (k == name) return v;
  return fallback;
}

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

}  // namespace

void copy_state(const Module& src, Module& dst) {
  auto s = src.named_parameters();
  auto d = dst.named_parameters();
  HFTA_CHECK(s.size() == d.size(), "copy_state: parameter-count mismatch (",
             s.size(), " vs ", d.size(), ")");
  for (size_t i = 0; i < s.size(); ++i) {
    HFTA_CHECK(s[i].second.numel() == d[i].second.numel(),
               "copy_state: shape mismatch at ", s[i].first);
    d[i].second.mutable_value().copy_(s[i].second.value());
  }
  auto sb = named_buffers_recursive(src);
  auto db = named_buffers_recursive(dst);
  HFTA_CHECK(sb.size() == db.size(), "copy_state: buffer-count mismatch (",
             sb.size(), " vs ", db.size(), ")");
  for (size_t i = 0; i < sb.size(); ++i) db[i].second.copy_(sb[i].second);
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
