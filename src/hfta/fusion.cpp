#include "hfta/fusion.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>

namespace hfta::fused {

UnfusedBlockAdapter::UnfusedBlockAdapter(
    int64_t B, std::vector<std::shared_ptr<nn::Module>> mods) {
  HFTA_CHECK(static_cast<int64_t>(mods.size()) == B,
             "UnfusedBlockAdapter: need exactly B replicas");
  mods_.reserve(mods.size());
  for (auto& donor : mods) {
    std::shared_ptr<nn::Module> owned = donor->clone();
    if (owned == nullptr) {
      // Stateless kinds are pure functions of their input: sharing the
      // donor module cannot write through to anything.
      HFTA_CHECK(!nn::has_state(*donor),
                 "UnfusedBlockAdapter: stateful kind '", donor->kind_name(),
                 "' has no clone support — override Module::make_array");
      owned = std::move(donor);
    }
    mods_.push_back(std::move(owned));
  }
  for (size_t b = 0; b < mods_.size(); ++b)
    register_module("replica" + std::to_string(b), mods_[b]);
}

ag::Variable UnfusedBlockAdapter::forward(const ag::Variable& x) {
  std::vector<ag::Variable> chunks =
      ag::chunk(x, static_cast<int64_t>(mods_.size()), 1);
  std::vector<ag::Variable> outs;
  outs.reserve(chunks.size());
  for (size_t b = 0; b < chunks.size(); ++b)
    outs.push_back(mods_[b]->forward(chunks[b]));
  return ag::concat(outs, 1);
}

std::vector<Tensor> unfuse_blocks(const Tensor& fused, int64_t B, Shape shape) {
  const int64_t block = shape_numel(shape);
  HFTA_CHECK(fused.numel() == B * block, "unfuse_blocks: numel mismatch");
  std::vector<Tensor> out;
  for (int64_t b = 0; b < B; ++b) {
    Tensor t(shape);
    std::copy(fused.data() + b * block, fused.data() + (b + 1) * block,
              t.data());
    out.push_back(std::move(t));
  }
  return out;
}

// ---- diagnostics -----------------------------------------------------------

const char* layout_name(Layout l) {
  switch (l) {
    case Layout::kChannelFused: return "channel-fused";
    case Layout::kModelMajor: return "model-major";
    case Layout::kAny: return "any";
  }
  return "?";
}

std::string FusionDiagnostic::str() const {
  std::ostringstream os;
  os << "fusion: " << reason << " (at '" << (path.empty() ? "<root>" : path)
     << "', model ";
  if (model_index < 0) {
    os << "all";
  } else {
    os << model_index;
  }
  os << ")";
  return os.str();
}

FusionError::FusionError(FusionDiagnostic d)
    : std::runtime_error(d.str()), diagnostic(std::move(d)) {}

// ---- congruence ------------------------------------------------------------

namespace {

std::string join_path(const std::string& a, const std::string& b) {
  return a.empty() ? b : a + "." + b;
}

// Config entry i as "'name' = value" (an integral value exactly, any other
// to float round trip), or "nothing" past the list's end.
std::string entry_str(const std::vector<std::pair<std::string, double>>& e,
                      size_t i) {
  if (i >= e.size()) return "nothing";
  const double v = e[i].second;
  char buf[32];
  if (v == std::trunc(v) && std::fabs(v) < 0x1p53) {
    std::snprintf(buf, sizeof buf, "%lld", static_cast<long long>(v));
  } else {
    std::snprintf(buf, sizeof buf, "%.9g", v);
  }
  return "'" + e[i].first + "' = " + buf;
}

void check_congruent(const std::string& path,
                     const std::vector<const nn::Module*>& mods,
                     std::vector<FusionDiagnostic>* out) {
  const nn::Module& ref = *mods[0];
  const std::string ref_kind = ref.kind_name();
  const nn::ModuleConfig ref_cfg = ref.config();
  for (size_t b = 1; b < mods.size(); ++b) {
    if (mods[b]->kind_name() != ref_kind) {
      out->push_back({path, static_cast<int64_t>(b),
                      "layer kind mismatch: model 0 is '" + ref_kind +
                          "' but model " + std::to_string(b) + " is '" +
                          mods[b]->kind_name() + "'"});
      return;  // no point comparing configs/children of different kinds
    }
    // One loop over the longer list; a missing entry reads "nothing".
    const nn::ModuleConfig cfg = mods[b]->config();
    const auto& want = ref_cfg.entries;
    const auto& got = cfg.entries;
    for (size_t i = 0; i < std::max(want.size(), got.size()); ++i) {
      const bool both = i < want.size() && i < got.size();
      if (both && want[i] == got[i]) continue;
      out->push_back({path, static_cast<int64_t>(b),
                      "config of '" + ref_kind + "' differs: model 0 has " +
                          entry_str(want, i) + ", model " +
                          std::to_string(b) + " has " + entry_str(got, i)});
    }
  }

  const auto& ref_children = ref.named_children();
  for (size_t b = 1; b < mods.size(); ++b) {
    if (mods[b]->named_children().size() != ref_children.size()) {
      out->push_back(
          {path, static_cast<int64_t>(b),
           "submodule count differs: model 0 has " +
               std::to_string(ref_children.size()) + ", model " +
               std::to_string(b) + " has " +
               std::to_string(mods[b]->named_children().size())});
      return;
    }
  }
  for (size_t i = 0; i < ref_children.size(); ++i) {
    std::vector<const nn::Module*> child_mods;
    bool names_ok = true;
    for (const nn::Module* m : mods) {
      const auto& kv = m->named_children()[i];
      if (kv.first != ref_children[i].first) {
        out->push_back({path, static_cast<int64_t>(child_mods.size()),
                        "submodule name differs: '" + ref_children[i].first +
                            "' vs '" + kv.first + "'"});
        names_ok = false;
        break;
      }
      child_mods.push_back(kv.second.get());
    }
    if (names_ok)
      check_congruent(join_path(path, ref_children[i].first), child_mods, out);
  }
}

}  // namespace

// ---- FusedArray ------------------------------------------------------------

FusedArray::FusedArray(int64_t B, FusionOptions opts)
    : array_size_(B), opts_(std::move(opts)) {}

ag::Variable FusedArray::forward(const ag::Variable& x) {
  ag::Variable h = x;
  Layout cur = Layout::kChannelFused;
  auto convert_to = [&](Layout want) {
    if (want == Layout::kAny || want == cur) return;
    h = want == Layout::kModelMajor ? to_model_major(h, array_size_)
                                    : to_channel_fused(h);
    cur = want;
  };
  for (const Step& s : steps_) {
    convert_to(s.in);
    h = s.module->forward(h);
    if (s.out != Layout::kAny) cur = s.out;
  }
  convert_to(opts_.output_layout);
  return h;
}

void FusedArray::load_model(int64_t b, const nn::Module& per_model_root) {
  HFTA_CHECK(b >= 0 && b < array_size_, "FusedArray::load_model: bad index");
  for (Step& s : steps_) {
    const nn::Module* src = per_model_root.find(s.path);
    HFTA_CHECK(src != nullptr, "FusedArray::load_model: path '", s.path,
               "' not found in the per-model tree");
    if (!s.fused) {
      auto& adapter = static_cast<UnfusedBlockAdapter&>(*s.module);
      nn::copy_state(*src, *adapter.replicas()[static_cast<size_t>(b)]);
      continue;
    }
    try {
      nn::load_model(*s.module, array_size_, b, *src);
    } catch (const Error& e) {
      // An array form that does not hold exactly the per-model state at B x
      // width fails here, so FusionPlan::compile reports it per step.
      throw FusionError({s.path, b, s.kind + " array form: " + e.what()});
    }
  }
}

void FusedArray::store_model(int64_t b, nn::Module& per_model_root) const {
  HFTA_CHECK(b >= 0 && b < array_size_, "FusedArray::store_model: bad index");
  for (const Step& s : steps_) {
    nn::Module* dst = per_model_root.find(s.path);
    HFTA_CHECK(dst != nullptr, "FusedArray::store_model: path '", s.path,
               "' not found in the per-model tree");
    if (!s.fused) {
      const auto& adapter =
          static_cast<const UnfusedBlockAdapter&>(*s.module);
      nn::copy_state(*adapter.replicas()[static_cast<size_t>(b)], *dst);
    } else {
      nn::store_model(*s.module, array_size_, b, *dst);
    }
  }
}

bool FusedArray::unit_fused(int64_t u) const {
  for (const Step& s : steps_)
    if (s.unit == u && !s.fused) return false;
  return true;
}

Layout FusedArray::output_layout() const {
  if (opts_.output_layout != Layout::kAny) return opts_.output_layout;
  Layout cur = Layout::kChannelFused;
  for (const Step& s : steps_) {
    if (s.out != Layout::kAny) {
      cur = s.out;
    } else if (s.in != Layout::kAny) {
      cur = s.in;
    }
  }
  return cur;
}

std::string FusedArray::describe() const {
  std::ostringstream os;
  os << "FusedArray(B=" << array_size_ << ", " << num_units_ << " units)\n";
  for (const Step& s : steps_) {
    os << "  [unit " << s.unit << "] "
       << (s.path.empty() ? "<root>" : s.path) << ": " << s.kind
       << (s.fused ? "" : " (unfused x" + std::to_string(array_size_) + ")")
       << "  (" << layout_name(s.in) << " -> " << layout_name(s.out) << ")\n";
  }
  return os.str();
}

// ---- FusionPlan ------------------------------------------------------------

FusionPlan::FusionPlan(int64_t array_size, FusionOptions opts)
    : array_size_(array_size), opts_(std::move(opts)) {
  HFTA_CHECK(array_size_ >= 1, "FusionPlan: array size must be >= 1");
}

std::vector<FusionDiagnostic> FusionPlan::analyze(
    const std::vector<const nn::Module*>& models) const {
  std::vector<FusionDiagnostic> out;
  if (static_cast<int64_t>(models.size()) != array_size_) {
    out.push_back({"", -1,
                   "expected " + std::to_string(array_size_) +
                       " models, got " + std::to_string(models.size())});
    return out;
  }
  check_congruent("", models, &out);
  return out;
}

namespace {

FusedArray::Step make_adapter_step(
    int64_t B, const std::string& path,
    std::vector<std::shared_ptr<nn::Module>> reps, int64_t unit) {
  FusedArray::Step s;
  s.kind = reps[0]->kind_name();
  // A stateful kind without clone support cannot become an owned replica:
  // report it as a structured planner diagnostic, not a bare Error. Clone
  // support is per-kind and the replicas are congruent, so probing the
  // reference replica suffices.
  if (nn::has_state(*reps[0]) && reps[0]->clone() == nullptr) {
    throw FusionError(
        {path, -1,
         "unfused unit of stateful kind '" + reps[0]->kind_name() +
             "' has no clone support — override Module::make_array"});
  }
  s.module = std::make_shared<UnfusedBlockAdapter>(B, std::move(reps));
  s.in = Layout::kChannelFused;
  s.out = Layout::kChannelFused;
  s.path = path;
  // Adapter replicas are whole per-model modules, transferred by
  // nn::copy_state (the state walk at B = 1) in
  // FusedArray::{load,store}_model.
  s.fused = false;
  s.unit = unit;
  return s;
}

void lower_into(int64_t B, Rng& rng, const std::string& path,
                const std::vector<std::shared_ptr<nn::Module>>& reps,
                int64_t unit, std::vector<FusedArray::Step>* steps) {
  const nn::Module& ref = *reps[0];
  if (ref.kind() == nn::LayerKind::kSequential) {
    const auto& ref_children = ref.named_children();
    for (size_t i = 0; i < ref_children.size(); ++i) {
      std::vector<std::shared_ptr<nn::Module>> child_reps;
      for (const auto& r : reps)
        child_reps.push_back(r->named_children()[i].second);
      lower_into(B, rng, join_path(path, ref_children[i].first), child_reps,
                 unit, steps);
    }
    return;
  }
  std::shared_ptr<nn::Module> m = ref.make_array(B, rng);
  if (m == nullptr) {
    throw FusionError(
        {path, -1,
         "no fusion rule for layer kind '" + ref.kind_name() +
             "': it has no array form — override Module::make_array, or "
             "turn this unit off in fuse_mask"});
  }
  FusedArray::Step s;
  s.in = s.out = ref.array_layout();
  s.module = std::move(m);
  s.path = path;
  s.kind = ref.kind_name();
  s.fused = true;
  s.unit = unit;
  steps->push_back(std::move(s));
}

}  // namespace

std::shared_ptr<FusedArray> FusionPlan::compile(
    const std::vector<std::shared_ptr<nn::Module>>& models, Rng& rng) const {
  std::vector<const nn::Module*> raw;
  for (const auto& m : models) raw.push_back(m.get());
  std::vector<FusionDiagnostic> diags = analyze(raw);
  if (!diags.empty()) throw FusionError(diags.front());

  // Top-level fusion units: the children of a root Sequential, or the root
  // itself. This is the granularity of fuse_mask (paper Fig. 17).
  std::vector<std::pair<std::string, std::vector<std::shared_ptr<nn::Module>>>>
      units;
  if (models[0]->kind() == nn::LayerKind::kSequential) {
    const auto& ref_children = models[0]->named_children();
    for (size_t i = 0; i < ref_children.size(); ++i) {
      std::vector<std::shared_ptr<nn::Module>> reps;
      for (const auto& m : models)
        reps.push_back(m->named_children()[i].second);
      units.emplace_back(ref_children[i].first, std::move(reps));
    }
  } else {
    units.emplace_back("", models);
  }
  if (!opts_.fuse_mask.empty() &&
      opts_.fuse_mask.size() != units.size()) {
    throw FusionError(
        {"", -1,
         "fuse_mask has " + std::to_string(opts_.fuse_mask.size()) +
             " entries but the model has " + std::to_string(units.size()) +
             " top-level fusion units"});
  }

  auto array = std::shared_ptr<FusedArray>(new FusedArray(array_size_, opts_));
  array->num_units_ = static_cast<int64_t>(units.size());
  for (size_t u = 0; u < units.size(); ++u) {
    auto& [path, reps] = units[u];
    const bool fuse = opts_.fuse_mask.empty() || opts_.fuse_mask[u];
    if (fuse) {
      lower_into(array_size_, rng, path, reps, static_cast<int64_t>(u),
                 &array->steps_);
    } else {
      array->steps_.push_back(make_adapter_step(
          array_size_, path, reps, static_cast<int64_t>(u)));
    }
  }

  for (size_t i = 0; i < array->steps_.size(); ++i)
    array->register_module("step" + std::to_string(i),
                           array->steps_[i].module);
  for (int64_t b = 0; b < array_size_; ++b)
    array->load_model(b, *models[static_cast<size_t>(b)]);
  return array;
}

std::shared_ptr<FusedArray> FusionPlan::repack_multi(
    const std::vector<const FusedArray*>& sources,
    const std::vector<RepackPick>& picks, const nn::Module& template_model,
    Rng& rng) const {
  HFTA_CHECK(!sources.empty(), "FusionPlan::repack_multi: no sources");
  HFTA_CHECK(static_cast<int64_t>(picks.size()) == array_size_,
             "FusionPlan::repack_multi: plan is sized for ", array_size_,
             " models but picks has ", picks.size());
  // Extract each survivor from its source array into its own per-model
  // tree, then compile the smaller array from those trees — compile copies
  // their exact weights and buffers, so every survivor's state carries over
  // bit-for-bit no matter which chunked array it trained in.
  std::vector<std::shared_ptr<nn::Module>> survivors;
  survivors.reserve(picks.size());
  for (const RepackPick& p : picks) {
    HFTA_CHECK(p.source < sources.size() && sources[p.source] != nullptr,
               "FusionPlan::repack_multi: pick references source ", p.source,
               " of ", sources.size());
    std::shared_ptr<nn::Module> tree = template_model.clone();
    HFTA_CHECK(tree != nullptr, "FusionPlan::repack_multi: template kind '",
               template_model.kind_name(), "' has no clone support");
    sources[p.source]->store_model(p.model, *tree);
    survivors.push_back(std::move(tree));
  }
  return compile(survivors, rng);
}

}  // namespace hfta::fused
