#include "hfta/fused_optim.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "core/vec.h"

namespace hfta::fused {

// Each update rule below runs once per model block of the fused parameter
// array: SGD and Adam through the per-element kernels in core/vec, Adadelta
// inline. The serial optimizers (one-model arrays) run these same loops, so
// the fused step is bit-equal to the B serial steps by construction.

namespace {

std::vector<ag::Variable> vars_of(const std::vector<FusedParam>& params) {
  std::vector<ag::Variable> vars;
  vars.reserve(params.size());
  for (const FusedParam& p : params) vars.push_back(p.var);
  return vars;
}

std::vector<FusedParam> one_model(const std::vector<ag::Variable>& vars) {
  std::vector<FusedParam> params;
  params.reserve(vars.size());
  for (const ag::Variable& v : vars) params.push_back(FusedParam{v, 1});
  return params;
}

}  // namespace

FusedOptimizer::FusedOptimizer(std::vector<FusedParam> params,
                               int64_t array_size, const char* rule,
                               std::vector<const char*> state)
    : nn::Optimizer(vars_of(params)),
      array_size_(array_size),
      rule_(rule),
      state_names_(std::move(state)),
      state_(state_names_.size(), std::vector<Tensor>(params_.size())) {
  for (const FusedParam& p : params) {
    HFTA_CHECK(p.array_size == array_size_,
               "FusedOptimizer: parameter array size ", p.array_size,
               " != optimizer array size ", array_size_);
    HFTA_CHECK(p.var.numel() % array_size_ == 0,
               "FusedOptimizer: parameter numel not divisible by B");
  }
}

std::vector<FusedParam> FusedOptimizer::fused_params() const {
  std::vector<FusedParam> out;
  out.reserve(params_.size());
  for (const ag::Variable& v : params_)
    out.push_back(FusedParam{v, array_size_});
  return out;
}

HyperVec FusedOptimizer::expand(HyperVec v) const {
  HFTA_CHECK(v.size() == 1 || v.size() == static_cast<size_t>(array_size_),
             "hyper-parameter vector must have size 1 or B, got ", v.size());
  if (v.size() == 1) v.assign(static_cast<size_t>(array_size_), v[0]);
  return v;
}

void FusedOptimizer::set_lr(HyperVec lr) { lr_ = expand(std::move(lr)); }

Tensor& FusedOptimizer::state(size_t f, size_t i) {
  Tensor& t = state_[f][i];
  if (!t.defined()) t = Tensor::zeros(params_[i].shape());
  return t;
}

void FusedOptimizer::repack_state_from(
    const std::vector<const FusedOptimizer*>& sources,
    const std::vector<RepackPick>& picks) {
  HFTA_CHECK(!sources.empty(), "repack_state_from: no sources");
  HFTA_CHECK(static_cast<int64_t>(picks.size()) == array_size_,
             "repack_state_from: optimizer array size ", array_size_,
             " != picks size ", picks.size());
  for (const FusedOptimizer* src : sources) {
    HFTA_CHECK(src != nullptr, "repack_state_from: null source");
    HFTA_CHECK(std::strcmp(src->rule_, rule_) == 0,
               "repack_state_from: source runs ", src->rule_,
               ", this optimizer runs ", rule_);
    // Survivors of one rung trained the same number of iterations.
    HFTA_CHECK(src->steps_ == sources[0]->steps_,
               "repack_state_from: sources disagree on step count (",
               src->steps_, " vs ", sources[0]->steps_, ")");
    HFTA_CHECK(params_.size() == src->params_.size(),
               "repack_state_from: parameter count mismatch (", params_.size(),
               " vs ", src->params_.size(), ")");
    for (size_t i = 0; i < params_.size(); ++i) {
      HFTA_CHECK(
          per_model_numel(i) == src->per_model_numel(i),
          "repack_state_from: per-model numel mismatch at param ", i);
    }
  }
  for (const RepackPick& p : picks) {
    HFTA_CHECK(p.source < sources.size(), "repack_state_from: pick source ",
               p.source, " out of range");
    HFTA_CHECK(p.model >= 0 && p.model < sources[p.source]->array_size_,
               "repack_state_from: pick model ", p.model, " out of range");
  }
  for (size_t f = 0; f < state_.size(); ++f) {
    for (size_t i = 0; i < params_.size(); ++i) {
      // A survivor from a stepped source cannot merge with one whose state
      // was never initialized.
      const bool defined = sources[0]->state_[f][i].defined();
      for (const FusedOptimizer* src : sources)
        HFTA_CHECK(src->state_[f][i].defined() == defined,
                   "repack_state_from: ", state_names_[f], " of param ", i,
                   " is defined in some sources only");
      if (!defined) continue;  // lazy, untouched: stays undefined here too
      Tensor dst = Tensor::zeros(params_[i].shape());
      float* pd = dst.data();
      const int64_t block = per_model_numel(i);
      for (size_t j = 0; j < picks.size(); ++j) {
        const float* ps = sources[picks[j].source]->state_[f][i].data();
        const int64_t b = picks[j].model;
        std::copy(ps + b * block, ps + (b + 1) * block,
                  pd + static_cast<int64_t>(j) * block);
      }
      state_[f][i] = std::move(dst);
    }
  }
  steps_ = sources[0]->steps_;
}

// ---- FusedSGD -----------------------------------------------------------------

FusedSGD::FusedSGD(std::vector<FusedParam> params, int64_t array_size,
                   Options opt)
    : FusedOptimizer(std::move(params), array_size, "SGD", {"momentum"}) {
  lr_ = expand(std::move(opt.lr));
  momentum_ = expand(std::move(opt.momentum));
  weight_decay_ = expand(std::move(opt.weight_decay));
}

void FusedSGD::step_impl(float grad_scale) {
  const bool has_momentum =
      std::any_of(momentum_.begin(), momentum_.end(),
                  [](double m) { return m != 0.0; });
  for (size_t i = 0; i < params_.size(); ++i) {
    ag::Variable& var = params_[i];
    if (!var.has_grad()) continue;
    const int64_t block = per_model_numel(i);
    const float* pg = var.grad().data();
    float* pp = var.mutable_value().data();
    // First step seeds the buffer with 0, so momentum*buf + g == g: the
    // PyTorch first-step rule without a special case.
    float* pb = has_momentum ? state(0, i).data() : nullptr;
    for (int64_t b = 0; b < array_size_; ++b) {
      const size_t ub = static_cast<size_t>(b);
      vec::SgdArgs s;
      s.lr = static_cast<float>(lr_[ub]);
      s.momentum = static_cast<float>(momentum_[ub]);
      s.weight_decay = static_cast<float>(weight_decay_[ub]);
      s.grad_scale = grad_scale;
      vec::sgd(s, pp + b * block, pg + b * block,
               pb != nullptr ? pb + b * block : nullptr, block);
    }
  }
}

// ---- FusedAdam -----------------------------------------------------------------

FusedAdam::FusedAdam(std::vector<FusedParam> params, int64_t array_size,
                     Options opt)
    : FusedOptimizer(std::move(params), array_size, "Adam", {"m", "v"}) {
  lr_ = expand(std::move(opt.lr));
  beta1_ = expand(std::move(opt.beta1));
  beta2_ = expand(std::move(opt.beta2));
  eps_ = expand(std::move(opt.eps));
  weight_decay_ = expand(std::move(opt.weight_decay));
  args_.resize(static_cast<size_t>(array_size));
}

void FusedAdam::step_impl(float grad_scale) {
  // Each model's constants depend only on the step count: computed once per
  // step, not once per parameter.
  for (int64_t b = 0; b < array_size_; ++b) {
    const size_t ub = static_cast<size_t>(b);
    const double bc1 = 1.0 - std::pow(beta1_[ub], static_cast<double>(steps_));
    const double bc2 = 1.0 - std::pow(beta2_[ub], static_cast<double>(steps_));
    vec::AdamArgs& s = args_[ub];
    s.weight_decay = static_cast<float>(weight_decay_[ub]);
    s.beta1 = static_cast<float>(beta1_[ub]);
    s.one_minus_beta1 = 1.f - s.beta1;
    s.beta2 = static_cast<float>(beta2_[ub]);
    s.one_minus_beta2 = 1.f - s.beta2;
    s.step_size = static_cast<float>(lr_[ub] / bc1);
    s.inv_bc2 = static_cast<float>(1.0 / bc2);
    s.eps = static_cast<float>(eps_[ub]);
    s.grad_scale = grad_scale;
  }
  for (size_t i = 0; i < params_.size(); ++i) {
    ag::Variable& var = params_[i];
    if (!var.has_grad()) continue;
    const int64_t block = per_model_numel(i);
    const float* pg = var.grad().data();
    float* pp = var.mutable_value().data();
    float* pm = state(0, i).data();
    float* pv = state(1, i).data();
    for (int64_t b = 0; b < array_size_; ++b)
      vec::adam(args_[static_cast<size_t>(b)], pp + b * block, pg + b * block,
                pm + b * block, pv + b * block, block);
  }
}

// ---- FusedAdadelta ---------------------------------------------------------------

FusedAdadelta::FusedAdadelta(std::vector<FusedParam> params,
                             int64_t array_size, Options opt)
    : FusedOptimizer(std::move(params), array_size, "Adadelta",
                     {"square_avg", "acc_delta"}) {
  lr_ = expand(std::move(opt.lr));
  rho_ = expand(std::move(opt.rho));
  eps_ = expand(std::move(opt.eps));
  weight_decay_ = expand(std::move(opt.weight_decay));
}

void FusedAdadelta::step_impl(float grad_scale) {
  // g = grad_scale * grad + wd * p, as in vec::sgd/vec::adam: grad_scale is
  // skipped when 1 and weight decay when that model's wd is 0, so an fp32
  // step is the plain expression and a scaled one equals unscaling the
  // buffer first.
  const bool scaled = grad_scale != 1.f;
  for (size_t i = 0; i < params_.size(); ++i) {
    ag::Variable& var = params_[i];
    if (!var.has_grad()) continue;
    const int64_t block = per_model_numel(i);
    const float* pg = var.grad().data();
    float* pp = var.mutable_value().data();
    float* sq = state(0, i).data();
    float* ad = state(1, i).data();
    for (int64_t b = 0; b < array_size_; ++b) {
      const size_t ub = static_cast<size_t>(b);
      const float rho = static_cast<float>(rho_[ub]);
      const float eps = static_cast<float>(eps_[ub]);
      const float lr = static_cast<float>(lr_[ub]);
      const float wd = static_cast<float>(weight_decay_[ub]);
      const bool decay = weight_decay_[ub] != 0.0;
      for (int64_t j = b * block; j < (b + 1) * block; ++j) {
        float g = scaled ? grad_scale * pg[j] : pg[j];
        if (decay) g = g + wd * pp[j];
        sq[j] = rho * sq[j] + (1.f - rho) * g * g;
        const float delta = std::sqrt(ad[j] + eps) / std::sqrt(sq[j] + eps) * g;
        ad[j] = rho * ad[j] + (1.f - rho) * delta * delta;
        pp[j] -= lr * delta;
      }
    }
  }
}

}  // namespace hfta::fused

namespace hfta::nn {

SGD::SGD(std::vector<ag::Variable> params, Options opt)
    : FusedSGD(fused::one_model(params), 1,
               {{opt.lr}, {opt.momentum}, {opt.weight_decay}}) {}

Adam::Adam(std::vector<ag::Variable> params, Options opt)
    : FusedAdam(fused::one_model(params), 1,
                {{opt.lr}, {opt.beta1}, {opt.beta2}, {opt.eps},
                 {opt.weight_decay}}) {}

Adadelta::Adadelta(std::vector<ag::Variable> params, Options opt)
    : FusedAdadelta(fused::one_model(params), 1,
                    {{opt.lr}, {opt.rho}, {opt.eps}, {opt.weight_decay}}) {}

}  // namespace hfta::nn
