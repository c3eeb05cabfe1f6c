#include "hfta/fused_optim.h"

#include <algorithm>
#include <cmath>

#include "core/vec.h"

namespace hfta::fused {

// Each update rule below runs once per model block of the fused parameter
// array: SGD and Adam through the per-element kernels in core/vec, Adadelta
// inline. The serial optimizers (one-model arrays) run these same loops, so
// the fused step is bit-equal to the B serial steps by construction.

HyperVec select_hyper(const HyperVec& v, const std::vector<int64_t>& keep) {
  HyperVec out;
  out.reserve(keep.size());
  for (int64_t b : keep)
    out.push_back(v.size() == 1 ? v[0] : v.at(static_cast<size_t>(b)));
  return out;
}

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
                               int64_t array_size)
    : nn::Optimizer(vars_of(params)), array_size_(array_size) {
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

void FusedOptimizer::check_repack(
    const std::vector<const FusedOptimizer*>& sources,
    const std::vector<RepackPick>& picks) const {
  HFTA_CHECK(!sources.empty(), "repack_state_from: no sources");
  HFTA_CHECK(static_cast<int64_t>(picks.size()) == array_size_,
             "repack_state_from: optimizer array size ", array_size_,
             " != picks size ", picks.size());
  for (const FusedOptimizer* src : sources) {
    HFTA_CHECK(src != nullptr, "repack_state_from: null source");
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
}

void FusedOptimizer::gather_state(
    const std::function<const std::vector<Tensor>&(const FusedOptimizer&)>&
        state_of,
    std::vector<Tensor>* dst_state,
    const std::vector<const FusedOptimizer*>& sources,
    const std::vector<RepackPick>& picks) {
  for (size_t i = 0; i < params_.size(); ++i) {
    // Defined-ness must agree across sources: a survivor from a stepped
    // source cannot merge with one whose state was never initialized.
    for (const FusedOptimizer* src : sources)
      HFTA_CHECK(state_of(*src)[i].defined() ==
                     state_of(*sources[0])[i].defined(),
                 "repack_state_from: source state defined-ness differs at "
                 "param ", i, " (sources trained unequal step counts?)");
    if (!state_of(*sources[0])[i].defined()) continue;  // lazy, untouched
    Tensor dst = Tensor::zeros(params_[i].shape());
    float* pd = dst.data();
    const int64_t block = per_model_numel(i);
    for (size_t j = 0; j < picks.size(); ++j) {
      const float* ps = state_of(*sources[picks[j].source])[i].data();
      const int64_t b = picks[j].model;
      std::copy(ps + b * block, ps + (b + 1) * block,
                pd + static_cast<int64_t>(j) * block);
    }
    (*dst_state)[i] = std::move(dst);
  }
}

// ---- FusedSGD -----------------------------------------------------------------

FusedSGD::FusedSGD(std::vector<FusedParam> params, int64_t array_size,
                   Options opt)
    : FusedOptimizer(std::move(params), array_size) {
  lr_ = expand(std::move(opt.lr));
  momentum_ = expand(std::move(opt.momentum));
  weight_decay_ = expand(std::move(opt.weight_decay));
  momentum_buf_.resize(params_.size());
}

void FusedSGD::step_impl(float grad_scale) {
  for (size_t i = 0; i < params_.size(); ++i) {
    ag::Variable& var = params_[i];
    if (!var.has_grad()) continue;
    const int64_t block = per_model_numel(i);
    const float* pg = var.grad().data();
    float* pp = var.mutable_value().data();
    Tensor& buf = momentum_buf_[i];
    const bool has_momentum =
        std::any_of(momentum_.begin(), momentum_.end(),
                    [](double m) { return m != 0.0; });
    // First step seeds buf = 0, so momentum*buf + g == g: the PyTorch
    // first-step rule without a special case.
    if (has_momentum && !buf.defined()) buf = Tensor::zeros(var.shape());
    float* pb = has_momentum ? buf.data() : nullptr;
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

void FusedSGD::repack_state_from(
    const std::vector<const FusedOptimizer*>& sources,
    const std::vector<RepackPick>& picks) {
  for (const FusedOptimizer* src : sources)
    HFTA_CHECK(dynamic_cast<const FusedSGD*>(src) != nullptr,
               "FusedSGD::repack_state_from: source is not SGD");
  check_repack(sources, picks);
  gather_state(
      [](const FusedOptimizer& o) -> const std::vector<Tensor>& {
        return static_cast<const FusedSGD&>(o).momentum_buf_;
      },
      &momentum_buf_, sources, picks);
}

// ---- FusedAdam -----------------------------------------------------------------

FusedAdam::FusedAdam(std::vector<FusedParam> params, int64_t array_size,
                     Options opt)
    : FusedOptimizer(std::move(params), array_size) {
  lr_ = expand(std::move(opt.lr));
  beta1_ = expand(std::move(opt.beta1));
  beta2_ = expand(std::move(opt.beta2));
  eps_ = expand(std::move(opt.eps));
  weight_decay_ = expand(std::move(opt.weight_decay));
  m_.resize(params_.size());
  v_.resize(params_.size());
  args_.resize(static_cast<size_t>(array_size));
}

void FusedAdam::step_impl(float grad_scale) {
  ++t_;
  // Each model's constants depend only on the step count: computed once per
  // step, not once per parameter.
  for (int64_t b = 0; b < array_size_; ++b) {
    const size_t ub = static_cast<size_t>(b);
    const double bc1 = 1.0 - std::pow(beta1_[ub], static_cast<double>(t_));
    const double bc2 = 1.0 - std::pow(beta2_[ub], static_cast<double>(t_));
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
    if (!m_[i].defined()) {
      m_[i] = Tensor::zeros(var.shape());
      v_[i] = Tensor::zeros(var.shape());
    }
    const float* pg = var.grad().data();
    float* pp = var.mutable_value().data();
    float* pm = m_[i].data();
    float* pv = v_[i].data();
    for (int64_t b = 0; b < array_size_; ++b)
      vec::adam(args_[static_cast<size_t>(b)], pp + b * block, pg + b * block,
                pm + b * block, pv + b * block, block);
  }
}

void FusedAdam::repack_state_from(
    const std::vector<const FusedOptimizer*>& sources,
    const std::vector<RepackPick>& picks) {
  std::vector<const FusedAdam*> srcs;
  for (const FusedOptimizer* src : sources) {
    const auto* a = dynamic_cast<const FusedAdam*>(src);
    HFTA_CHECK(a != nullptr,
               "FusedAdam::repack_state_from: source is not Adam");
    srcs.push_back(a);
  }
  check_repack(sources, picks);
  // Survivors of one rung trained the same number of iterations, so the
  // scalar bias-correction step count must agree across every source.
  for (const FusedAdam* a : srcs)
    HFTA_CHECK(a->t_ == srcs[0]->t_,
               "FusedAdam::repack_state_from: sources disagree on step "
               "count (", a->t_, " vs ", srcs[0]->t_, ")");
  gather_state(
      [](const FusedOptimizer& o) -> const std::vector<Tensor>& {
        return static_cast<const FusedAdam&>(o).m_;
      },
      &m_, sources, picks);
  gather_state(
      [](const FusedOptimizer& o) -> const std::vector<Tensor>& {
        return static_cast<const FusedAdam&>(o).v_;
      },
      &v_, sources, picks);
  t_ = srcs[0]->t_;  // bias correction continues from the shared step count
}

// ---- FusedAdadelta ---------------------------------------------------------------

FusedAdadelta::FusedAdadelta(std::vector<FusedParam> params,
                             int64_t array_size, Options opt)
    : FusedOptimizer(std::move(params), array_size) {
  lr_ = expand(std::move(opt.lr));
  rho_ = expand(std::move(opt.rho));
  eps_ = expand(std::move(opt.eps));
  weight_decay_ = expand(std::move(opt.weight_decay));
  square_avg_.resize(params_.size());
  acc_delta_.resize(params_.size());
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
    if (!square_avg_[i].defined()) {
      square_avg_[i] = Tensor::zeros(var.shape());
      acc_delta_[i] = Tensor::zeros(var.shape());
    }
    const float* pg = var.grad().data();
    float* pp = var.mutable_value().data();
    float* sq = square_avg_[i].data();
    float* ad = acc_delta_[i].data();
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

void FusedAdadelta::repack_state_from(
    const std::vector<const FusedOptimizer*>& sources,
    const std::vector<RepackPick>& picks) {
  for (const FusedOptimizer* src : sources)
    HFTA_CHECK(dynamic_cast<const FusedAdadelta*>(src) != nullptr,
               "FusedAdadelta::repack_state_from: source is not Adadelta");
  check_repack(sources, picks);
  gather_state(
      [](const FusedOptimizer& o) -> const std::vector<Tensor>& {
        return static_cast<const FusedAdadelta&>(o).square_avg_;
      },
      &square_avg_, sources, picks);
  gather_state(
      [](const FusedOptimizer& o) -> const std::vector<Tensor>& {
        return static_cast<const FusedAdadelta&>(o).acc_delta_;
      },
      &acc_delta_, sources, picks);
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
