#include "nn/optim.h"

#include <cmath>

#include "core/vec.h"

namespace hfta::nn {

// The serial optimizers and their fused counterparts (hfta/fused_optim.cpp)
// share the per-element update kernels in core/vec — ONE implementation of
// each update expression, so fused-vs-serial bit-equality of the optimizer
// step is true by construction rather than by keeping two scalar loops in
// sync by hand. The kernels also read grads in place (no clone), dropping a
// per-step allocation per parameter.

void Optimizer::zero_grad() {
  for (auto& p : params_) p.zero_grad();
}

SGD::SGD(std::vector<ag::Variable> params, Options opt)
    : Optimizer(std::move(params)), opt_(opt) {
  momentum_buf_.resize(params_.size());
}

void SGD::step_impl(float grad_scale) {
  vec::SgdArgs s;
  s.lr = static_cast<float>(opt_.lr);
  s.weight_decay = static_cast<float>(opt_.weight_decay);
  s.momentum = static_cast<float>(opt_.momentum);
  s.grad_scale = grad_scale;
  const bool has_momentum = opt_.momentum != 0.0;
  for (size_t i = 0; i < params_.size(); ++i) {
    ag::Variable& p = params_[i];
    if (!p.has_grad()) continue;
    // First step seeds buf = 0, so momentum*buf + g == g: the PyTorch
    // first-step rule without a special case.
    if (has_momentum && !momentum_buf_[i].defined())
      momentum_buf_[i] = Tensor::zeros(p.shape());
    vec::sgd(s, p.mutable_value().data(), p.grad().data(),
             has_momentum ? momentum_buf_[i].data() : nullptr, p.numel());
  }
}

Adam::Adam(std::vector<ag::Variable> params, Options opt)
    : Optimizer(std::move(params)), opt_(opt) {
  m_.resize(params_.size());
  v_.resize(params_.size());
}

void Adam::step_impl(float grad_scale) {
  ++t_;
  const double bc1 = 1.0 - std::pow(opt_.beta1, static_cast<double>(t_));
  const double bc2 = 1.0 - std::pow(opt_.beta2, static_cast<double>(t_));
  vec::AdamArgs s;
  s.weight_decay = static_cast<float>(opt_.weight_decay);
  s.beta1 = static_cast<float>(opt_.beta1);
  s.one_minus_beta1 = 1.f - s.beta1;
  s.beta2 = static_cast<float>(opt_.beta2);
  s.one_minus_beta2 = 1.f - s.beta2;
  s.step_size = static_cast<float>(opt_.lr / bc1);
  s.inv_bc2 = static_cast<float>(1.0 / bc2);
  s.eps = static_cast<float>(opt_.eps);
  s.grad_scale = grad_scale;
  for (size_t i = 0; i < params_.size(); ++i) {
    ag::Variable& p = params_[i];
    if (!p.has_grad()) continue;
    if (!m_[i].defined()) {
      m_[i] = Tensor::zeros(p.shape());
      v_[i] = Tensor::zeros(p.shape());
    }
    vec::adam(s, p.mutable_value().data(), p.grad().data(), m_[i].data(),
              v_[i].data(), p.numel());
  }
}

Adadelta::Adadelta(std::vector<ag::Variable> params, Options opt)
    : Optimizer(std::move(params)), opt_(opt) {
  square_avg_.resize(params_.size());
  acc_delta_.resize(params_.size());
}

void Adadelta::step_impl(float grad_scale) {
  // g = grad_scale * grad + wd * p, as in vec::sgd/vec::adam: grad_scale is
  // skipped when 1 and weight decay when 0, so the fp32 expression is
  // unchanged and the scaled one equals unscaling the buffer first.
  const bool scaled = grad_scale != 1.f;
  const bool decay = opt_.weight_decay != 0.0;
  const float wd = static_cast<float>(opt_.weight_decay);
  const float rho = static_cast<float>(opt_.rho);
  const float eps = static_cast<float>(opt_.eps);
  const float lr = static_cast<float>(opt_.lr);
  for (size_t i = 0; i < params_.size(); ++i) {
    ag::Variable& p = params_[i];
    if (!p.has_grad()) continue;
    if (!square_avg_[i].defined()) {
      square_avg_[i] = Tensor::zeros(p.shape());
      acc_delta_[i] = Tensor::zeros(p.shape());
    }
    float* sq = square_avg_[i].data();
    float* ad = acc_delta_[i].data();
    float* pp = p.mutable_value().data();
    const float* pg = p.grad().data();
    for (int64_t j = 0; j < p.numel(); ++j) {
      float g = scaled ? grad_scale * pg[j] : pg[j];
      if (decay) g = g + wd * pp[j];
      sq[j] = rho * sq[j] + (1.f - rho) * g * g;
      const float delta = std::sqrt(ad[j] + eps) / std::sqrt(sq[j] + eps) * g;
      ad[j] = rho * ad[j] + (1.f - rho) * delta * delta;
      pp[j] -= lr * delta;
    }
  }
}

}  // namespace hfta::nn
