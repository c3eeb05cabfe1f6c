// Unfused optimizers: SGD (momentum / weight decay), Adam, Adadelta —
// the three the paper exercises. The fused counterparts in src/hfta take
// per-model hyper-parameter *vectors* and must match these step-for-step.
#pragma once

#include <vector>

#include "autograd/variable.h"

namespace hfta::nn {

class Optimizer {
 public:
  explicit Optimizer(std::vector<ag::Variable> params)
      : params_(std::move(params)) {}
  virtual ~Optimizer() = default;

  /// One update. An AMP step passes grad_scale = 1/S, which every
  /// optimizer folds into its gradient reads instead of unscaling the
  /// buffers first — bit-identical (one f32 multiply either way), but
  /// gradients stay scaled in memory. grad_scale == 1 skips the multiply.
  void step(double grad_scale = 1.0) {
    step_impl(static_cast<float>(grad_scale));
  }
  void zero_grad();

  /// Scalar learning rate (schedulers call set_lr).
  virtual double lr() const = 0;
  virtual void set_lr(double lr) = 0;

  const std::vector<ag::Variable>& params() const { return params_; }

 protected:
  virtual void step_impl(float grad_scale) = 0;
  std::vector<ag::Variable> params_;
};

class SGD : public Optimizer {
 public:
  struct Options {
    double lr = 0.01;
    double momentum = 0.0;
    double weight_decay = 0.0;
  };
  SGD(std::vector<ag::Variable> params, Options opt);
  double lr() const override { return opt_.lr; }
  void set_lr(double lr) override { opt_.lr = lr; }

 private:
  void step_impl(float grad_scale) override;
  Options opt_;
  std::vector<Tensor> momentum_buf_;
};

class Adam : public Optimizer {
 public:
  struct Options {
    double lr = 1e-3;
    double beta1 = 0.9;
    double beta2 = 0.999;
    double eps = 1e-8;
    double weight_decay = 0.0;
  };
  Adam(std::vector<ag::Variable> params, Options opt);
  double lr() const override { return opt_.lr; }
  void set_lr(double lr) override { opt_.lr = lr; }

 private:
  void step_impl(float grad_scale) override;
  Options opt_;
  std::vector<Tensor> m_, v_;
  int64_t t_ = 0;
};

class Adadelta : public Optimizer {
 public:
  struct Options {
    double lr = 1.0;
    double rho = 0.9;
    double eps = 1e-6;
    double weight_decay = 0.0;
  };
  Adadelta(std::vector<ag::Variable> params, Options opt);
  double lr() const override { return opt_.lr; }
  void set_lr(double lr) override { opt_.lr = lr; }

 private:
  void step_impl(float grad_scale) override;
  Options opt_;
  std::vector<Tensor> square_avg_, acc_delta_;
};

}  // namespace hfta::nn
