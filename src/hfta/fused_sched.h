// Fused learning-rate schedulers: each of the B models follows its own
// schedule; step() recomputes the whole lr vector and hands it to the fused
// optimizer (scalar-vector -> vector-vector, paper §3). A serial optimizer
// is a one-model fused optimizer, so it is scheduled by these same classes
// with one-element vectors.
#pragma once

#include "hfta/fused_optim.h"

namespace hfta::fused {

class FusedLRScheduler {
 public:
  explicit FusedLRScheduler(FusedOptimizer& opt)
      : opt_(opt), base_lr_(opt.lr()) {}
  virtual ~FusedLRScheduler() = default;

  void step() {
    ++epoch_;
    opt_.set_lr(lr_at(epoch_));
  }
  int64_t epoch() const { return epoch_; }

  /// Per-model lr vector at the given epoch.
  virtual HyperVec lr_at(int64_t epoch) const = 0;

 protected:
  FusedOptimizer& opt_;
  HyperVec base_lr_;
  int64_t epoch_ = 0;
};

/// Per-model StepLR: lr_b = base_b * gamma_b^(floor(epoch / step_size_b)).
class FusedStepLR : public FusedLRScheduler {
 public:
  FusedStepLR(FusedOptimizer& opt, std::vector<int64_t> step_size,
              HyperVec gamma);
  HyperVec lr_at(int64_t epoch) const override;

 private:
  std::vector<int64_t> step_size_;
  HyperVec gamma_;
};

/// Per-model ExponentialLR: lr_b = base_b * gamma_b^epoch.
class FusedExponentialLR : public FusedLRScheduler {
 public:
  FusedExponentialLR(FusedOptimizer& opt, HyperVec gamma);
  HyperVec lr_at(int64_t epoch) const override;

 private:
  HyperVec gamma_;
};

/// Per-model cosine annealing: lr_b follows base_b's cosine to eta_min_b.
class FusedCosineAnnealingLR : public FusedLRScheduler {
 public:
  FusedCosineAnnealingLR(FusedOptimizer& opt, std::vector<int64_t> t_max,
                         HyperVec eta_min);
  HyperVec lr_at(int64_t epoch) const override;

 private:
  std::vector<int64_t> t_max_;
  HyperVec eta_min_;
};

}  // namespace hfta::fused
