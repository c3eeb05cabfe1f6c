#include "hfta/fused_sched.h"

#include <cmath>

namespace hfta::fused {

FusedStepLR::FusedStepLR(FusedOptimizer& opt, std::vector<int64_t> step_size,
                         HyperVec gamma)
    : FusedLRScheduler(opt),
      step_size_(std::move(step_size)),
      gamma_(std::move(gamma)) {
  const size_t B = static_cast<size_t>(opt.array_size());
  if (step_size_.size() == 1) step_size_.assign(B, step_size_[0]);
  if (gamma_.size() == 1) gamma_.assign(B, gamma_[0]);
  HFTA_CHECK(step_size_.size() == B && gamma_.size() == B,
             "FusedStepLR: per-model vectors must have size 1 or B");
  for (int64_t s : step_size_)
    HFTA_CHECK(s >= 1, "FusedStepLR: step_size must be >= 1, got ", s);
}

HyperVec FusedStepLR::lr_at(int64_t epoch) const {
  HyperVec lr(base_lr_.size());
  for (size_t b = 0; b < lr.size(); ++b) {
    lr[b] = base_lr_[b] *
            std::pow(gamma_[b], static_cast<double>(epoch / step_size_[b]));
  }
  return lr;
}

FusedExponentialLR::FusedExponentialLR(FusedOptimizer& opt, HyperVec gamma)
    : FusedLRScheduler(opt), gamma_(std::move(gamma)) {
  const size_t B = static_cast<size_t>(opt.array_size());
  if (gamma_.size() == 1) gamma_.assign(B, gamma_[0]);
  HFTA_CHECK(gamma_.size() == B, "FusedExponentialLR: gamma size");
}

HyperVec FusedExponentialLR::lr_at(int64_t epoch) const {
  HyperVec lr(base_lr_.size());
  for (size_t b = 0; b < lr.size(); ++b)
    lr[b] = base_lr_[b] * std::pow(gamma_[b], static_cast<double>(epoch));
  return lr;
}

FusedCosineAnnealingLR::FusedCosineAnnealingLR(FusedOptimizer& opt,
                                               std::vector<int64_t> t_max,
                                               HyperVec eta_min)
    : FusedLRScheduler(opt), t_max_(std::move(t_max)),
      eta_min_(std::move(eta_min)) {
  const size_t B = static_cast<size_t>(opt.array_size());
  if (t_max_.size() == 1) t_max_.assign(B, t_max_[0]);
  if (eta_min_.size() == 1) eta_min_.assign(B, eta_min_[0]);
  HFTA_CHECK(t_max_.size() == B && eta_min_.size() == B,
             "FusedCosineAnnealingLR: per-model vectors must have size 1 or B");
  for (int64_t t : t_max_)
    HFTA_CHECK(t >= 1, "FusedCosineAnnealingLR: t_max must be >= 1, got ", t);
}

HyperVec FusedCosineAnnealingLR::lr_at(int64_t epoch) const {
  HyperVec lr(base_lr_.size());
  for (size_t b = 0; b < lr.size(); ++b) {
    const double t =
        static_cast<double>(epoch) / static_cast<double>(t_max_[b]);
    lr[b] = eta_min_[b] +
            (base_lr_[b] - eta_min_[b]) * (1.0 + std::cos(M_PI * t)) / 2.0;
  }
  return lr;
}

}  // namespace hfta::fused
