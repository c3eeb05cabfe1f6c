// Fused-loss handling (paper Appendix C) + dynamic loss scaling for AMP.
//
// When each model's loss is a *mean* over its mini-batch, the naive fused
// loss L = (1/B) sum_b l_b under-scales every model's gradients by 1/B
// (Eq. 2). The fused kMean losses here are instead the sum over the B
// models of each model's own mean (Eq. 3): the kSum loss times float(1/N),
// N the per-model element count. Its backward scales every element by the
// same float(1/N) the serial kMean loss uses, so the gradients equal the B
// serial runs bit for bit (B * float(1/(B*N)) can round differently). Sum
// (or no) reduction needs no scaling (Eq. 5).
//
// The dynamic LossScaler is orthogonal to that rule: the per-model mean is
// part of the loss VALUE (a recorded mul_scalar op), while the AMP scale S
// multiplies the backward seed — d(S*L)/dw == S * dL/dw, so seeding the
// engine with S instead of 1 scales every gradient without touching the
// printed loss. TrainStep skips the step when any gradient times 1/S is
// non-finite; otherwise the optimizer folds 1/S into its gradient reads.
// Scales are kept to powers of two: scaling and unscaling are then exact
// exponent shifts, so an AMP run with scale S produces bit-identical
// weights to the same AMP run with scale 1 (absent overflow), and
// fused-vs-serial exactness survives loss scaling.
#pragma once

#include <cmath>
#include <cstdint>

#include "autograd/functions.h"

namespace hfta::fused {

/// Dynamic loss-scale controller (the amp_scaler "GradScaler" recipe):
/// start high, halve on overflow (skipping that step), double after a
/// clean streak of `growth_interval` steps. The factors are fixed at 2 and
/// 1/2 and the initial scale must be a positive power of two, so every
/// scale it holds is one (the exact-scaling contract above). Pure
/// bookkeeping — TrainStep owns one and applies its scale via the backward
/// seed; it survives Hyperband repacks because the executor's TrainStep
/// persists across them.
class LossScaler {
 public:
  struct Options {
    double init_scale = 65536.0;     // 2^16; a positive power of two
    int64_t growth_interval = 2000;  // clean steps between growths
  };

  LossScaler() : LossScaler(Options{}) {}
  explicit LossScaler(const Options& o) : opts_(o), scale_(o.init_scale) {
    int exp = 0;
    HFTA_CHECK(o.init_scale > 0 && std::frexp(o.init_scale, &exp) == 0.5,
               "LossScaler: init_scale ", o.init_scale,
               " is not a positive power of two");
  }

  double scale() const { return scale_; }
  const Options& options() const { return opts_; }
  /// Clean steps since the last overflow (resets on backoff).
  int64_t growth_streak() const { return growth_streak_; }
  /// Total steps skipped because a gradient was non-finite.
  int64_t overflow_skips() const { return overflow_skips_; }

  /// Advances the controller after a step: backoff on overflow, grow on a
  /// full clean streak. Call exactly once per optimization step, after the
  /// finiteness verdict and (when clean) the optimizer step.
  void update(bool found_inf) {
    if (found_inf) {
      scale_ *= 0.5;
      growth_streak_ = 0;
      ++overflow_skips_;
      return;
    }
    if (++growth_streak_ >= opts_.growth_interval) {
      scale_ *= 2.0;
      growth_streak_ = 0;
    }
  }

 private:
  Options opts_;
  double scale_;
  int64_t growth_streak_ = 0;
  int64_t overflow_skips_ = 0;
};

/// Fused cross-entropy for model-major logits [B, N, C] and labels [B, N]:
/// one loss op over all B*N rows; kMean is the per-model mean rule above.
ag::Variable fused_cross_entropy(const ag::Variable& logits,
                                 const Tensor& labels,
                                 ag::Reduction reduction);

/// Fused BCE-with-logits over any fused layout (targets same shape): the
/// per-model element count is numel / array_size.
ag::Variable fused_bce_with_logits(const ag::Variable& logits,
                                   const Tensor& targets,
                                   ag::Reduction reduction, int64_t array_size);

/// Per-model loss values from a fused model-major batch (for logging /
/// HFHT): mean (or sum) of the per-element CE loss within each model block.
std::vector<double> per_model_cross_entropy(const Tensor& logits,
                                            const Tensor& labels);

}  // namespace hfta::fused
