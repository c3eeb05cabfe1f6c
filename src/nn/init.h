// Weight initializers matching the PyTorch defaults the paper's models use.
#pragma once

#include "core/rng.h"
#include "tensor/tensor.h"

namespace hfta::nn::init {

/// U(-bound, bound) with bound = 1/sqrt(fan_in) — PyTorch's default for
/// Linear / Conv weights (kaiming_uniform with a = sqrt(5)).
Tensor kaiming_uniform(Shape shape, int64_t fan_in, Rng& rng);

/// U(-bound, bound).
Tensor uniform(Shape shape, float bound, Rng& rng);

/// N(mean, std) — DCGAN's initializer.
Tensor normal(Shape shape, float mean, float stddev, Rng& rng);

}  // namespace hfta::nn::init
