#include "nn/init.h"

#include <cmath>

namespace hfta::nn::init {

Tensor kaiming_uniform(Shape shape, int64_t fan_in, Rng& rng) {
  const float bound = 1.f / std::sqrt(static_cast<float>(fan_in));
  return uniform(std::move(shape), bound, rng);
}

Tensor uniform(Shape shape, float bound, Rng& rng) {
  return Tensor::rand(std::move(shape), rng, -bound, bound);
}

Tensor normal(Shape shape, float mean, float stddev, Rng& rng) {
  Tensor t(std::move(shape));
  float* p = t.data();
  for (int64_t i = 0; i < t.numel(); ++i)
    p[i] = static_cast<float>(rng.normal(mean, stddev));
  return t;
}

}  // namespace hfta::nn::init
