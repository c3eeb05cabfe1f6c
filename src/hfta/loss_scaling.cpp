#include "hfta/loss_scaling.h"

#include "tensor/ops.h"

namespace hfta::fused {

namespace {

// kMean is built as the kSum loss times float(1/per_model): the per-model
// mean rule of loss_scaling.h.
ag::Reduction summed(ag::Reduction r) {
  return r == ag::Reduction::kMean ? ag::Reduction::kSum : r;
}
ag::Variable per_model_mean(const ag::Variable& loss, ag::Reduction r,
                            int64_t per_model) {
  if (r != ag::Reduction::kMean) return loss;
  return ag::mul_scalar(loss, 1.f / static_cast<float>(per_model));
}

}  // namespace

ag::Variable fused_cross_entropy(const ag::Variable& logits,
                                 const Tensor& labels,
                                 ag::Reduction reduction) {
  HFTA_CHECK(logits.dim() == 3, "fused_cross_entropy: logits must be [B,N,C]");
  const int64_t B = logits.size(0);
  const int64_t N = logits.size(1);
  const int64_t C = logits.size(2);
  ag::Variable flat = ag::reshape(logits, {B * N, C});
  ag::Variable loss =
      ag::cross_entropy(flat, labels.reshape({B * N}), summed(reduction));
  return per_model_mean(loss, reduction, N);
}

ag::Variable fused_bce_with_logits(const ag::Variable& logits,
                                   const Tensor& targets,
                                   ag::Reduction reduction,
                                   int64_t array_size) {
  HFTA_CHECK(logits.numel() % array_size == 0,
             "fused_bce_with_logits: numel not divisible by B");
  ag::Variable loss =
      ag::bce_with_logits(logits, targets, summed(reduction));
  return per_model_mean(loss, reduction, logits.numel() / array_size);
}

std::vector<double> per_model_cross_entropy(const Tensor& logits,
                                            const Tensor& labels) {
  HFTA_CHECK(logits.dim() == 3, "per_model_cross_entropy: [B,N,C] expected");
  const int64_t B = logits.size(0);
  const int64_t N = logits.size(1);
  Tensor logp = ops::log_softmax(logits, 2);
  std::vector<double> out(static_cast<size_t>(B), 0.0);
  const float* pl = labels.data();
  const float* pp = logp.data();
  const int64_t C = logits.size(2);
  for (int64_t b = 0; b < B; ++b) {
    double acc = 0.0;
    for (int64_t n = 0; n < N; ++n) {
      const int64_t cls = static_cast<int64_t>(pl[b * N + n]);
      acc -= pp[(b * N + n) * C + cls];
    }
    out[static_cast<size_t>(b)] = acc / static_cast<double>(N);
  }
  return out;
}

}  // namespace hfta::fused
