// Property-based tests on the tensor substrate: algebraic identities that
// must hold for arbitrary shapes and seeds (parameterized sweeps).
#include <gtest/gtest.h>

#include <cmath>

#include "tensor/conv.h"
#include "tensor/matmul.h"
#include "tensor/ops.h"

namespace hfta {
namespace {

struct Seeded {
  uint64_t seed;
};

class TensorProps : public ::testing::TestWithParam<uint64_t> {
 protected:
  Rng rng{GetParam()};

  Shape random_shape(int64_t max_rank = 4, int64_t max_dim = 5) {
    const int64_t rank = 1 + rng.uniform_int(max_rank);
    Shape s;
    for (int64_t i = 0; i < rank; ++i) s.push_back(1 + rng.uniform_int(max_dim));
    return s;
  }
};

TEST_P(TensorProps, AddIsCommutativeAndAssociative) {
  Shape s = random_shape();
  Tensor a = Tensor::randn(s, rng), b = Tensor::randn(s, rng),
         c = Tensor::randn(s, rng);
  EXPECT_LT(ops::max_abs_diff(ops::add(a, b), ops::add(b, a)), 1e-6f);
  EXPECT_LT(ops::max_abs_diff(ops::add(ops::add(a, b), c),
                              ops::add(a, ops::add(b, c))),
            1e-5f);
}

TEST_P(TensorProps, MulDistributesOverAdd) {
  Shape s = random_shape();
  Tensor a = Tensor::randn(s, rng), b = Tensor::randn(s, rng),
         c = Tensor::randn(s, rng);
  Tensor lhs = ops::mul(a, ops::add(b, c));
  Tensor rhs = ops::add(ops::mul(a, b), ops::mul(a, c));
  EXPECT_LT(ops::max_abs_diff(lhs, rhs), 1e-4f);
}

TEST_P(TensorProps, TransposeIsInvolution) {
  Tensor a = Tensor::randn({2 + rng.uniform_int(4), 2 + rng.uniform_int(4)},
                           rng);
  EXPECT_EQ(ops::max_abs_diff(a.transpose(0, 1).transpose(0, 1), a), 0.f);
}

TEST_P(TensorProps, PermuteInverseRestores) {
  Tensor a = Tensor::randn({2, 3, 4}, rng);
  std::vector<int64_t> perm = {2, 0, 1};
  std::vector<int64_t> inv(3);
  for (size_t i = 0; i < 3; ++i) inv[static_cast<size_t>(perm[i])] = static_cast<int64_t>(i);
  EXPECT_EQ(ops::max_abs_diff(a.permute(perm).permute(inv), a), 0.f);
}

TEST_P(TensorProps, SumOverAllDimsEqualsSumAll) {
  Shape s = random_shape(3);
  Tensor a = Tensor::randn(s, rng);
  std::vector<int64_t> dims;
  for (int64_t i = 0; i < a.dim(); ++i) dims.push_back(i);
  Tensor reduced = ops::sum(a, dims, false);
  EXPECT_NEAR(reduced.item(), ops::sum_all(a).item(),
              1e-4f * static_cast<float>(a.numel()));
}

TEST_P(TensorProps, MatmulAgreesWithTransposedForm) {
  const int64_t m = 1 + rng.uniform_int(6), k = 1 + rng.uniform_int(6),
                n = 1 + rng.uniform_int(6);
  Tensor a = Tensor::randn({m, k}, rng), b = Tensor::randn({k, n}, rng);
  // (A B)^T == B^T A^T
  Tensor lhs = ops::matmul(a, b).transpose(0, 1);
  Tensor rhs = ops::matmul(b.transpose(0, 1), a.transpose(0, 1));
  EXPECT_LT(ops::max_abs_diff(lhs, rhs), 1e-4f);
}

TEST_P(TensorProps, SoftmaxInvariantToShift) {
  Tensor a = Tensor::randn({3, 6}, rng);
  Tensor shifted = ops::add_scalar(a, 5.f);
  EXPECT_LT(ops::max_abs_diff(ops::softmax(a, 1), ops::softmax(shifted, 1)),
            1e-5f);
}

TEST_P(TensorProps, ConvLinearity) {
  // conv(x1 + x2, w) == conv(x1, w) + conv(x2, w)
  const int64_t C = 1 + rng.uniform_int(3);
  Tensor x1 = Tensor::randn({2, C, 6, 6}, rng);
  Tensor x2 = Tensor::randn({2, C, 6, 6}, rng);
  Tensor w = Tensor::randn({2, C, 3, 3}, rng);
  const auto args = ops::ConvArgs::make(1, 1);
  Tensor lhs = ops::conv2d(ops::add(x1, x2), w, Tensor(), args);
  Tensor rhs = ops::add(ops::conv2d(x1, w, Tensor(), args),
                        ops::conv2d(x2, w, Tensor(), args));
  EXPECT_LT(ops::max_abs_diff(lhs, rhs), 1e-3f);
}

TEST_P(TensorProps, ConvAdjointIdentity) {
  // <conv(x, w), y> == <x, conv_grad_input(y, w)> for random shapes.
  const int64_t C = 1 + rng.uniform_int(3);
  const int64_t F = 1 + rng.uniform_int(3);
  Tensor x = Tensor::randn({1, C, 7, 7}, rng);
  Tensor w = Tensor::randn({F, C, 3, 3}, rng);
  const auto args = ops::ConvArgs::make(2, 1);
  Tensor y = ops::conv2d(x, w, Tensor(), args);
  Tensor probe = Tensor::randn(y.shape(), rng);
  const float lhs = ops::sum_all(ops::mul(y, probe)).item();
  Tensor gx = ops::conv2d_grad_input(probe, w, Tensor(), x.shape(), args);
  const float rhs = ops::sum_all(ops::mul(x, gx)).item();
  EXPECT_NEAR(lhs, rhs, std::fabs(lhs) * 1e-3f + 1e-2f);
}

TEST_P(TensorProps, ReduceToShapeIsAdjointOfBroadcast) {
  // <broadcast(b), g> == <b, reduce_to_shape(g)>
  Tensor b = Tensor::randn({1 + rng.uniform_int(4)}, rng);
  Shape big = {2 + rng.uniform_int(3), b.size(0)};
  Tensor g = Tensor::randn(big, rng);
  Tensor broadcast = ops::add(Tensor::zeros(big), b);
  const float lhs = ops::sum_all(ops::mul(broadcast, g)).item();
  Tensor reduced = ops::reduce_to_shape(g, b.shape());
  const float rhs = ops::sum_all(ops::mul(b, reduced)).item();
  EXPECT_NEAR(lhs, rhs, std::fabs(lhs) * 1e-4f + 1e-3f);
}

TEST_P(TensorProps, GroupedConvEqualsBlockDiagonal) {
  // The fusion identity for random group counts: grouped conv == per-group
  // convs on channel slices.
  const int64_t g = 1 + rng.uniform_int(3);
  const int64_t cin_g = 1 + rng.uniform_int(2);
  const int64_t cout_g = 1 + rng.uniform_int(2);
  Tensor x = Tensor::randn({2, g * cin_g, 5, 5}, rng);
  Tensor w = Tensor::randn({g * cout_g, cin_g, 3, 3}, rng);
  Tensor grouped =
      ops::conv2d(x, w, Tensor(), ops::ConvArgs::make(1, 1, g));
  for (int64_t gi = 0; gi < g; ++gi) {
    Tensor xg = x.slice(1, gi * cin_g, (gi + 1) * cin_g);
    Tensor wg = w.slice(0, gi * cout_g, (gi + 1) * cout_g);
    Tensor yg = ops::conv2d(xg, wg, Tensor(), ops::ConvArgs::make(1, 1, 1));
    Tensor expected = grouped.slice(1, gi * cout_g, (gi + 1) * cout_g);
    EXPECT_LT(ops::max_abs_diff(yg, expected), 1e-4f) << "group " << gi;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TensorProps,
                         ::testing::Values(11, 22, 33, 44, 55, 66, 77, 88));

}  // namespace
}  // namespace hfta
