// Bitwise tensor equality, the fused == serial contract's own check: memcmp
// also tells +0 from -0 and catches any last-bit drift that a max-abs-diff
// tolerance would forgive. Undefined tensors (a bias-free layer's bias grad)
// compare equal to each other.
#pragma once

#include <gtest/gtest.h>

#include <cstring>
#include <string>

#include "tensor/tensor.h"

namespace hfta::tests {

inline void expect_same_bits(const Tensor& want, const Tensor& got,
                             const std::string& tag) {
  ASSERT_EQ(want.defined(), got.defined()) << tag;
  if (!want.defined()) return;
  ASSERT_EQ(want.shape(), got.shape()) << tag;
  EXPECT_EQ(std::memcmp(want.data(), got.data(),
                        sizeof(float) * static_cast<size_t>(want.numel())),
            0)
      << tag;
}

}  // namespace hfta::tests
