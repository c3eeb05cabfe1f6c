// Thread-count invariance: training is bit-identical at 1/2/4/8 worker
// threads. Partition boundaries depend only on problem size and no
// floating-point accumulation chain is ever split across chunks, so a full
// capture+replay training run — per-step losses, final parameters, final
// buffers — must agree to the last bit whatever HFTA_NUM_THREADS says, and
// a warm replayed step allocates and records nothing at any thread count.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "core/parallel.h"
#include "hfta/train.h"
#include "nn/optim.h"
#include "tensor/ops.h"

#include "kind_factories.h"

namespace hfta {
namespace {

constexpr int kSteps = 10;
constexpr int64_t kN = 2;  // per-model batch

// Everything a training run produced, flattened for bitwise comparison.
struct RunOut {
  std::vector<float> losses;
  std::vector<std::vector<float>> params;
  std::vector<std::vector<float>> buffers;
};

// Ten capture+replay training steps of one registered kind at `nt` worker
// threads (fresh staged data each step, square loss, SGD+momentum).
RunOut run_kind(const std::string& kind, const tests::KindFactory& make,
                int nt) {
  set_num_threads(nt);
  Rng rng(42);
  std::shared_ptr<nn::Module> module = make(rng);
  nn::SGD opt(module->parameters(),
              nn::SGD::Options{.lr = 0.05, .momentum = 0.9});
  TrainStep step;
  step.enable_capture();  // covers capture AND replay at this thread count
  Tensor staged;
  Rng data(7);
  RunOut out;
  for (int s = 0; s < kSteps; ++s) {
    step.stage(&staged, tests::kind_input(kind, kN, data));
    ag::Variable loss = step.run(opt, [&] {
      ag::Variable y = tests::kind_forward(*module, kind, staged);
      return ag::mean_all(ag::mul(y, y));
    });
    out.losses.push_back(loss.value().item());
  }
  EXPECT_TRUE(step.stats().last_was_replay) << kind << " nt=" << nt;
  // Kernels take their per-chunk scratch on the launching thread (DESIGN
  // §10), so the warm pool serves every replayed step at any lane count.
  EXPECT_EQ(step.stats().last_heap_allocs, 0u) << kind << " nt=" << nt;
  EXPECT_EQ(step.stats().last_node_constructions, 0u) << kind << " nt=" << nt;
  for (const auto& [name, p] : module->named_parameters())
    out.params.push_back(p.value().to_vector());
  for (const auto& [name, b] : nn::named_buffers_recursive(*module))
    out.buffers.push_back(b.to_vector());
  return out;
}

void expect_bits_equal(const std::vector<float>& a,
                       const std::vector<float>& b, const std::string& tag) {
  ASSERT_EQ(a.size(), b.size()) << tag;
  if (!a.empty()) {
    EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(float)), 0)
        << tag;
  }
}

void expect_run_equal(const RunOut& a, const RunOut& b,
                      const std::string& tag) {
  expect_bits_equal(a.losses, b.losses, tag + " losses");
  ASSERT_EQ(a.params.size(), b.params.size()) << tag;
  for (size_t i = 0; i < a.params.size(); ++i)
    expect_bits_equal(a.params[i], b.params[i],
                      tag + " param " + std::to_string(i));
  ASSERT_EQ(a.buffers.size(), b.buffers.size()) << tag;
  for (size_t i = 0; i < a.buffers.size(); ++i)
    expect_bits_equal(a.buffers[i], b.buffers[i],
                      tag + " buffer " + std::to_string(i));
}

class ThreadInvarianceTest : public ::testing::Test {
 protected:
  void SetUp() override { saved_threads_ = num_threads(); }
  void TearDown() override { set_num_threads(saved_threads_); }
  int saved_threads_ = 1;
};

TEST_F(ThreadInvarianceTest, RepresentativeKindsBitIdenticalAt1248Threads) {
  // Full 1/2/4/8 sweep on kinds that exercise the heavy parallel kernels:
  // conv (im2col gemm + channel-reduced bias gradient), attention (its
  // GEMMs, softmax, layernorm), pooling, and the channel-parallel BatchNorm.
  const auto factories = tests::kind_factories();
  for (const std::string kind :
       {"Conv2d", "models::TransformerEncoderLayer", "MaxPool2d",
        "BatchNorm2d", "BatchNorm1d"}) {
    const RunOut ref = run_kind(kind, factories.at(kind), 1);
    for (int nt : {2, 4, 8}) {
      const RunOut got = run_kind(kind, factories.at(kind), nt);
      expect_run_equal(ref, got, kind + " nt=" + std::to_string(nt));
    }
  }
}

TEST_F(ThreadInvarianceTest, EveryRegisteredKindBitIdenticalAt1Vs8Threads) {
  // Every kind with an array form at the endpoints: a new kind whose
  // kernel splits an accumulation chain fails here until fixed.
  for (const auto& [kind, make] : tests::kind_factories()) {
    const RunOut one = run_kind(kind, make, 1);
    const RunOut eight = run_kind(kind, make, 8);
    expect_run_equal(one, eight, kind);
  }
}

}  // namespace
}  // namespace hfta
