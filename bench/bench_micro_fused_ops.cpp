// Micro-benchmarks of the REAL fused CPU kernels (google-benchmark):
// B separate ops vs their horizontally fused counterpart. Even on CPU the
// fused form wins by amortizing per-op dispatch and exposing more parallel
// work per kernel — the same mechanisms the paper exploits on GPUs/TPUs.
#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "core/vec.h"
#include "hfta/fused_optim.h"
#include "hfta/fused_ops.h"
#include "nn/layers.h"
#include "tensor/conv.h"
#include "tensor/matmul.h"

using namespace hfta;

namespace {

constexpr int64_t kN = 8, kC = 16, kHW = 16, kK = 3;

void BM_ConvSeparate(benchmark::State& state) {
  const int64_t B = state.range(0);
  Rng rng(1);
  std::vector<Tensor> xs, ws;
  for (int64_t b = 0; b < B; ++b) {
    xs.push_back(Tensor::randn({kN, kC, kHW, kHW}, rng));
    ws.push_back(Tensor::randn({kC, kC, kK, kK}, rng));
  }
  const auto args = ops::ConvArgs::make(1, 1);
  for (auto _ : state) {
    for (int64_t b = 0; b < B; ++b) {
      benchmark::DoNotOptimize(
          ops::conv2d(xs[static_cast<size_t>(b)], ws[static_cast<size_t>(b)],
                      Tensor(), args));
    }
  }
}
BENCHMARK(BM_ConvSeparate)->Arg(2)->Arg(4)->Arg(8);

void BM_ConvFusedGrouped(benchmark::State& state) {
  const int64_t B = state.range(0);
  Rng rng(1);
  Tensor x = Tensor::randn({kN, B * kC, kHW, kHW}, rng);
  Tensor w = Tensor::randn({B * kC, kC, kK, kK}, rng);
  const auto args = ops::ConvArgs::make(1, 1, B);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ops::conv2d(x, w, Tensor(), args));
  }
}
BENCHMARK(BM_ConvFusedGrouped)->Arg(2)->Arg(4)->Arg(8);

void BM_LinearSeparate(benchmark::State& state) {
  const int64_t B = state.range(0);
  Rng rng(2);
  const int64_t M = 64, in = 128, out = 128;
  std::vector<Tensor> xs, ws, bs;
  for (int64_t b = 0; b < B; ++b) {
    xs.push_back(Tensor::randn({M, in}, rng));
    ws.push_back(Tensor::randn({out, in}, rng));
    bs.push_back(Tensor::randn({out}, rng));
  }
  for (auto _ : state) {
    for (int64_t b = 0; b < B; ++b) {
      benchmark::DoNotOptimize(ops::linear_forward(
          xs[static_cast<size_t>(b)], ws[static_cast<size_t>(b)],
          bs[static_cast<size_t>(b)]));
    }
  }
}
BENCHMARK(BM_LinearSeparate)->Arg(2)->Arg(4)->Arg(8);

void BM_LinearFusedBaddbmm(benchmark::State& state) {
  const int64_t B = state.range(0);
  Rng rng(2);
  const int64_t M = 64, in = 128, out = 128;
  Tensor x = Tensor::randn({B, M, in}, rng);
  Tensor w = Tensor::randn({B, in, out}, rng);
  Tensor bias = Tensor::randn({B, 1, out}, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ops::baddbmm(bias, x, w));
  }
}
BENCHMARK(BM_LinearFusedBaddbmm)->Arg(2)->Arg(4)->Arg(8);

// matmul_nt (x @ w^T, the linear_forward kernel): the dot-product NT
// microkernel vs the old transpose-then-NN-GEMM route it replaced.
void BM_MatmulNTDirect(benchmark::State& state) {
  const int64_t M = state.range(0), K = state.range(0), N = state.range(0);
  Rng rng(4);
  Tensor a = Tensor::randn({M, K}, rng);
  Tensor b = Tensor::randn({N, K}, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ops::matmul_nt(a, b));
  }
}
BENCHMARK(BM_MatmulNTDirect)->Arg(64)->Arg(128)->Arg(256);

void BM_MatmulNTViaTranspose(benchmark::State& state) {
  const int64_t M = state.range(0), K = state.range(0), N = state.range(0);
  Rng rng(4);
  Tensor a = Tensor::randn({M, K}, rng);
  Tensor b = Tensor::randn({N, K}, rng);
  for (auto _ : state) {
    // The pre-microkernel implementation: materialize b^T, then NN GEMM.
    Tensor bt = b.transpose(0, 1);
    benchmark::DoNotOptimize(ops::matmul(a, bt));
  }
}
BENCHMARK(BM_MatmulNTViaTranspose)->Arg(64)->Arg(128)->Arg(256);

void BM_AdamSeparate(benchmark::State& state) {
  const int64_t B = state.range(0);
  Rng rng(3);
  const int64_t P = 1 << 16;
  std::vector<std::unique_ptr<nn::Adam>> opts;
  std::vector<ag::Variable> params;
  for (int64_t b = 0; b < B; ++b) {
    ag::Variable p(Tensor::randn({P}, rng), true);
    p.grad().copy_(Tensor::randn({P}, rng));
    params.push_back(p);
    opts.push_back(std::make_unique<nn::Adam>(
        std::vector<ag::Variable>{p}, nn::Adam::Options{.lr = 1e-3 * (b + 1)}));
  }
  for (auto _ : state) {
    for (auto& o : opts) o->step();
  }
}
BENCHMARK(BM_AdamSeparate)->Arg(4)->Arg(16);

void BM_AdamFused(benchmark::State& state) {
  const int64_t B = state.range(0);
  Rng rng(3);
  const int64_t P = 1 << 16;
  ag::Variable p(Tensor::randn({B * P}, rng), true);
  p.grad().copy_(Tensor::randn({B * P}, rng));
  fused::HyperVec lrs;
  for (int64_t b = 0; b < B; ++b) lrs.push_back(1e-3 * (b + 1));
  fused::FusedAdam opt({{p, B}}, B, {.lr = lrs});
  for (auto _ : state) {
    opt.step();
  }
}
BENCHMARK(BM_AdamFused)->Arg(4)->Arg(16);

// ---- packed SIMD GEMM vs forced-scalar baseline -----------------------------
// Same kernel, both backends: the scalar leg runs the 8-wide virtual-lane
// emulation (the bit-exactness reference), so the ratio isolates what the
// AVX2 microkernel itself buys at each square size.

void BM_GemmPackedSimd(benchmark::State& state) {
  const int64_t M = state.range(0), K = state.range(0), N = state.range(0);
  Rng rng(5);
  Tensor a = Tensor::randn({M, K}, rng);
  Tensor b = Tensor::randn({K, N}, rng);
  vec::set_simd_enabled(true);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ops::matmul(a, b));
  }
  state.SetLabel(vec::simd_name());
  state.counters["GFLOPS"] = benchmark::Counter(
      static_cast<double>(2 * M * N * K) * static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate, benchmark::Counter::OneK::kIs1000);
}
BENCHMARK(BM_GemmPackedSimd)->Arg(64)->Arg(128)->Arg(256)->Arg(512);

void BM_GemmForcedScalar(benchmark::State& state) {
  const int64_t M = state.range(0), K = state.range(0), N = state.range(0);
  Rng rng(5);
  Tensor a = Tensor::randn({M, K}, rng);
  Tensor b = Tensor::randn({K, N}, rng);
  vec::set_simd_enabled(false);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ops::matmul(a, b));
  }
  vec::set_simd_enabled(true);
  state.counters["GFLOPS"] = benchmark::Counter(
      static_cast<double>(2 * M * N * K) * static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate, benchmark::Counter::OneK::kIs1000);
}
BENCHMARK(BM_GemmForcedScalar)->Arg(64)->Arg(128)->Arg(256)->Arg(512);

}  // namespace

BENCHMARK_MAIN();
