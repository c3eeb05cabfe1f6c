// The redesigned parallel runtime: Partition boundaries as a pure function
// of problem size, the work floor under which a launch runs inline,
// exact-once coverage under dynamic chunk claiming (back to back, and after
// the workers have parked), inline nesting, the runtime thread-count
// override and the excess lanes it parks, and bit-identical kernel results
// at every thread count and on both SIMD backends.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <mutex>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include "autograd/engine.h"
#include "autograd/functions.h"
#include "core/parallel.h"
#include "core/rng.h"
#include "core/vec.h"
#include "tensor/conv.h"
#include "tensor/matmul.h"
#include "tensor/ops.h"
#include "tensor/pool.h"
#include "tensor/tensor.h"

namespace hfta {
namespace {

// Every test restores the configured lane count on exit so suites can run
// in any order.
class ParallelTest : public ::testing::Test {
 protected:
  void SetUp() override { saved_threads_ = num_threads(); }
  void TearDown() override { set_num_threads(saved_threads_); }
  int saved_threads_ = 1;
};

TEST_F(ParallelTest, PartitionBoundariesIgnoreThreadCount) {
  // The decomposition is a pure function of the problem size: changing the
  // worker count must not move a single chunk boundary.
  set_num_threads(1);
  const Partition r1 = Partition::rows(1000);
  const Partition e1 = Partition::elems(1 << 20);
  const Partition g1 = Partition::range(5, 4321, 10);
  set_num_threads(8);
  const Partition r8 = Partition::rows(1000);
  const Partition e8 = Partition::elems(1 << 20);
  const Partition g8 = Partition::range(5, 4321, 10);
  EXPECT_EQ(r1.chunk, r8.chunk);
  EXPECT_EQ(e1.chunk, e8.chunk);
  EXPECT_EQ(g1.chunk, g8.chunk);
  EXPECT_EQ(g1.begin, g8.begin);
  EXPECT_EQ(g1.end, g8.end);
  EXPECT_EQ(g1.num_chunks(), g8.num_chunks());
}

TEST_F(ParallelTest, PartitionRespectsMinPerChunkAndTargetCap) {
  // Small ranges: at most one chunk per min_per_chunk worth of work.
  const Partition small = Partition::range(0, 100, 64);
  EXPECT_EQ(small.num_chunks(), 1);  // 100/64 -> 1 chunk
  // Large ranges: never more than kTargetChunks chunks.
  const Partition large = Partition::rows(1 << 20);
  EXPECT_LE(large.num_chunks(), Partition::kTargetChunks);
  EXPECT_GE(large.num_chunks(), Partition::kTargetChunks - 1);
  // Empty range: zero chunks, and parallel_for must be a no-op.
  const Partition empty = Partition::rows(0);
  EXPECT_EQ(empty.num_chunks(), 0);
  bool called = false;
  parallel_for(empty, [&](int64_t, int64_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST_F(ParallelTest, WorkFloorBoundariesIgnoreThreadCount) {
  // Around the floor (total work one unit under, at and over it, and around
  // two floors) the decomposition is the same at every lane count, and a
  // partition whose whole work is under the floor is one chunk.
  constexpr int64_t kFloor = Partition::kWorkFloor;
  std::vector<std::pair<int64_t, int64_t>> cases;  // (n, per_index)
  for (int64_t per : {int64_t{1}, int64_t{3}, int64_t{768}, kFloor - 1,
                      kFloor, 5 * kFloor}) {
    for (int64_t total : {kFloor - 1, kFloor, kFloor + 1, 2 * kFloor - 1,
                          2 * kFloor, 2 * kFloor + 1, 40 * kFloor}) {
      cases.emplace_back(total / per, per);
      cases.emplace_back(total / per + 1, per);
    }
  }
  std::vector<Partition> ref;
  for (int nt : {1, 2, 3, 4, 8}) {
    set_num_threads(nt);
    for (size_t i = 0; i < cases.size(); ++i) {
      const auto [n, per] = cases[i];
      const Partition p = Partition::work(n, per);
      if (nt == 1) {
        ref.push_back(p);
        if (n * per < kFloor) {
          EXPECT_LE(p.num_chunks(), 1) << n << "x" << per;
        }
        if (p.num_chunks() > 1) {
          EXPECT_GE(p.chunk * per, kFloor) << n << "x" << per;
        }
        EXPECT_LE(p.num_chunks(), Partition::kTargetChunks);
        continue;
      }
      EXPECT_EQ(p.begin, ref[i].begin) << n << "x" << per << " at " << nt;
      EXPECT_EQ(p.end, ref[i].end) << n << "x" << per << " at " << nt;
      EXPECT_EQ(p.chunk, ref[i].chunk) << n << "x" << per << " at " << nt;
    }
  }
  // Two floors of work split in two; rows() lets every index stand alone.
  EXPECT_EQ(Partition::work(2 * kFloor, 1).num_chunks(), 2);
  EXPECT_EQ(Partition::work(kFloor - 1, 1).num_chunks(), 1);
  EXPECT_EQ(Partition::rows(7).num_chunks(), 7);
}

// Runs one row-major m x n x k f32 GEMM through vec::gemm.
void run_gemm(const std::vector<float>& a, const std::vector<float>& b,
              std::vector<float>& c, int64_t m, int64_t n, int64_t k) {
  vec::GemmArgs g;
  g.a = a.data();
  g.b = b.data();
  g.c = c.data();
  g.m = m;
  g.n = n;
  g.k = k;
  vec::gemm(g);
}

TEST_F(ParallelTest, GemmLaunchesOnlyOverTheWorkFloor) {
  // 30 x 16 x 64: five row blocks of 6 * 64 * 16 / 8 = 768 vector FMAs,
  // 3840 in all, under the floor: no launch at 4 lanes. 256 x 256 x 300:
  // two k panels (256 and 44), each far over the floor: one launch per
  // panel at 4 lanes, none at one lane. 48 x 260: the first panel's blocks
  // hold 9216 vector FMAs, so 3 blocks (m = 18) stay one chunk and 4
  // (m = 19) make two; the second panel (kc = 4) never launches.
  Rng rng(11);
  auto launches = [&](int64_t m, int64_t n, int64_t k, int lanes) {
    const auto a = Tensor::randn({m, k}, rng).to_vector();
    const auto b = Tensor::randn({k, n}, rng).to_vector();
    std::vector<float> c(static_cast<size_t>(m * n));
    set_num_threads(lanes);
    const int64_t before = parallel_launches();
    run_gemm(a, b, c, m, n, k);
    return parallel_launches() - before;
  };
  EXPECT_EQ(launches(30, 16, 64, 4), 0);
  EXPECT_EQ(launches(256, 256, 300, 4), 2);
  EXPECT_EQ(launches(256, 256, 300, 1), 0);
  EXPECT_EQ(launches(18, 48, 260, 4), 0);
  EXPECT_EQ(launches(19, 48, 260, 4), 1);
}

TEST_F(ParallelTest, GemmsStraddlingTheWorkFloorMatchOneThreadScalarBitwise) {
  // m = 1..64 rows against (n, k) shapes whose row blocks never fill two
  // chunks (5 x 7), or first launch at m = 43 (32 x 200) or m = 55
  // (130 x 40), and one (48 x 260) whose first k panel launches from m = 19
  // while its second (kc = 4) always runs inline. Each GEMM runs through
  // vec::gemm, a batched matmul (2 batches), and linear at groups 1 and 3,
  // at 1/2/3/4/8 lanes on both SIMD backends, and is memcmp'd against the
  // 1-lane scalar result.
  const bool simd_was_on = vec::simd_active();
  struct Shape3 {
    int64_t n, k;
  };
  const std::vector<Shape3> shapes = {{5, 7}, {48, 260}, {32, 200}, {130, 40}};
  struct Case {
    Tensor a, b, a3, w3, bias3;  // gemm/matmul operands; linear x, w, bias
  };
  std::vector<Case> cases;
  Rng rng(13);
  for (const Shape3& s : shapes)
    for (int64_t m = 1; m <= 64; ++m)
      cases.push_back({Tensor::randn({2, m, s.k}, rng),
                       Tensor::randn({2, s.k, s.n}, rng),
                       Tensor::randn({3 * m, s.k}, rng),
                       Tensor::randn({3 * s.n, s.k}, rng),
                       Tensor::randn({3 * s.n}, rng)});
  auto run_all = [&](const Case& c) {
    const int64_t m = c.a.size(1), k = c.a.size(2), n = c.b.size(2);
    std::vector<std::vector<float>> out;
    const auto a0 = c.a.to_vector();
    const auto b0 = c.b.to_vector();
    std::vector<float> y(static_cast<size_t>(m * n));
    run_gemm(a0, b0, y, m, n, k);  // batch 0 of a and b
    out.push_back(y);
    out.push_back(ops::matmul(c.a, c.b).to_vector());
    const int64_t n_out = c.w3.size(0) / 3;
    out.push_back(ops::linear_forward(c.a3, c.w3.slice(0, 0, n_out),
                                      c.bias3.slice(0, 0, n_out))
                      .to_vector());
    out.push_back(ops::linear_forward(c.a3, c.w3, c.bias3, 3).to_vector());
    return out;
  };
  set_num_threads(1);
  vec::set_simd_enabled(false);
  std::vector<std::vector<std::vector<float>>> ref;
  for (const Case& c : cases) ref.push_back(run_all(c));
  const char* names[] = {"vec::gemm", "batched matmul", "linear g1",
                         "linear g3"};
  for (bool simd : {true, false}) {
    vec::set_simd_enabled(simd);
    for (int nt : {1, 2, 3, 4, 8}) {
      if (!simd && nt == 1) continue;  // the reference itself
      set_num_threads(nt);
      for (size_t i = 0; i < cases.size(); ++i) {
        const auto got = run_all(cases[i]);
        for (size_t j = 0; j < got.size(); ++j) {
          ASSERT_EQ(got[j].size(), ref[i][j].size());
          ASSERT_EQ(std::memcmp(got[j].data(), ref[i][j].data(),
                                got[j].size() * sizeof(float)),
                    0)
              << names[j] << " m=" << cases[i].a.size(1)
              << " n=" << cases[i].b.size(2) << " k=" << cases[i].a.size(2)
              << " threads=" << nt << " simd=" << simd;
        }
      }
    }
  }
  vec::set_simd_enabled(simd_was_on);
}

TEST_F(ParallelTest, EveryIndexCoveredExactlyOnce) {
  const int64_t n = 100000;
  std::unique_ptr<std::atomic<int>[]> hits(new std::atomic<int>[n]);
  for (int64_t i = 0; i < n; ++i) hits[i].store(0, std::memory_order_relaxed);
  set_num_threads(8);
  parallel_for(Partition::range(0, n, 1), [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i)
      hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (int64_t i = 0; i < n; ++i)
    ASSERT_EQ(hits[i].load(std::memory_order_relaxed), 1) << "index " << i;
}

TEST_F(ParallelTest, NonZeroBeginIsHonored) {
  std::atomic<int64_t> count{0};
  std::atomic<int64_t> min_seen{1 << 30};
  set_num_threads(4);
  parallel_for(Partition::range(37, 9000, 1), [&](int64_t lo, int64_t hi) {
    count.fetch_add(hi - lo, std::memory_order_relaxed);
    int64_t cur = min_seen.load(std::memory_order_relaxed);
    while (lo < cur &&
           !min_seen.compare_exchange_weak(cur, lo, std::memory_order_relaxed))
      ;
  });
  EXPECT_EQ(count.load(), 9000 - 37);
  EXPECT_EQ(min_seen.load(), 37);
}

TEST_F(ParallelTest, NestedParallelForRunsInlineWithoutDeadlock) {
  set_num_threads(8);
  const int64_t outer_n = 64, inner_n = 256;
  std::unique_ptr<std::atomic<int>[]> hits(
      new std::atomic<int>[outer_n * inner_n]);
  for (int64_t i = 0; i < outer_n * inner_n; ++i)
    hits[i].store(0, std::memory_order_relaxed);
  parallel_for(Partition::rows(outer_n), [&](int64_t lo, int64_t hi) {
    for (int64_t o = lo; o < hi; ++o) {
      // Inner launch from inside the pool: must run inline (whole range in
      // one call), not re-enter the pool.
      parallel_for(Partition::rows(inner_n), [&](int64_t ilo, int64_t ihi) {
        EXPECT_EQ(ilo, 0);
        EXPECT_EQ(ihi, inner_n);
        for (int64_t i = ilo; i < ihi; ++i)
          hits[o * inner_n + i].fetch_add(1, std::memory_order_relaxed);
      });
    }
  });
  for (int64_t i = 0; i < outer_n * inner_n; ++i)
    ASSERT_EQ(hits[i].load(std::memory_order_relaxed), 1);
}

TEST_F(ParallelTest, SetNumThreadsRoundTripsAndClamps) {
  set_num_threads(3);
  EXPECT_EQ(num_threads(), 3);
  set_num_threads(0);   // clamped up
  EXPECT_EQ(num_threads(), 1);
  set_num_threads(1 << 20);  // clamped down to the pool maximum
  EXPECT_EQ(num_threads(), 64);
  // Lowering after raising parks workers; launches must still cover fully.
  set_num_threads(2);
  std::atomic<int64_t> total{0};
  parallel_for(Partition::rows(5000), [&](int64_t lo, int64_t hi) {
    total.fetch_add(hi - lo, std::memory_order_relaxed);
  });
  EXPECT_EQ(total.load(), 5000);
}

TEST_F(ParallelTest, BackToBackLaunchBurstCoversEveryIndexOnce) {
  // Launches closer together than the workers' poll window: workers pick
  // up each job without parking, and one that saw a launch late may load
  // the next launch's Job, which lives in the same stack slot.
  constexpr int64_t kLaunches = 20000, kChunks = 4;
  for (int lanes : {4, 8}) {
    set_num_threads(lanes);
    std::unique_ptr<std::atomic<int>[]> hits(
        new std::atomic<int>[kLaunches * kChunks]);
    for (int64_t i = 0; i < kLaunches * kChunks; ++i)
      hits[i].store(0, std::memory_order_relaxed);
    const Partition p = Partition::rows(kChunks);
    ASSERT_EQ(p.num_chunks(), kChunks);
    const int64_t before = parallel_launches();
    for (int64_t l = 0; l < kLaunches; ++l) {
      parallel_for(p, [&](int64_t lo, int64_t hi) {
        for (int64_t i = lo; i < hi; ++i)
          hits[l * kChunks + i].fetch_add(1, std::memory_order_relaxed);
      });
    }
    EXPECT_EQ(parallel_launches() - before, kLaunches) << lanes << " lanes";
    for (int64_t i = 0; i < kLaunches * kChunks; ++i)
      ASSERT_EQ(hits[i].load(std::memory_order_relaxed), 1)
          << "launch " << i / kChunks << " chunk " << i % kChunks << " at "
          << lanes << " lanes";
  }
}

TEST_F(ParallelTest, LaunchesAfterIdleGapsWakeParkedWorkers) {
  // Each launch follows an idle gap longer than the poll window, so the
  // workers have parked and must be woken. Chunks sleep long enough that a
  // woken worker takes some of them.
  constexpr int kLaunches = 50;
  constexpr int64_t kChunks = 16;
  set_num_threads(4);
  const std::thread::id launcher = std::this_thread::get_id();
  int64_t off_launcher = 0;
  for (int l = 0; l < kLaunches; ++l) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    std::atomic<int64_t> covered{0}, elsewhere{0};
    parallel_for(Partition::rows(kChunks), [&](int64_t lo, int64_t hi) {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
      covered.fetch_add(hi - lo, std::memory_order_relaxed);
      if (std::this_thread::get_id() != launcher)
        elsewhere.fetch_add(hi - lo, std::memory_order_relaxed);
    });
    ASSERT_EQ(covered.load(), kChunks) << "launch " << l;
    off_launcher += elsewhere.load();
  }
  EXPECT_GT(off_launcher, 0) << "no parked worker ever woke for a launch";
}

TEST_F(ParallelTest, ExcessLanesStayParkedAfterLoweringTheCount) {
  // Raising to 64 lanes spawns 63 workers; lowering to 2 leaves one worker
  // in the lanes. The other 62 must never claim a chunk, spinning or not.
  std::mutex mu;
  std::set<std::thread::id> ids;
  for (int round = 0; round < 10; ++round) {
    // A launch at 64 lanes leaves every worker polling when the count
    // drops, so some may see the next launch after it has dropped.
    set_num_threads(64);
    parallel_for(Partition::rows(64), [](int64_t, int64_t) {});
    set_num_threads(2);
    for (int l = 0; l < 100; ++l) {
      parallel_for(Partition::rows(8), [&](int64_t, int64_t) {
        std::lock_guard<std::mutex> lk(mu);
        ids.insert(std::this_thread::get_id());
      });
    }
  }
  EXPECT_LE(ids.size(), 2u);
}

// Bitwise comparison helper: float vectors produced by the same math at
// different thread counts must match to the last bit.
void expect_bits_equal(const std::vector<float>& a,
                       const std::vector<float>& b, const char* tag) {
  ASSERT_EQ(a.size(), b.size()) << tag;
  if (!a.empty()) {
    EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(float)), 0)
        << tag;
  }
}

TEST_F(ParallelTest, KernelsBitIdenticalAcrossThreadCounts) {
  // Reducing kernels (gemm, sum over dims, embedding scatter, softmax) at
  // 1/2/4/8 lanes: fixed partitions + unsplit accumulation chains mean the
  // result cannot depend on the worker count.
  Rng rng(3);
  const Tensor a = Tensor::randn({37, 65}, rng);
  const Tensor b = Tensor::randn({65, 41}, rng);
  const Tensor t3 = Tensor::randn({7, 33, 5}, rng);
  Tensor grad = Tensor::randn({50, 6}, rng);
  Tensor idx({50});
  for (int64_t i = 0; i < 50; ++i)
    idx.data()[i] = static_cast<float>((i * 7) % 20);  // repeated rows

  std::vector<float> mm_ref, sum_ref, emb_ref, sm_ref, bcast_ref;
  for (int nt : {1, 2, 4, 8}) {
    set_num_threads(nt);
    const auto mm = ops::matmul(a, b).to_vector();
    const auto sums = ops::sum(t3, {1}, /*keepdim=*/false).to_vector();
    const auto emb = ops::embedding_backward(grad, idx, 20).to_vector();
    const auto sm = ops::softmax(a, -1).to_vector();
    const auto bc = ops::add(t3, Tensor::ones({5})).to_vector();
    if (nt == 1) {
      mm_ref = mm;
      sum_ref = sums;
      emb_ref = emb;
      sm_ref = sm;
      bcast_ref = bc;
    } else {
      expect_bits_equal(mm_ref, mm, "matmul");
      expect_bits_equal(sum_ref, sums, "sum");
      expect_bits_equal(emb_ref, emb, "embedding_backward");
      expect_bits_equal(sm_ref, sm, "softmax");
      expect_bits_equal(bcast_ref, bc, "broadcast add");
    }
  }
}

// n floats, mostly N(0, 1), with -0, +-inf, NaN and +-subnormals strewn
// through every chunk.
Tensor edge_values(int64_t n, Rng& rng) {
  Tensor t = Tensor::randn({n}, rng);
  float* p = t.data();
  const float sub = std::numeric_limits<float>::denorm_min();
  const float specials[] = {-0.f,
                            std::numeric_limits<float>::infinity(),
                            -std::numeric_limits<float>::infinity(),
                            std::numeric_limits<float>::quiet_NaN(),
                            sub * 3,
                            -sub * 1000,
                            std::numeric_limits<float>::min() / 2};
  for (int64_t i = 0; i < n; i += 5) p[i] = specials[(i / 5) % 7];
  return t;
}

constexpr int64_t kUneven = 3 * Partition::kWorkFloor + 5;  // 4 chunks

TEST_F(ParallelTest, GradientHandOffBitIdenticalAcrossLanes) {
  // x feeds two consumers, so its gradient is first overwritten (x + 0)
  // and then added to. a's gradient is one contribution, the seed itself,
  // so a -0 in the seed lands there as +0.
  Rng rng(5);
  const Tensor seed = edge_values(kUneven, rng);
  const Tensor x0 = Tensor::randn({kUneven}, rng);
  auto run = [&] {
    ag::Variable x(x0.clone(), /*requires_grad=*/true);
    ag::Variable a = ag::add_scalar(x, 1.f);
    ag::Variable root = ag::add(a, ag::mul_scalar(x, 2.f));
    ag::Engine engine;
    engine.run(root, seed);
    return std::make_pair(x.grad().to_vector(), a.grad().to_vector());
  };
  set_num_threads(1);
  const auto ref = run();
  for (int64_t i = 0; i < kUneven; i += 35) {  // every seed -0
    ASSERT_TRUE(seed.data()[i] == 0.f && std::signbit(seed.data()[i]));
    EXPECT_FALSE(std::signbit(ref.second[static_cast<size_t>(i)]))
        << "a -0 first contribution must land as +0 at " << i;
  }
  for (int nt : {2, 3, 4, 8}) {
    set_num_threads(nt);
    const auto got = run();
    expect_bits_equal(ref.first, got.first, "two-consumer leaf grad");
    expect_bits_equal(ref.second, got.second, "one-contribution grad");
  }
}

TEST_F(ParallelTest, InPlaceOpsAndPermuteBitIdenticalAcrossLanes) {
  Rng rng(6);
  const Tensor a = edge_values(kUneven, rng);
  const Tensor b = edge_values(kUneven, rng);
  const Tensor t3 = edge_values(5 * 97 * 131, rng).reshape({5, 97, 131});
  auto run = [&] {
    std::vector<std::vector<float>> out;
    Tensor t = Tensor::empty({kUneven});
    t.fill_(-0.f);
    out.push_back(t.to_vector());
    t.zero_();
    out.push_back(t.to_vector());
    t.copy_(a);
    out.push_back(t.to_vector());
    t.add_(b, 0.37f);
    out.push_back(t.to_vector());
    t.mul_(-3.f);
    out.push_back(t.to_vector());
    out.push_back(t3.permute({2, 0, 1}).to_vector());
    return out;
  };
  set_num_threads(1);
  const auto ref = run();
  // The permute against its definition: y[k, i, j] = t3[i, j, k].
  const float* src = t3.data();
  for (int64_t k = 0; k < 131; ++k)
    for (int64_t i = 0; i < 5; ++i)
      for (int64_t j = 0; j < 97; ++j) {
        const float want = src[(i * 97 + j) * 131 + k];
        const float got = ref[5][static_cast<size_t>((k * 5 + i) * 97 + j)];
        ASSERT_EQ(std::memcmp(&want, &got, sizeof(float)), 0)
            << k << ", " << i << ", " << j;
      }
  const char* names[] = {"fill_", "zero_", "copy_", "add_", "mul_",
                         "permute"};
  for (int nt : {2, 3, 4, 8}) {
    set_num_threads(nt);
    const auto got = run();
    for (size_t j = 0; j < got.size(); ++j)
      expect_bits_equal(ref[j], got[j], names[j]);
  }
}

TEST_F(ParallelTest, ZeroingBackwardsBitIdenticalAcrossLanes) {
  // Each backward zeroes its own rows inside its chunks. Before every call
  // a NaN-filled buffer of the result's size goes back to the pool, which
  // hands it to the kernel, so a row a chunk fails to zero shows up.
  Rng rng(7);
  const Shape x1{3, 37, 300};  // 111 rows of 300: three chunks
  const Tensor gy1 = edge_values(3 * 37, rng).reshape({3, 37});
  const Tensor idx1 = ops::max_pool1d_global(Tensor::randn(x1, rng)).second;
  const Shape x2{2, 5, 12, 12};  // ten planes
  const Tensor idx2 =
      ops::max_pool2d(Tensor::randn(x2, rng), ops::PoolArgs{2, 2, 0}).second;
  const Tensor gy2 = Tensor::randn(idx2.shape(), rng);
  const Shape x3{2, 5, 7, 7};
  const Tensor gy3 = Tensor::randn({2, 5, 3, 3}, rng);
  const Shape x4{5, 6, 9, 9};  // five samples
  const ops::ConvArgs ca = ops::ConvArgs::make(1, 1, 2);
  const Tensor w4 = Tensor::randn({4, 3, 3, 3}, rng);
  const Tensor gy4 = Tensor::randn({5, 4, 9, 9}, rng);
  // ag::slice along dim 1 (as ag::chunk cuts a fused tensor): 37 outer rows
  // of 8 * 300, six chunks. Its output and seed sit in a smaller pool
  // bucket than its input, so the NaN buffer goes to the backward.
  const Tensor x5 = Tensor::randn({37, 8, 300}, rng);
  const Tensor gy5 = Tensor::randn({37, 3, 300}, rng);
  const float nan = std::numeric_limits<float>::quiet_NaN();
  auto dirty = [&](const Shape& s) { Tensor::full(s, nan); };
  auto run = [&] {
    std::vector<std::vector<float>> out;
    dirty(x1);
    out.push_back(
        ops::max_pool1d_global_backward(gy1, idx1, x1).to_vector());
    dirty(x2);
    out.push_back(ops::max_pool2d_backward(gy2, idx2, x2).to_vector());
    dirty(x3);
    out.push_back(ops::adaptive_avg_pool2d_backward(gy3, x3).to_vector());
    out.push_back(ops::conv2d_grad_input(gy4, w4, Tensor(), x4, ca,
                                         DType::kF32, DType::kF32,
                                         Tensor::full(x4, nan))
                      .to_vector());
    ag::Variable v5(x5, /*requires_grad=*/true);
    ag::Variable y5 = ag::slice(v5, 1, 2, 5);
    dirty(x5.shape());
    y5.backward(gy5);
    out.push_back(v5.grad().to_vector());
    return out;
  };
  set_num_threads(1);
  const auto ref = run();
  // One scatter write per max_pool1d_global row, +0 everywhere else.
  for (int64_t r = 0; r < 3 * 37; ++r)
    for (int64_t l = 0; l < 300; ++l) {
      const float got = ref[0][static_cast<size_t>(r * 300 + l)];
      const float want = l == static_cast<int64_t>(idx1.data()[r])
                             ? 0.f + gy1.data()[r]
                             : 0.f;
      ASSERT_EQ(std::memcmp(&want, &got, sizeof(float)), 0) << r << ", " << l;
    }
  // The others read finite gradients: a NaN is an unzeroed element.
  for (size_t j = 1; j < ref.size(); ++j)
    for (size_t i = 0; i < ref[j].size(); ++i)
      ASSERT_FALSE(std::isnan(ref[j][i])) << "backward " << j << " at " << i;
  const char* names[] = {"max_pool1d_global_backward", "max_pool2d_backward",
                         "adaptive_avg_pool2d_backward", "conv2d_grad_input",
                         "slice backward"};
  for (int nt : {2, 3, 4, 8}) {
    set_num_threads(nt);
    const auto got = run();
    for (size_t j = 0; j < got.size(); ++j)
      expect_bits_equal(ref[j], got[j], names[j]);
  }
}

TEST_F(ParallelTest, GradientHandOffLaunchesOnlyOverTheWorkFloor) {
  // A root leaf's backward is the hand-off alone: the first run
  // overwrites its gradient, the second adds to it. 2^16 floats are four
  // chunks, one launch per run at 4 lanes; a serial model's 2^13 run
  // inline.
  Rng rng(8);
  auto launches = [&](int64_t n) {
    ag::Variable x(Tensor::randn({n}, rng), /*requires_grad=*/true);
    const Tensor seed = Tensor::randn({n}, rng);
    ag::Engine engine;
    std::vector<int64_t> per_run;
    for (int r = 0; r < 2; ++r) {
      const int64_t before = parallel_launches();
      engine.run(x, seed);
      per_run.push_back(parallel_launches() - before);
    }
    return per_run;
  };
  set_num_threads(4);
  EXPECT_EQ(launches(int64_t{1} << 16), (std::vector<int64_t>{1, 1}));
  EXPECT_EQ(launches(int64_t{1} << 13), (std::vector<int64_t>{0, 0}));
}

}  // namespace
}  // namespace hfta
