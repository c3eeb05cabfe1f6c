// StoragePool behavior: bucket reuse, oversize fallback, iteration-scope
// accounting, the Config toggle, the one locked free list under worker and
// concurrent use, and the intrusive refcount that keeps shared storage
// alive.
#include <gtest/gtest.h>

#include <condition_variable>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "core/storage_pool.h"
#include "tensor/matmul.h"
#include "tensor/ops.h"
#include "tensor/tensor.h"

namespace hfta {
namespace {

// The pool is process-global; isolate each test's accounting.
class StoragePoolTest : public ::testing::Test {
 protected:
  void SetUp() override {
    StoragePool::instance().set_config(StoragePool::Config{});
    StoragePool::instance().trim();
    StoragePool::instance().reset_stats();
  }
  void TearDown() override {
    StoragePool::instance().set_config(StoragePool::Config{});
    StoragePool::instance().trim();
  }
};

TEST_F(StoragePoolTest, PayloadsAre64ByteAligned) {
  // SIMD kernels rely on pooled payloads being cache-line aligned: bucket
  // allocations and oversize heap fallbacks alike.
  auto aligned64 = [](const void* p) {
    return reinterpret_cast<uintptr_t>(p) % 64 == 0;
  };
  EXPECT_GE(alignof(StorageBlock), 64u);
  Tensor bucket({4, 8});
  EXPECT_TRUE(aligned64(bucket.data()));
  Tensor odd({7});  // sub-bucket request still lands on an aligned block
  EXPECT_TRUE(aligned64(odd.data()));
  Tensor oversize({1 << 20});
  EXPECT_TRUE(aligned64(oversize.data()));
  // Recycled buffers keep the alignment.
  float* raw = nullptr;
  {
    Tensor t({64});
    raw = t.data();
  }
  Tensor u({64});
  EXPECT_EQ(u.data(), raw);
  EXPECT_TRUE(aligned64(u.data()));
}

TEST_F(StoragePoolTest, BucketReuseRecyclesSameSize) {
  auto& pool = StoragePool::instance();
  float* raw = nullptr;
  {
    Tensor t({4, 8});  // 32 floats -> 64-float bucket
    raw = t.data();
  }
  EXPECT_EQ(pool.stats().cached_buffers, 1u);
  Tensor u({4, 8});
  EXPECT_EQ(u.data(), raw);  // same buffer handed back
  EXPECT_EQ(pool.stats().pool_hits, 1u);
  EXPECT_EQ(pool.stats().heap_allocs, 1u);  // only the first allocation
}

TEST_F(StoragePoolTest, NearSizesShareAPowerOfTwoBucket) {
  auto& pool = StoragePool::instance();
  float* raw = nullptr;
  {
    Tensor t({100});  // -> 128-float bucket
    raw = t.data();
  }
  Tensor u({128});  // same bucket, different requested size
  EXPECT_EQ(u.data(), raw);
  EXPECT_EQ(pool.stats().pool_hits, 1u);
}

TEST_F(StoragePoolTest, RecycledZeroedAllocationIsZeroFilled) {
  {
    Tensor t({64});
    t.fill_(7.f);
  }
  Tensor z({64});  // recycled buffer, but zeros() semantics must hold
  for (int64_t i = 0; i < z.numel(); ++i) EXPECT_EQ(z.data()[i], 0.f);
}

TEST_F(StoragePoolTest, OversizeRequestFallsBackToHeapThenRecycles) {
  auto& pool = StoragePool::instance();
  {
    Tensor big({1 << 20});  // nothing cached at this size yet
  }
  EXPECT_EQ(pool.stats().heap_allocs, 1u);
  {
    Tensor big2({1 << 20});  // recycled
  }
  EXPECT_EQ(pool.stats().heap_allocs, 1u);
  EXPECT_EQ(pool.stats().pool_hits, 1u);
}

TEST_F(StoragePoolTest, TrimDropsCachedBuffersOnly) {
  auto& pool = StoragePool::instance();
  Tensor live({32});
  live.fill_(3.f);
  { Tensor dead({32, 32}); }
  EXPECT_GT(pool.stats().cached_buffers, 0u);
  pool.trim();
  EXPECT_EQ(pool.stats().cached_buffers, 0u);
  EXPECT_EQ(live.data()[0], 3.f);  // live tensors untouched
}

TEST_F(StoragePoolTest, DisabledPoolAllocatesAndFreesOnHeap) {
  auto& pool = StoragePool::instance();
  StoragePool::Config off;
  off.enabled = false;
  pool.set_config(off);
  { Tensor t({64}); }
  EXPECT_EQ(pool.stats().cached_buffers, 0u);  // nothing parked
  EXPECT_EQ(pool.stats().heap_allocs, 1u);
  { Tensor t({64}); }
  EXPECT_EQ(pool.stats().heap_allocs, 2u);  // no recycling while off
}

TEST_F(StoragePoolTest, ConfigRoundTrips) {
  auto& pool = StoragePool::instance();
  StoragePool::Config c;
  c.enabled = false;
  pool.set_config(c);
  EXPECT_FALSE(pool.config().enabled);
  pool.set_config(StoragePool::Config{});
  EXPECT_TRUE(pool.config().enabled);
}

TEST_F(StoragePoolTest, IterationScopeReportsPerIterationDeltas) {
  { Tensor warm({16, 16}); }  // park one buffer
  IterationScope scope;
  { Tensor hit({16, 16}); }   // recycled: no heap alloc inside the scope
  EXPECT_EQ(scope.stats().heap_allocs, 0u);
  EXPECT_EQ(scope.stats().pool_hits, 1u);
  { Tensor miss({1 << 18}); }  // nothing cached at this size: heap alloc
  EXPECT_EQ(scope.stats().heap_allocs, 1u);
}

TEST_F(StoragePoolTest, PoolStatsTrackHeapAllocsOnly) {
  auto& pool = StoragePool::instance();
  { Tensor t({32}); }
  EXPECT_EQ(pool.stats().heap_allocs, 1u);
  EXPECT_GT(pool.stats().heap_bytes, 0u);
  { Tensor t({32}); }  // pool hit: counter must NOT move
  EXPECT_EQ(pool.stats().heap_allocs, 1u);
}

TEST_F(StoragePoolTest, PerThreadFreeListReusesOnOwningThread) {
  // A buffer freed on a worker thread is handed straight back to that
  // thread's next same-bucket request, with no heap traffic.
  auto& pool = StoragePool::instance();
  std::thread worker([&] {
    float* raw = nullptr;
    {
      Tensor t({256});
      raw = t.data();
    }
    const uint64_t allocs = pool.stats().heap_allocs;
    Tensor u({256});
    EXPECT_EQ(u.data(), raw);
    EXPECT_EQ(pool.stats().heap_allocs, allocs);
  });
  worker.join();
}

TEST_F(StoragePoolTest, CrossThreadFreeIsStolenNotReallocated) {
  // Free on thread B, re-acquire on the main thread while B is still alive:
  // the one free list holds the buffer, so the main thread gets it back
  // without touching the heap (the zero-warm-step-alloc invariant must not
  // depend on which thread freed a buffer).
  auto& pool = StoragePool::instance();
  Tensor t({512});
  float* raw = t.data();
  std::mutex mu;
  std::condition_variable cv;
  bool freed = false;
  bool reacquired = false;
  std::thread worker([&] {
    { Tensor dropped = std::move(t); }  // parks on the shared list
    {
      std::lock_guard<std::mutex> lk(mu);
      freed = true;
    }
    cv.notify_all();
    std::unique_lock<std::mutex> lk(mu);
    cv.wait(lk, [&] { return reacquired; });
  });
  {
    std::unique_lock<std::mutex> lk(mu);
    cv.wait(lk, [&] { return freed; });
  }
  const uint64_t allocs = pool.stats().heap_allocs;
  Tensor u({512});
  EXPECT_EQ(u.data(), raw);
  EXPECT_EQ(pool.stats().heap_allocs, allocs);
  {
    std::lock_guard<std::mutex> lk(mu);
    reacquired = true;
  }
  cv.notify_all();
  worker.join();
}

TEST_F(StoragePoolTest, ConcurrentThreadsShareOneListWithoutLoss) {
  // Several threads acquire and release from mixed buckets at once. Every
  // heap block must end up parked exactly once (none lost, none parked
  // twice). A heap allocation happens only when its bucket is empty, and
  // each thread holds one buffer of every bucket per round, so the heap
  // count is bounded by threads x buffers live per thread.
  constexpr int kThreads = 4;
  constexpr int kLive = 3;  // buffers each thread holds at once
  constexpr int kRounds = 2000;
  auto& pool = StoragePool::instance();
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&pool, t] {
      for (int r = 0; r < kRounds; ++r) {
        std::vector<StorageRef> held;
        for (int k = 0; k < kLive; ++k) {
          // Buckets of 64, 256 and 1024 floats, in a per-round order.
          const int64_t numel = int64_t{64} << (2 * ((t + r + k) % kLive));
          held.push_back(pool.acquire(numel, /*zeroed=*/false));
          held.back().data()[0] = static_cast<float>(t);
        }
        for (const StorageRef& h : held)
          EXPECT_EQ(h.data()[0], static_cast<float>(t));
      }
    });
  }
  for (std::thread& w : workers) w.join();
  const StoragePool::Stats s = pool.stats();
  EXPECT_EQ(s.cached_buffers, s.heap_allocs);
  EXPECT_LE(s.heap_allocs, static_cast<uint64_t>(kThreads * kLive));
  EXPECT_EQ(s.pool_hits + s.heap_allocs,
            static_cast<uint64_t>(kThreads * kRounds * kLive));
}

TEST_F(StoragePoolTest, IntrusiveRefcountParksOnlyAfterLastRef) {
  auto& pool = StoragePool::instance();
  Tensor a({64});
  float* raw = a.data();
  Tensor view = a.reshape({8, 8});  // shares storage
  EXPECT_TRUE(a.shares_storage_with(view));
  a = Tensor();  // drop one ref; `view` keeps the block alive
  EXPECT_EQ(pool.stats().cached_buffers, 0u);
  view.data()[0] = 5.f;
  view = Tensor();  // last ref: block parks in the free list
  EXPECT_EQ(pool.stats().cached_buffers, 1u);
  Tensor b({64});
  EXPECT_EQ(b.data(), raw);
}

TEST_F(StoragePoolTest, StorageRefCountsAndReleases) {
  auto& pool = StoragePool::instance();
  StorageRef r = pool.acquire(10, /*zeroed=*/false);
  EXPECT_EQ(r.use_count(), 1u);
  StorageRef r2 = r;
  EXPECT_EQ(r.use_count(), 2u);
  EXPECT_TRUE(r == r2);
  r2 = StorageRef();
  EXPECT_EQ(r.use_count(), 1u);
  StorageRef r3 = std::move(r);
  EXPECT_FALSE(static_cast<bool>(r));
  EXPECT_EQ(r3.use_count(), 1u);
}

TEST_F(StoragePoolTest, PooledAndHeapTensorsComputeIdentically) {
  // Same arithmetic with pooling on and off: recycling buffers must never
  // change a value (Tensor::empty users overwrite fully; zeros re-zero).
  auto compute = [] {
    Rng rng(11);
    Tensor a = Tensor::randn({8, 8}, rng);
    Tensor b = Tensor::randn({8, 8}, rng);
    Tensor c = ops::add(ops::matmul(a, b), a);
    return c.to_vector();
  };
  StoragePool::instance().set_config(StoragePool::Config{});
  const auto warm = compute();   // populate free lists
  const auto pooled = compute(); // recycled buffers
  StoragePool::Config off;
  off.enabled = false;
  StoragePool::instance().set_config(off);
  const auto heap = compute();
  ASSERT_EQ(pooled.size(), heap.size());
  for (size_t i = 0; i < pooled.size(); ++i) {
    EXPECT_EQ(pooled[i], heap[i]) << "at " << i;
    EXPECT_EQ(warm[i], heap[i]) << "at " << i;
  }
}

}  // namespace
}  // namespace hfta
