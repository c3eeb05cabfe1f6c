#include "core/storage_pool.h"

#include <algorithm>
#include <cstring>
#include <new>

namespace hfta {

namespace {

constexpr int64_t kMinBucket = 64;  // floats; 256 B

// Smallest power-of-two bucket >= n (>= kMinBucket).
int64_t bucket_for(int64_t n) {
  int64_t b = kMinBucket;
  while (b < n) b <<= 1;
  return b;
}

void heap_free(StorageBlock* b) {
  b->~StorageBlock();
  ::operator delete(static_cast<void*>(b),
                    std::align_val_t{alignof(StorageBlock)});
}

}  // namespace

StoragePool& StoragePool::instance() {
  static StoragePool* pool = new StoragePool();  // leaked by design
  return *pool;
}

namespace {
// Trivially destructible, so reading it stays valid after the holder's
// destructor ran (releases during static teardown fall back to the shared
// buckets instead of touching a destroyed thread_local).
thread_local bool t_cache_dead = false;
}  // namespace

StoragePool::ThreadCache* StoragePool::local_cache() {
  if (t_cache_dead) return nullptr;
  // Registered on first use; the holder's destructor runs at thread exit
  // and hands any parked buffers back to the shared buckets (the pool is a
  // leaked singleton, so this is safe even during late teardown).
  thread_local struct Holder {
    std::shared_ptr<ThreadCache> cache = std::make_shared<ThreadCache>();
    Holder() {
      StoragePool& p = StoragePool::instance();
      std::lock_guard<std::mutex> lk(p.registry_mu_);
      p.caches_.push_back(cache);
    }
    ~Holder() {
      t_cache_dead = true;
      StoragePool& p = StoragePool::instance();
      p.flush_cache(cache);
      std::lock_guard<std::mutex> lk(p.registry_mu_);
      auto& v = p.caches_;
      v.erase(std::remove(v.begin(), v.end(), cache), v.end());
    }
  } holder;
  return holder.cache.get();
}

void StoragePool::flush_cache(const std::shared_ptr<ThreadCache>& cache) {
  std::unordered_map<int64_t, std::vector<StorageBlock*>> lists;
  {
    std::lock_guard<std::mutex> lk(cache->mu);
    lists.swap(cache->lists);
  }
  std::lock_guard<std::mutex> lk(mu_);
  for (auto& [cap, vec] : lists) {
    auto& dst = free_[cap];
    dst.insert(dst.end(), vec.begin(), vec.end());
  }
}

StorageBlock* StoragePool::steal(int64_t capacity, const ThreadCache* self) {
  std::lock_guard<std::mutex> rlk(registry_mu_);
  for (const auto& c : caches_) {
    if (c.get() == self) continue;
    std::lock_guard<std::mutex> lk(c->mu);
    auto it = c->lists.find(capacity);
    if (it != c->lists.end() && !it->second.empty()) {
      StorageBlock* b = it->second.back();
      it->second.pop_back();
      return b;
    }
  }
  return nullptr;
}

StorageBlock* StoragePool::heap_alloc(int64_t capacity) {
  heap_allocs_.fetch_add(1, std::memory_order_relaxed);
  heap_bytes_.fetch_add(static_cast<uint64_t>(capacity) * sizeof(float),
                        std::memory_order_relaxed);
  void* mem = ::operator new(
      sizeof(StorageBlock) + sizeof(float) * static_cast<size_t>(capacity),
      std::align_val_t{alignof(StorageBlock)});
  return new (mem) StorageBlock{{0}, capacity, false};
}

StorageRef StoragePool::acquire(int64_t numel, bool zeroed) {
  const int64_t cap = bucket_for(numel);
  const bool enabled = enabled_.load(std::memory_order_relaxed);
  StorageBlock* b = nullptr;
  if (enabled) {
    ThreadCache* tc = local_cache();
    if (tc != nullptr) {
      // Own cache first: uncontended unless a sibling is mid-steal.
      std::lock_guard<std::mutex> lk(tc->mu);
      auto it = tc->lists.find(cap);
      if (it != tc->lists.end() && !it->second.empty()) {
        b = it->second.back();
        it->second.pop_back();
      }
    }
    if (b == nullptr) {
      std::lock_guard<std::mutex> lk(mu_);
      auto it = free_.find(cap);
      if (it != free_.end() && !it->second.empty()) {
        b = it->second.back();
        it->second.pop_back();
      }
    }
    // Steal before allocating: with dynamic chunk->thread scheduling a
    // buffer may have been freed on any lane, and the zero-warm-step-alloc
    // invariant must not depend on which lane freed it.
    if (b == nullptr) b = steal(cap, tc);
    if (b != nullptr) {
      pool_hits_.fetch_add(1, std::memory_order_relaxed);
      cached_buffers_.fetch_sub(1, std::memory_order_relaxed);
      cached_bytes_.fetch_sub(static_cast<uint64_t>(cap) * sizeof(float),
                              std::memory_order_relaxed);
    }
  }
  if (b == nullptr) b = heap_alloc(cap);
  b->refs.store(1, std::memory_order_relaxed);
  b->pooled = enabled;
  if (zeroed && numel > 0)
    std::memset(b->payload(), 0, sizeof(float) * static_cast<size_t>(numel));
  return StorageRef(b);
}

void StoragePool::release(StorageBlock* b) {
  if (!b->pooled || !enabled_.load(std::memory_order_relaxed)) {
    heap_free(b);
    return;
  }
  const int64_t cap = b->capacity;
  ThreadCache* tc = local_cache();
  if (tc != nullptr) {
    std::lock_guard<std::mutex> lk(tc->mu);
    auto& list = tc->lists[cap];
    if (list.size() < kMaxCachedPerBucket) {
      list.push_back(b);
      b = nullptr;
    }
  }
  if (b != nullptr) {
    // Per-thread list full: spill to the shared buckets.
    std::lock_guard<std::mutex> lk(mu_);
    free_[cap].push_back(b);
  }
  cached_buffers_.fetch_add(1, std::memory_order_relaxed);
  cached_bytes_.fetch_add(static_cast<uint64_t>(cap) * sizeof(float),
                          std::memory_order_relaxed);
}

void StoragePool::set_config(const Config& c) {
  enabled_.store(c.enabled, std::memory_order_relaxed);
}

StoragePool::Config StoragePool::config() const {
  Config c;
  c.enabled = enabled_.load(std::memory_order_relaxed);
  return c;
}

StoragePool::Stats StoragePool::stats() const {
  Stats s;
  s.heap_allocs = heap_allocs_.load(std::memory_order_relaxed);
  s.heap_bytes = heap_bytes_.load(std::memory_order_relaxed);
  s.pool_hits = pool_hits_.load(std::memory_order_relaxed);
  s.cached_buffers = cached_buffers_.load(std::memory_order_relaxed);
  s.cached_bytes = cached_bytes_.load(std::memory_order_relaxed);
  return s;
}

void StoragePool::reset_stats() {
  heap_allocs_.store(0, std::memory_order_relaxed);
  heap_bytes_.store(0, std::memory_order_relaxed);
  pool_hits_.store(0, std::memory_order_relaxed);
}

void StoragePool::trim() {
  std::vector<StorageBlock*> victims;
  {
    std::lock_guard<std::mutex> lk(mu_);
    for (auto& [cap, vec] : free_) {
      (void)cap;
      victims.insert(victims.end(), vec.begin(), vec.end());
    }
    free_.clear();
  }
  std::vector<std::shared_ptr<ThreadCache>> caches;
  {
    std::lock_guard<std::mutex> lk(registry_mu_);
    caches = caches_;
  }
  for (const auto& c : caches) {
    std::lock_guard<std::mutex> lk(c->mu);
    for (auto& [cap, vec] : c->lists) {
      (void)cap;
      victims.insert(victims.end(), vec.begin(), vec.end());
    }
    c->lists.clear();
  }
  for (StorageBlock* b : victims) {
    cached_buffers_.fetch_sub(1, std::memory_order_relaxed);
    cached_bytes_.fetch_sub(static_cast<uint64_t>(b->capacity) * sizeof(float),
                            std::memory_order_relaxed);
    heap_free(b);
  }
}

// ---- IterationScope ---------------------------------------------------------

namespace {
IterationScope::Stats g_last_scope;
}  // namespace

IterationScope::IterationScope()
    : start_(StoragePool::instance().stats()),
      start_nodes_(counters::node_constructions()) {}

IterationScope::~IterationScope() { g_last_scope = stats(); }

IterationScope::Stats IterationScope::stats() const {
  const StoragePool::Stats now = StoragePool::instance().stats();
  Stats s;
  s.heap_allocs = now.heap_allocs - start_.heap_allocs;
  s.heap_bytes = now.heap_bytes - start_.heap_bytes;
  s.pool_hits = now.pool_hits - start_.pool_hits;
  s.node_constructions = counters::node_constructions() - start_nodes_;
  return s;
}

IterationScope::Stats IterationScope::last() { return g_last_scope; }

}  // namespace hfta
