#include "core/storage_pool.h"

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
    std::lock_guard<std::mutex> lk(mu_);
    auto it = free_.find(cap);
    if (it != free_.end() && !it->second.empty()) {
      b = it->second.back();
      it->second.pop_back();
    }
  }
  if (b != nullptr) {
    pool_hits_.fetch_add(1, std::memory_order_relaxed);
    cached_buffers_.fetch_sub(1, std::memory_order_relaxed);
    cached_bytes_.fetch_sub(static_cast<uint64_t>(cap) * sizeof(float),
                            std::memory_order_relaxed);
  } else {
    b = heap_alloc(cap);
  }
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
  {
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
  for (StorageBlock* b : victims) {
    cached_buffers_.fetch_sub(1, std::memory_order_relaxed);
    cached_bytes_.fetch_sub(static_cast<uint64_t>(b->capacity) * sizeof(float),
                            std::memory_order_relaxed);
    heap_free(b);
  }
}

// ---- IterationScope ---------------------------------------------------------

IterationScope::IterationScope()
    : start_(StoragePool::instance().stats()),
      start_nodes_(counters::node_constructions()) {}

IterationScope::Stats IterationScope::stats() const {
  const StoragePool::Stats now = StoragePool::instance().stats();
  Stats s;
  s.heap_allocs = now.heap_allocs - start_.heap_allocs;
  s.heap_bytes = now.heap_bytes - start_.heap_bytes;
  s.pool_hits = now.pool_hits - start_.pool_hits;
  s.node_constructions = counters::node_constructions() - start_nodes_;
  return s;
}

}  // namespace hfta
