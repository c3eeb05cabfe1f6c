// Size-bucketed recycling pool for tensor storage, with intrusive
// refcounts.
//
// Training iterates the same graph over and over: every step allocates the
// same set of activation/gradient buffers and frees them before the next
// step begins. The pool turns that churn into pointer swaps — a freed
// buffer parks on a free list and the next same-size acquire pops it
// instead of touching the heap — so steady-state iterations perform zero
// heap allocations for tensor storage. Buffers are bucketed by capacity
// rounded up to a power of two (min 64 floats), so near-size requests share
// lists and the cache stays small.
//
// Two designs keep that invariant cheap:
//
//  * Intrusive refcounts. Each pooled block starts with a StorageBlock
//    header (atomic refcount + capacity) and Tensors hold a StorageRef — a
//    thin intrusive smart pointer. The previous shared_ptr<float> design
//    heap-allocated a control block per acquire, which silently broke the
//    "zero allocations per warm step" property; StorageRef allocates
//    nothing.
//
//  * One mutex-guarded set of LIFO buckets. Kernels acquire and release
//    storage on the launching thread only (DESIGN §10), so the lock is
//    uncontended on the hot path and a buffer is heap-allocated exactly
//    when its bucket is empty. Other threads may use the pool too; they
//    share the same lists.
//
// Zero-fill is a separate concern from allocation: acquire(numel, zeroed)
// memsets only when the caller's semantics need it. Kernels and factories
// that overwrite every output element use the uninitialized path
// (Tensor::empty) and skip the memset entirely.
//
// The pool also powers the repo's allocation instrumentation: heap_allocs /
// heap_bytes count every real heap allocation (pool misses and
// disabled-path allocations alike), which is what the steady-state
// zero-alloc tests assert on via IterationScope::Stats.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "core/op_counters.h"

namespace hfta {

/// Header living inside every pooled allocation, directly in front of the
/// float payload. alignas(64) keeps the payload cache-line / 64-byte aligned
/// (sizeof(StorageBlock) rounds to a multiple of the alignment, so the
/// payload at `this + 1` inherits it) — SIMD kernels may then use aligned
/// 32-byte loads on pooled tensors and packed panels never straddle a line.
struct alignas(64) StorageBlock {
  std::atomic<uint64_t> refs;
  int64_t capacity;  // payload floats (the bucket size)
  bool pooled;       // acquired while the pool was enabled

  float* payload() { return reinterpret_cast<float*>(this + 1); }
};

/// Intrusive refcounted handle to a StorageBlock. Copy = refcount bump (no
/// allocation, unlike a shared_ptr control block); the last ref returns the
/// block to the pool.
class StorageRef {
 public:
  StorageRef() = default;
  /// Adopts a block whose refcount is already 1 (pool acquire path).
  explicit StorageRef(StorageBlock* block) : block_(block) {}

  StorageRef(const StorageRef& o) : block_(o.block_) { retain(); }
  StorageRef(StorageRef&& o) noexcept : block_(o.block_) { o.block_ = nullptr; }
  StorageRef& operator=(const StorageRef& o) {
    if (this != &o) {
      release();
      block_ = o.block_;
      retain();
    }
    return *this;
  }
  StorageRef& operator=(StorageRef&& o) noexcept {
    if (this != &o) {
      release();
      block_ = o.block_;
      o.block_ = nullptr;
    }
    return *this;
  }
  ~StorageRef() { release(); }

  float* data() const { return block_ ? block_->payload() : nullptr; }
  explicit operator bool() const { return block_ != nullptr; }
  bool operator==(const StorageRef& o) const { return block_ == o.block_; }
  bool operator!=(const StorageRef& o) const { return block_ != o.block_; }
  /// Current refcount (tests).
  uint64_t use_count() const {
    return block_ ? block_->refs.load(std::memory_order_relaxed) : 0;
  }

 private:
  void retain() {
    if (block_) block_->refs.fetch_add(1, std::memory_order_relaxed);
  }
  void release();  // defined in storage_pool.cpp (needs StoragePool)

  StorageBlock* block_ = nullptr;
};

class StoragePool {
 public:
  /// The process-wide pool (leaky singleton: never destroyed, so tensor
  /// releases running during static teardown stay safe).
  static StoragePool& instance();

  /// A buffer of at least `numel` floats, zero-filled when `zeroed`.
  /// Pops the bucket's most recently parked block; falls back to the heap
  /// (and counts a heap alloc) only when the bucket is empty.
  StorageRef acquire(int64_t numel, bool zeroed);

  struct Config {
    /// Recycling on/off. Disabling does not drop cached buffers (trim()
    /// does) and in-flight pooled buffers are heap-freed on release while
    /// the pool is off.
    bool enabled = true;
  };
  void set_config(const Config& c);
  Config config() const;

  struct Stats {
    uint64_t heap_allocs = 0;    // real heap allocations since last reset
    uint64_t heap_bytes = 0;     // bytes those allocations requested
    uint64_t pool_hits = 0;      // acquires served from a free list
    uint64_t cached_buffers = 0; // buffers currently parked (all buckets)
    uint64_t cached_bytes = 0;
  };
  Stats stats() const;
  /// Resets the cumulative counters (cached_* reflect live state and are
  /// not affected).
  void reset_stats();

  /// Frees every cached buffer. Live tensors are unaffected; they return
  /// to the (now empty) free lists as usual when released.
  void trim();

 private:
  friend class StorageRef;

  StoragePool() = default;

  void release(StorageBlock* block);
  StorageBlock* heap_alloc(int64_t capacity);

  mutable std::mutex mu_;  // guards free_
  std::unordered_map<int64_t, std::vector<StorageBlock*>> free_;
  std::atomic<bool> enabled_{true};

  // Relaxed atomics: counters are read for snapshots, never for
  // synchronization.
  std::atomic<uint64_t> heap_allocs_{0};
  std::atomic<uint64_t> heap_bytes_{0};
  std::atomic<uint64_t> pool_hits_{0};
  std::atomic<uint64_t> cached_buffers_{0};
  std::atomic<uint64_t> cached_bytes_{0};
};

inline void StorageRef::release() {
  if (block_ &&
      block_->refs.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    StoragePool::instance().release(block_);
  }
  block_ = nullptr;
}

/// RAII window over the allocation/tape counters for one training
/// iteration. Construct at the top of a step, snapshot the deltas:
///
///   IterationScope scope;
///   ... zero_grad / forward / backward / step ...
///   assert(scope.stats().heap_allocs == 0);  // steady state: all recycled
class IterationScope {
 public:
  /// One snapshot of everything a step driver reports: allocation behavior
  /// and the tape tax (ag::Node constructions — zero for a replayed step
  /// program, one per differentiable op for a taped step).
  struct Stats {
    uint64_t heap_allocs = 0;
    uint64_t heap_bytes = 0;
    uint64_t pool_hits = 0;
    uint64_t node_constructions = 0;
  };

  IterationScope();

  /// Deltas since construction.
  Stats stats() const;

 private:
  StoragePool::Stats start_;
  uint64_t start_nodes_ = 0;
};

/// RAII scratch buffer of `numel` uninitialized floats from the pool, for
/// kernel-internal temporaries (im2col columns, materialized transposes)
/// that previously heap-allocated a std::vector per call.
class PooledBuffer {
 public:
  PooledBuffer() = default;
  explicit PooledBuffer(int64_t numel)
      : buf_(StoragePool::instance().acquire(numel, /*zeroed=*/false)) {}

  float* data() { return buf_.data(); }
  const float* data() const { return buf_.data(); }

 private:
  StorageRef buf_;
};

}  // namespace hfta
