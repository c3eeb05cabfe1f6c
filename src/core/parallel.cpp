#include "core/parallel.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdlib>
#include <mutex>
#include <thread>
#include <vector>

namespace hfta {
namespace {

constexpr int kMaxThreads = 64;

thread_local bool in_parallel_region = false;

std::atomic<int64_t> launches{0};

// One launch in flight. Lives on parallel_for's stack; the pool waits for
// every participant to leave before returning, so the pointer never dangles.
struct Job {
  const FunctionRef<void(int64_t, int64_t)>* fn;
  int64_t begin;
  int64_t end;
  int64_t chunk;
  int64_t nchunks;
  std::atomic<int64_t> cursor{0};     // next chunk index to claim
  std::atomic<int64_t> completed{0};  // chunks whose fn call returned
};

// Claims chunks until the cursor runs dry. Chunk boundaries come from the
// Partition (fixed); only the chunk->thread assignment is dynamic.
void drain(Job& job) {
  while (true) {
    const int64_t c = job.cursor.fetch_add(1, std::memory_order_relaxed);
    if (c >= job.nchunks) return;
    const int64_t lo = job.begin + c * job.chunk;
    const int64_t hi = std::min(job.end, lo + job.chunk);
    (*job.fn)(lo, hi);
    job.completed.fetch_add(1, std::memory_order_acq_rel);
  }
}

class ThreadPool {
 public:
  ThreadPool() : lanes_(configured_threads()) {}

  int lanes() const { return lanes_.load(std::memory_order_relaxed); }

  void set_lanes(int n) {
    n = std::clamp(n, 1, kMaxThreads);
    std::lock_guard<std::mutex> lk(mu_);
    lanes_.store(n, std::memory_order_relaxed);
    spawn_locked(n - 1);
  }

  // Runs the job across the worker lanes; the calling thread participates.
  // fn must not throw (tensor kernels are noexcept by construction; API
  // validation happens before entering the pool).
  void run(Job& job) {
    {
      std::lock_guard<std::mutex> lk(mu_);
      spawn_locked(lanes() - 1);
      job_ = &job;
      ++generation_;
    }
    cv_.notify_all();
    in_parallel_region = true;  // nested parallel_for inside fn runs inline
    drain(job);
    in_parallel_region = false;
    std::unique_lock<std::mutex> lk(mu_);
    // Wait for completion AND for every worker to have left the job: a
    // worker between its last fn return and its exit still touches the
    // cursor, and the job lives on our caller's stack.
    done_cv_.wait(lk, [&] {
      return job.completed.load(std::memory_order_acquire) == job.nchunks &&
             active_ == 0;
    });
    job_ = nullptr;
  }

 private:
  static int configured_threads() {
    if (const char* env = std::getenv("HFTA_NUM_THREADS")) {
      const int n = std::atoi(env);
      if (n >= 1) return std::min(n, kMaxThreads);
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return static_cast<int>(std::clamp(hw, 1u, 16u));
  }

  void spawn_locked(int want_workers) {
    while (static_cast<int>(workers_.size()) < want_workers &&
           static_cast<int>(workers_.size()) < kMaxThreads - 1) {
      const int index = static_cast<int>(workers_.size());
      workers_.emplace_back([this, index] { worker_loop(index); });
    }
  }

  void worker_loop(int index) {
    in_parallel_region = true;
    uint64_t seen = 0;
    std::unique_lock<std::mutex> lk(mu_);
    while (true) {
      cv_.wait(lk, [&] {
        // Workers beyond the configured lane count stay parked; a stale
        // generation with job_ already cleared means the launch finished
        // without us.
        return stop_ || (generation_ != seen && job_ != nullptr &&
                         index < lanes() - 1);
      });
      if (stop_) return;
      seen = generation_;
      Job* job = job_;
      ++active_;
      lk.unlock();
      drain(*job);
      lk.lock();
      if (--active_ == 0) done_cv_.notify_all();
    }
  }

  std::atomic<int> lanes_;
  std::vector<std::thread> workers_;  // leaked with the pool singleton
  std::mutex mu_;
  std::condition_variable cv_;
  std::condition_variable done_cv_;
  Job* job_ = nullptr;
  int active_ = 0;  // workers currently inside drain()
  uint64_t generation_ = 0;
  bool stop_ = false;
};

ThreadPool& pool() {
  static ThreadPool* p = new ThreadPool();  // leaked: workers outlive main
  return *p;
}

}  // namespace

Partition Partition::range(int64_t begin, int64_t end, int64_t min_per_chunk) {
  Partition p;
  p.begin = begin;
  p.end = end;
  const int64_t n = end - begin;
  if (n <= 0) return p;
  if (min_per_chunk < 1) min_per_chunk = 1;
  const int64_t max_chunks = std::max<int64_t>(1, n / min_per_chunk);
  const int64_t nchunks = std::min(kTargetChunks, max_chunks);
  p.chunk = (n + nchunks - 1) / nchunks;
  return p;
}

int num_threads() { return pool().lanes(); }

void set_num_threads(int n) { pool().set_lanes(n); }

void parallel_for(const Partition& p,
                  FunctionRef<void(int64_t, int64_t)> fn) {
  const int64_t nchunks = p.num_chunks();
  if (nchunks <= 0) return;
  if (nchunks == 1 || in_parallel_region || pool().lanes() == 1) {
    fn(p.begin, p.end);
    return;
  }
  launches.fetch_add(1, std::memory_order_relaxed);
  Job job{&fn, p.begin, p.end, p.chunk, nchunks};
  pool().run(job);
}

int64_t parallel_launches() {
  return launches.load(std::memory_order_relaxed);
}

}  // namespace hfta
