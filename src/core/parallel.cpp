#include "core/parallel.h"

#include <algorithm>
#include <atomic>
#include <chrono>
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
// every worker that saw it to leave before returning, so the pointer never
// dangles.
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

// How long a worker polls for the next launch before it parks. Measured on
// the clock, not in pause instructions, whose cost varies tenfold across
// CPUs. A training step launches every few tens of microseconds while it
// runs, so a worker that just finished a job almost always sees the next
// one inside the window; outside training it parks and costs the host
// nothing.
constexpr std::chrono::microseconds kPollWindow{100};

// Pause instructions a launcher spends on a completion condition before it
// starts yielding its CPU (to a preempted worker, on an oversubscribed host).
constexpr int kLauncherSpins = 1 << 12;

inline void cpu_pause() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

// Spins on `done` with pause hints, then yields until it holds.
template <typename Pred>
void spin_until(Pred done) {
  for (int spins = 0; !done();) {
    if (spins < kLauncherSpins) {
      ++spins;
      cpu_pause();
    } else {
      std::this_thread::yield();
    }
  }
}

class ThreadPool {
 public:
  // Spawns the configured workers up front, so a launch never takes the
  // mutex to spawn; set_lanes spawns the rest on demand.
  ThreadPool() : lanes_(configured_threads()) {
    std::lock_guard<std::mutex> lk(mu_);
    spawn_locked(lanes() - 1);
  }

  int lanes() const { return lanes_.load(std::memory_order_relaxed); }

  void set_lanes(int n) {
    n = std::clamp(n, 1, kMaxThreads);
    {
      std::lock_guard<std::mutex> lk(mu_);
      lanes_.store(n, std::memory_order_relaxed);
      spawn_locked(n - 1);
    }
    // Parked workers re-check which side of the lane count they are on.
    cv_.notify_all();
    excess_cv_.notify_all();
  }

  // Runs the job across the worker lanes; the calling thread participates.
  // fn must not throw (tensor kernels are noexcept by construction; API
  // validation happens before entering the pool).
  //
  // Every access to job_, generation_, active_ and parked_ is seq_cst: the
  // launcher's store of nullptr to job_ and its loads of active_, and a
  // worker's increment of active_ and its load of job_, fall in one total
  // order. A worker whose load returned &job therefore incremented active_
  // before the launcher's nullptr store, so the launcher's wait for
  // active_ == 0 outlasts that worker's drain, and the stack-resident job
  // outlives every worker that saw it.
  void run(Job& job) {
    job_.store(&job);
    generation_.fetch_add(1);
    // Pairs with park(): a worker counts itself in parked_ before its last
    // look at generation_, so either it sees this launch or we see it. It
    // holds mu_ from that look until it waits, so taking mu_ here puts the
    // notify after its wait began.
    if (parked_.load() > 0) {
      { std::lock_guard<std::mutex> lk(mu_); }
      cv_.notify_all();
    }
    in_parallel_region = true;  // nested parallel_for inside fn runs inline
    drain(job);
    in_parallel_region = false;
    spin_until([&] {
      return job.completed.load(std::memory_order_acquire) == job.nchunks;
    });
    // A worker between its last fn return and its exit still touches the
    // cursor: wait until every worker that may have seen the job has left.
    job_.store(nullptr);
    spin_until([&] { return active_.load() == 0; });
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

  // Workers beyond the configured lane count sit out every launch.
  bool in_lanes(int index) const { return index < lanes() - 1; }

  void worker_loop(int index) {
    in_parallel_region = true;
    uint64_t seen = 0;
    while (true) {
      seen = await_launch(index, seen);
      active_.fetch_add(1);
      // Null when the launch finished without us. A newer job is live too,
      // but its launch may have lowered the lane count since we looked:
      // the job's publication orders that lane count before this check.
      Job* job = job_.load();
      if (job != nullptr && in_lanes(index)) drain(*job);
      active_.fetch_sub(1);
    }
  }

  // Returns the generation of a launch newer than `seen`: polls for
  // kPollWindow, then parks. Excess lanes park at once, and one that sees a
  // launch while the lane count drops is turned away by worker_loop.
  uint64_t await_launch(int index, uint64_t seen) {
    if (in_lanes(index)) {
      const auto deadline = std::chrono::steady_clock::now() + kPollWindow;
      while (true) {
        const uint64_t g = generation_.load();
        if (g != seen) return g;
        for (int i = 0; i < 16; ++i) cpu_pause();
        if (!in_lanes(index) || std::chrono::steady_clock::now() >= deadline)
          break;
      }
    }
    return park(index, seen);
  }

  uint64_t park(int index, uint64_t seen) {
    std::unique_lock<std::mutex> lk(mu_);
    while (true) {
      // Excess lanes wait apart, so a launch never wakes them; set_lanes
      // does when it changes the lane count.
      if (!in_lanes(index)) {
        excess_cv_.wait(lk);
        continue;
      }
      parked_.fetch_add(1);
      const uint64_t g = generation_.load();
      if (g == seen) cv_.wait(lk);
      parked_.fetch_sub(1);
      if (g != seen) return g;
    }
  }

  std::atomic<int> lanes_;
  std::mutex mu_;  // guards workers_; parks and wakes through the cvs
  std::condition_variable cv_;         // parked in-lane workers
  std::condition_variable excess_cv_;  // workers beyond the lane count
  std::atomic<Job*> job_{nullptr};
  std::atomic<uint64_t> generation_{0};
  std::atomic<int> active_{0};  // workers that may hold a job_ they loaded
  std::atomic<int> parked_{0};  // in-lane workers parked or about to be
  std::vector<std::thread> workers_;  // leaked with the pool singleton
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
