// Host-speed probe. On a shared machine the speed of the whole host drifts
// by 10-30% between runs and over seconds within a run, and repetition does
// not average that out. The probe is fixed work that does not use the
// library, shaped like the library's hot path — many short launches, each
// split into chunks that a pool of condition-variable-woken threads claims
// from an atomic cursor — so it slows down when the host does, and a lane
// that loses its CPU costs it what it costs the library. Timing it right
// before and after a measured interval and scaling the interval by
// (kNominalSeconds / probe time) reports the interval at a nominal host
// speed.
//
// The probe assumes the library is idle while it runs (the library's
// workers block between launches). A library change that kept threads busy
// between steps would slow the probe and inflate scaled numbers; the raw
// numbers are recorded next to the scaled ones for that case.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>
#include <vector>

namespace bench {

class HostProbe {
 public:
  /// The probe's typical duration on a quiet 4-vCPU host; scaled times are
  /// times at that speed. Each lane gets the same work, so the duration does
  /// not depend on the thread count.
  static constexpr double kNominalSeconds = 0.015;

  explicit HostProbe(int threads)
      : lanes_(threads < 1 ? 1 : threads), chunks_(kChunksPerLane * lanes_) {
    for (int id = 1; id < lanes_; ++id)
      workers_.emplace_back([this] { work_loop(); });
  }

  ~HostProbe() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    wake_.notify_all();
    for (std::thread& t : workers_) t.join();
  }

  HostProbe(const HostProbe&) = delete;
  HostProbe& operator=(const HostProbe&) = delete;

  /// Runs the fixed probe work once and returns its wall time in seconds,
  /// estimated as kParts times the median of kParts equal parts: a single
  /// preemption then moves one part, not the estimate.
  double seconds() {
    double part[kParts];
    for (double& t : part) {
      const auto t0 = std::chrono::steady_clock::now();
      for (int i = 0; i < kLaunches / kParts; ++i) launch();
      t = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
              .count();
    }
    std::sort(part, part + kParts);
    return kParts * part[kParts / 2];
  }

 private:
  static constexpr int kLaunches = 40;
  static constexpr int kParts = 5;
  static constexpr int kChunksPerLane = 8;  // 32 at 4 lanes, as the library
  static constexpr int kFloats = 2048;      // per chunk, L1-resident

  // One chunk (~60 us): a dependent float loop.
  static float chunk(int c) {
    float a[kFloats];
    for (int i = 0; i < kFloats; ++i) a[i] = 1e-3f * static_cast<float>(i + c);
    float acc = 0.f;
    for (int rep = 0; rep < 30; ++rep)
      for (int i = 0; i < kFloats; ++i) {
        a[i] = a[i] * 0.999f + 1e-4f;
        acc += a[i];
      }
    return acc;
  }

  void launch() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      next_.store(0);
      done_chunks_ = 0;
      ++generation_;
    }
    wake_.notify_all();
    run_chunks();
    std::unique_lock<std::mutex> lock(mu_);
    done_.wait(lock, [this] { return done_chunks_ == chunks_; });
  }

  // Claims chunks until none are left; a lane that wakes late finds fewer.
  void run_chunks() {
    float acc = 0.f;
    int ran = 0;
    for (int c = next_.fetch_add(1); c < chunks_; c = next_.fetch_add(1)) {
      acc += chunk(c);
      ++ran;
    }
    if (ran == 0) return;
    std::lock_guard<std::mutex> lock(mu_);
    sink_ += acc;
    done_chunks_ += ran;
    if (done_chunks_ == chunks_) done_.notify_one();
  }

  void work_loop() {
    uint64_t seen = 0;
    for (;;) {
      {
        std::unique_lock<std::mutex> lock(mu_);
        wake_.wait(lock, [&] { return stop_ || generation_ != seen; });
        if (stop_) return;
        seen = generation_;
      }
      run_chunks();
    }
  }

  const int lanes_;
  const int chunks_;  // per launch
  std::atomic<int> next_{0};  // next unclaimed chunk of the current launch
  std::mutex mu_;  // guards generation_, done_chunks_, stop_, sink_
  std::condition_variable wake_, done_;
  uint64_t generation_ = 0;
  int done_chunks_ = 0;
  bool stop_ = false;
  float sink_ = 0.f;  // keeps the probe work observable
  std::vector<std::thread> workers_;  // declared last: uses the members above
};

}  // namespace bench
