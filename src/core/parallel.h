// Shared thread pool + deterministic parallel_for used by the tensor kernels.
//
// Kernels do not guess a `grain`. They state the work of one index and build
// a Partition — a chunked view of an index range whose boundaries are a PURE
// FUNCTION of the problem size (never of the worker count) — and launch it:
//
//   parallel_for(Partition::work(rows, cols), [&](int64_t lo, int64_t hi) {
//     ...
//   });
//
// A chunk carries at least Partition::kWorkFloor units of that work, so a
// problem whose whole work is under the floor is one chunk and runs inline:
// a launch has to pay for itself. It costs about a microsecond while the
// workers still poll from the last one (they do for ~100 us after a job),
// and a few more when they have parked and must be woken (DESIGN §10).
//
// Workers claim whole chunks from an atomic cursor, so scheduling is dynamic
// but the *work decomposition* is fixed: the same problem always splits at
// the same boundaries whether HFTA_NUM_THREADS is 1 or 64. Combined with the
// kernel-side rule that parallel loops only ever range over independent
// output coordinates (no floating-point accumulation chain is ever split
// across chunks), training results are bit-identical at every thread count —
// the invariant that makes the repo's fused-vs-serial 0.00e+00 audits
// meaningful on multi-core hosts.
//
// The callback may observe a union of consecutive chunks (the single-thread
// and nested paths pass the whole range in one call), so it must treat
// [lo, hi) as "some consecutive chunks", not "exactly one chunk". That is
// automatic for output-coordinate loops.
//
// The callback is a FunctionRef, not a std::function: parallel_for sits on
// the launch path of every multi-threaded kernel, and std::function's
// conversion heap-allocated a copy of each call site's closure per launch.
// FunctionRef borrows the caller's lambda instead (parallel_for blocks, so
// the reference always outlives the call) — zero allocations per launch.
#pragma once

#include <cstdint>

#include "core/function_ref.h"

namespace hfta {

/// A fixed decomposition of [begin, end) into equal-width chunks. The chunk
/// width depends only on the range and the work per index — NOT on the
/// number of worker threads — so two runs over the same problem always see
/// the same boundaries.
struct Partition {
  int64_t begin = 0;
  int64_t end = 0;
  int64_t chunk = 1;  // fixed chunk width (>= 1)

  /// Upper bound on chunks per launch. A constant (not the thread count!):
  /// enough slack for dynamic load balancing on any realistic core count
  /// while keeping per-launch cursor traffic trivial.
  static constexpr int64_t kTargetChunks = 32;

  /// Least work one chunk carries, in the units its call site states: one
  /// element visited by one pass, or one vector FMA in the GEMM. Below it a
  /// launch costs more than it saves, so a partition whose whole work is
  /// under it is one chunk.
  static constexpr int64_t kWorkFloor = int64_t{1} << 14;

  int64_t range() const { return end - begin; }
  int64_t num_chunks() const {
    const int64_t n = range();
    return n <= 0 ? 0 : (n + chunk - 1) / chunk;
  }

  /// Decomposition of [0, n) where one index costs `per_index` units of
  /// work: each chunk holds at least kWorkFloor units, at most
  /// kTargetChunks chunks.
  static Partition work(int64_t n, int64_t per_index) {
    if (per_index < 1) per_index = 1;
    return range(0, n, (kWorkFloor + per_index - 1) / per_index);
  }

  /// Units that each carry a launch's worth of work on their own (conv
  /// samples and groups, batched matmul entries, pooling planes): any unit
  /// may stand alone in a chunk.
  static Partition rows(int64_t n) { return work(n, kWorkFloor); }

  /// Elementwise work: one unit per element.
  static Partition elems(int64_t n) { return work(n, 1); }

  /// General form: chunks of at least `min_per_chunk` indices, at most
  /// kTargetChunks chunks.
  static Partition range(int64_t begin, int64_t end, int64_t min_per_chunk);

  /// Index of the chunk starting at `lo` (the first argument of a
  /// parallel_for callback). Kernels that need scratch must acquire one
  /// slab of num_chunks() slots on the launching thread and address it by
  /// this index: acquiring pool storage from inside the body would make
  /// the peak number of live scratch buffers, and so the pool's heap
  /// allocations, depend on how the chunks were scheduled.
  int64_t chunk_index(int64_t lo) const { return (lo - begin) / chunk; }
};

/// Number of execution lanes parallel_for may use (>= 1; the calling thread
/// participates, so this counts it).
int num_threads();

/// Overrides the lane count at runtime (clamped to [1, 64]). Workers are
/// spawned lazily; lowering the count parks the excess workers rather than
/// joining them. Results are bit-identical at any setting — this exists for
/// thread-count-invariance tests and the bench --threads sweep. Not
/// thread-safe against concurrent parallel_for calls.
void set_num_threads(int n);

/// Runs fn over the partition's chunks across the thread pool; blocks until
/// all complete. fn may receive a union of consecutive chunks. Runs inline
/// (one call with the whole range) when the partition has a single chunk,
/// only one lane is configured, or the caller is already inside a
/// parallel_for.
void parallel_for(const Partition& p, FunctionRef<void(int64_t, int64_t)> fn);

/// Launches that reached the thread pool since the process started (one
/// relaxed atomic increment each); inline runs are not counted.
int64_t parallel_launches();

}  // namespace hfta
