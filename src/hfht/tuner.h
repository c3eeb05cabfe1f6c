// End-to-end HFHT runs: Algorithm 1 with a synthetic (deterministic)
// validation-accuracy surface. The surface rewards sensible learning rates
// and more epochs so that Hyperband's successive halving has signal to act
// on; GPU-hour accounting comes from the scheduler cost model.
#pragma once

#include "hfht/schedulers.h"

namespace hfta::hfht {

enum class Task { kPointNet, kMobileNet };
enum class AlgorithmKind { kRandomSearch, kHyperband };
const char* task_name(Task t);
const char* algorithm_name(AlgorithmKind a);

struct TuneResult {
  double total_gpu_hours = 0;
  double best_accuracy = 0;
  int64_t total_trials = 0;
  int64_t iterations = 0;  // Algorithm-1 loop iterations
};

/// Deterministic synthetic accuracy for a trial (pure function of the
/// hyper-parameters + epoch budget + task).
double synthetic_accuracy(const SearchSpace& space, const ParamSet& params,
                          int64_t epochs, Task task);

/// Builds the paper's Table-11 configuration of `algo` for `task`.
/// `budget_override` (when > 0) shrinks the workload for smoke runs: it
/// replaces random search's set count and Hyperband's max-epoch budget R.
std::unique_ptr<TuningAlgorithm> make_algorithm(AlgorithmKind algo, Task task,
                                                uint64_t seed,
                                                int64_t budget_override = 0);

class TrialExecutor;  // hfht/executor.h

/// Algorithm 1's main loop against any executor: propose -> run -> update
/// until the algorithm is exhausted. This is the seam between tuning logic
/// and trial execution (synthetic cost model or real fused training).
TuneResult run_tuning(TuningAlgorithm& algorithm, TrialExecutor& executor);

/// Runs the full tuning workload on one device under one scheduler with the
/// synthetic executor (the Fig. 8 configuration).
TuneResult run_tuning(Task task, AlgorithmKind algo, sim::Mode scheduler,
                      const sim::DeviceSpec& dev, uint64_t seed,
                      int64_t budget_override = 0);

}  // namespace hfta::hfht
