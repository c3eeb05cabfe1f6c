#include "hfht/tuner.h"

#include <cmath>

#include "core/check.h"
#include "hfht/executor.h"

namespace hfta::hfht {

const char* task_name(Task t) {
  return t == Task::kPointNet ? "PointNet" : "MobileNet";
}

const char* algorithm_name(AlgorithmKind a) {
  return a == AlgorithmKind::kRandomSearch ? "random-search" : "Hyperband";
}

double synthetic_accuracy(const SearchSpace& space, const ParamSet& params,
                          int64_t epochs, Task task) {
  HFTA_CHECK(params.size() == space.params.size(), "accuracy: arity mismatch");
  // Quality peaks at lr ~ 1e-3, beta1 ~ 0.9, moderate weight decay; the
  // infusible choices shift the ceiling slightly (bigger batches slightly
  // worse, feature transform slightly better).
  const double lr = params[0];
  const double beta1 = params[1];
  const double wd = params[3];
  const double lg = std::log10(lr);
  double quality = 0.9;
  quality -= 0.08 * (lg + 3.0) * (lg + 3.0);       // bowl around 1e-3
  quality -= 0.10 * std::fabs(beta1 - 0.9);
  quality -= 0.15 * wd;
  const double batch = params[6];
  quality -= (task == Task::kPointNet ? 0.002 : 0.00001) * batch / 8.0;
  quality += 0.01 * params[7];
  // Epochs: saturating learning curve; lr-dependent time constant.
  const double tau = 8.0 + 4.0 * std::fabs(lg + 3.0);
  const double progress = 1.0 - std::exp(-static_cast<double>(epochs) / tau);
  // Deterministic jitter keyed by the full parameter set.
  uint64_t key = 0xC0FFEE;
  for (double v : params)
    key = hash_combine(key, static_cast<uint64_t>(v * 1e6));
  const double noise = 0.01 * (hash_to_unit(key) - 0.5);
  return std::max(0.05, quality * progress + noise);
}

std::unique_ptr<TuningAlgorithm> make_algorithm(AlgorithmKind algo, Task task,
                                                uint64_t seed,
                                                int64_t budget_override) {
  SearchSpace space = task == Task::kPointNet ? SearchSpace::pointnet()
                                              : SearchSpace::mobilenet();
  if (algo == AlgorithmKind::kRandomSearch) {
    // Table 11: PointNet 60 sets x 25 epochs; MobileNet 50 x 20.
    const int64_t sets =
        budget_override > 0 ? budget_override
                            : (task == Task::kPointNet ? 60 : 50);
    return std::make_unique<RandomSearch>(
        space, sets, task == Task::kPointNet ? 25 : 20, seed);
  }
  // Table 11: PointNet R=250 eta=5 skip-last 1; MobileNet R=81 eta=3 skip 2.
  const int64_t R =
      budget_override > 0 ? budget_override
                          : (task == Task::kPointNet ? 250 : 81);
  return task == Task::kPointNet
             ? std::make_unique<Hyperband>(space, R, 5, 1, seed)
             : std::make_unique<Hyperband>(space, R, 3, 2, seed);
}

TuneResult run_tuning(TuningAlgorithm& algorithm, TrialExecutor& executor) {
  TuneResult result;
  // Algorithm 1 main loop.
  while (true) {
    const std::vector<Trial> batch = algorithm.propose();
    if (batch.empty()) break;
    ++result.iterations;
    result.total_trials += static_cast<int64_t>(batch.size());
    const ExecutionReport rep = executor.run(batch);
    HFTA_CHECK(rep.scores.size() == batch.size(),
               "run_tuning: executor returned ", rep.scores.size(),
               " scores for ", batch.size(), " trials");
    result.total_gpu_hours += rep.cost.gpu_hours;
    algorithm.update(batch, rep.scores);
  }
  result.best_accuracy = algorithm.best_accuracy();
  return result;
}

TuneResult run_tuning(Task task, AlgorithmKind algo, sim::Mode scheduler,
                      const sim::DeviceSpec& dev, uint64_t seed,
                      int64_t budget_override) {
  auto tuning = make_algorithm(algo, task, seed, budget_override);
  SyntheticExecutor executor(task, scheduler, dev);
  return run_tuning(*tuning, executor);
}

}  // namespace hfta::hfht
