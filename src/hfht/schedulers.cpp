#include "hfht/schedulers.h"

#include <algorithm>

#include "core/check.h"

namespace hfta::hfht {

int64_t iterations_per_epoch(sim::Workload w) {
  switch (w) {
    case sim::Workload::kPointNetCls:
      return 400;  // ShapeNet-part ~12.8k training clouds / batch 32
    case sim::Workload::kMobileNetV3:
      return 48;   // CIFAR-10 50k / batch 1024
    default:
      return 100;
  }
}

namespace {

constexpr double kUsPerHour = 3.6e9;

// Runs a group of trials that co-execute (one process each, or one fused
// job): wall time tracks the longest epoch budget at the group's round
// time; GPU-hours = wall time (one device).
double group_hours(const std::vector<int64_t>& epochs, double round_us,
                   int64_t iters) {
  int64_t max_epochs = 0;
  for (int64_t e : epochs) max_epochs = std::max(max_epochs, e);
  return static_cast<double>(max_epochs) * static_cast<double>(iters) *
         round_us / kUsPerHour;
}

}  // namespace

CostReport schedule_cost(const std::vector<Trial>& trials,
                         const SearchSpace& space, sim::Workload w,
                         const sim::DeviceSpec& dev, sim::Mode mode) {
  CostReport report;
  if (trials.empty()) return report;
  const int64_t iters = iterations_per_epoch(w);

  if (mode == sim::Mode::kSerial) {
    const sim::RunResult r =
        sim::simulate(dev, w, sim::Mode::kSerial, 1, sim::Precision::kFP32);
    for (const Trial& t : trials) {
      report.gpu_hours += static_cast<double>(t.epochs) *
                          static_cast<double>(iters) * r.round_us / kUsPerHour;
      ++report.jobs_launched;
    }
    return report;
  }

  if (mode == sim::Mode::kConcurrent || mode == sim::Mode::kMps ||
      mode == sim::Mode::kMig) {
    if (mode == sim::Mode::kMig && dev.max_mig_instances == 0) {
      // Device without MIG: fall back to serial execution.
      return schedule_cost(trials, space, w, dev, sim::Mode::kSerial);
    }
    const int64_t cap =
        std::max<int64_t>(1, sim::max_models(dev, w, mode,
                                             sim::Precision::kFP32));
    // Greedy groups of up to `cap` co-running processes.
    for (size_t start = 0; start < trials.size();) {
      const size_t n =
          std::min<size_t>(static_cast<size_t>(cap), trials.size() - start);
      const sim::RunResult r = sim::simulate(
          dev, w, n == 1 ? sim::Mode::kSerial : mode,
          static_cast<int64_t>(n), sim::Precision::kFP32);
      std::vector<int64_t> epochs;
      for (size_t i = start; i < start + n; ++i)
        epochs.push_back(trials[i].epochs);
      report.gpu_hours += group_hours(epochs, r.round_us, iters);
      report.jobs_launched += static_cast<int64_t>(n);
      start += n;
    }
    return report;
  }

  // HFTA: partition by infusible hyper-parameters, fuse each partition in
  // chunks bounded by device memory.
  std::vector<ParamSet> sets;
  sets.reserve(trials.size());
  for (const Trial& t : trials) sets.push_back(t.params);
  const auto partitions = partition_by_infusible(space, sets);
  const int64_t cap = std::max<int64_t>(
      1, sim::max_models(dev, w, sim::Mode::kHfta, sim::Precision::kFP32));
  for (const auto& members : partitions) {
    for (size_t start = 0; start < members.size();) {
      const size_t n =
          std::min<size_t>(static_cast<size_t>(cap), members.size() - start);
      const sim::RunResult r = sim::simulate(
          dev, w, n == 1 ? sim::Mode::kSerial : sim::Mode::kHfta,
          static_cast<int64_t>(n), sim::Precision::kFP32);
      std::vector<int64_t> epochs;
      for (size_t i = start; i < start + n; ++i)
        epochs.push_back(trials[members[i]].epochs);
      report.gpu_hours += group_hours(epochs, r.round_us, iters);
      ++report.jobs_launched;
      start += n;
    }
  }
  return report;
}

}  // namespace hfta::hfht
